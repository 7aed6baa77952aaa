(** Function name-space overloading (§5.4). UNIX applications call the
    same [read]/[write]/[close] on files and sockets; the substrate
    cannot simply override them because the generic calls have multiple
    interpretations. The paper's solution — adopted here — is
    {e file-descriptor tracking}: a table, maintained by interposing on
    every call that creates or destroys a descriptor, that routes each
    generic call either to the EMP substrate or to the ordinary file
    system.

    One [t] models one process's descriptor table. File descriptors wrap
    RAM-disk files with a seek position; socket descriptors wrap any
    {!Uls_api.Sockets_api.stream} (substrate or kernel TCP alike, which
    is the point). *)

type t
type fd = int

exception Bad_fd of fd

val create : unit -> t

val open_file : t -> Ramdisk.t -> name:string -> mode:[ `Read | `Create ] -> fd
(** [`Read] requires the file to exist (@raise Not_found otherwise);
    [`Create] starts an empty file written back on {!close}. *)

val socket_fd : t -> Uls_api.Sockets_api.stream -> fd
(** Register a connected socket (the interposed [socket]/[accept] path). *)

val read : t -> fd -> int -> string
(** The overloaded generic call: file reads advance the seek position
    and return [""] at end of file; socket reads are stream receives. *)

val write : t -> fd -> string -> unit
val close : t -> fd -> unit
(** Files opened [`Create] are flushed to the RAM disk; sockets are
    closed through the substrate (descriptor reclamation, §5.3).
    @raise Bad_fd on double close. *)
