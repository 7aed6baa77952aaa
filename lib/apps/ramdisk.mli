(** RAM-disk file system (§7.3: "to remove the effects of disk access
    and caching, we have RAM disks for this experiment"). Files live in
    memory; reads and writes still pay a per-call file-system overhead
    and a per-byte buffer-cache copy, which is why ftp cannot reach the
    raw socket bandwidth (the paper's "File System overhead"). *)

type t

val create : Uls_host.Node.t -> t

val write_file : t -> name:string -> string -> unit
(** Create or replace a file (charges FS costs). *)

val create_random : t -> name:string -> size:int -> seed:int -> unit
(** Populate a file with deterministic pseudo-random content, free of
    simulated cost (test fixture setup). *)

val exists : t -> string -> bool
val size : t -> string -> int option
val list : t -> string list

val read : t -> name:string -> off:int -> len:int -> string
(** Read up to [len] bytes at [off]; shorter at end of file; [""] past
    the end. Charges the FS call overhead plus the per-byte copy.
    @raise Not_found if the file does not exist. *)
