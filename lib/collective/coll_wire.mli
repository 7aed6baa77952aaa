(** Wire format shared by every collective transport.

    Two layers live here:

    - a dedicated {!Uls_ether.Frame.payload} constructor for NIC-forwarded
      collective frames ([Coll]), small enough that the firmware can
      re-emit one from a forward-on-match descriptor without host help;
    - the host-side 16-byte [(tag, length)] framing used both to delimit
      collective messages on a byte stream and to pack per-rank entries
      into gather bundles. *)

type Uls_ether.Frame.payload +=
  | Coll of { tag : int; body : string }
        (** A NIC-forwarded collective frame. [tag] disambiguates
            operation instances; [body] is the (possibly empty) payload
            carried down the tree. *)

val header_bytes : int
(** Size of the [(tag, length)] header: 16 bytes. *)

val max_body : int
(** Largest body a single [Coll] frame can carry (MTU minus header).
    NIC-forwarded broadcast falls back to a host algorithm above this. *)

val frame :
  src:int -> dst:int -> tag:int -> string -> Uls_ether.Frame.t
(** Build a [Coll] frame. @raise Invalid_argument if the body exceeds
    {!max_body}. *)

val classify : Uls_ether.Frame.t -> (int * int) option
(** [(src, tag)] for [Coll] frames, [None] for everything else — exactly
    the shape {!Uls_nic.Tigon.set_coll_classifier} expects. *)

val body : Uls_ether.Frame.t -> string
(** Payload of a [Coll] frame. *)

(** {1 Host-side framing} *)

val encode_header : tag:int -> len:int -> string
val decode_header : string -> int * int

val pack : (int * string) list -> string
(** Pack [(rank, data)] entries into one bundle string. *)

val unpack : string -> (int * string) list
(** Inverse of {!pack}. @raise Invalid_argument on a malformed bundle. *)
