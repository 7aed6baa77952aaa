(** 16-bit EMP tag layout used by the substrate: a 4-bit message kind and
    a 12-bit connection id (or listening port for connection requests).
    NIC-level tag matching thus separates connection management from
    data, and connection from connection — §5.1's "data message
    exchange" scheme. *)

type kind =
  | Conn_request  (** low bits: listening port *)
  | Conn_reply  (** low bits: client connection id *)
  | Data
  | Credit_ack
  | Rdvz_request
  | Rdvz_grant
  | Rdvz_data
  | Close

val kind_name : kind -> string

val max_id : int
(** Largest connection id / port a tag can carry (0xFFF). *)

val make : kind -> int -> int
(** [make kind id] packs a tag. @raise Invalid_argument when [id] is out
    of range. *)

val split : int -> kind * int
