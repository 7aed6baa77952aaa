(** Fixed-width little-endian integer framing (8 bytes per integer) for
    the substrate's control messages and eager-data headers. *)

exception Protocol_error of string
(** A peer sent a message too short for the fields its kind carries.
    Raised instead of asserting so the failure names the connection (or
    listening port), the peer and the message kind. *)

val encode : int list -> string

val decode :
  Tags.kind -> owner:int -> peer:int -> len:int -> (int -> int64) -> int array
(** [decode kind ~owner ~peer ~len get] reads the fixed fields a [kind]
    message leads with (three for connection and rendezvous requests,
    two for a data header, one for every other control message) through
    [get], which returns the little-endian integer at a byte offset.
    [len] is the received length; bytes past the fields (a data
    message's payload) are not read.
    @raise Protocol_error when [len] is shorter than the fields, naming
    [owner] (the connection id, or the listening port for a connection
    request), the sending node [peer] and the kind. *)
