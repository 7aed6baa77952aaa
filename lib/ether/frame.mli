(** Ethernet frames. The payload is an extensible variant so that upper
    layers (EMP, IP) can ride the same wire model without this library
    depending on them. Sizes are modelled, not serialised: [payload_len]
    is the number of payload bytes the frame occupies on the wire. *)

type payload = ..
type payload += Raw

type t = {
  src : int;  (** source station (node id; the switch learns these) *)
  dst : int;  (** destination station *)
  payload_len : int;  (** bytes of L2 payload (includes upper headers) *)
  payload : payload;
  corrupted : bool;
      (** payload bytes were damaged in flight; the receiving NIC's FCS
          check will discard the frame (fault injection only) *)
}

val mtu : int
(** Maximum L2 payload: 1500 bytes. *)

val make : src:int -> dst:int -> payload_len:int -> payload -> t
(** @raise Invalid_argument if [payload_len] exceeds {!mtu}. Frames are
    born uncorrupted. *)

val corrupt : t -> t
(** The same frame with damaged payload bytes (a bad FCS on arrival). *)

val corrupted : t -> bool

val wire_bytes : t -> int
(** Total wire occupancy in bytes, including padding to the 64-byte
    minimum frame, header, FCS, preamble and IFG. *)
