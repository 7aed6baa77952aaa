(** Wire format of NIC-forwarded collective frames: a dedicated
    {!Uls_ether.Frame.payload} constructor ([Coll]), small enough that
    the firmware can re-emit one from a forward-on-match descriptor
    without host help. *)

type Uls_ether.Frame.payload +=
  | Coll of { tag : int; body : string }
        (** A NIC-forwarded collective frame. [tag] disambiguates
            operation instances; [body] is the (possibly empty) payload
            carried down the tree. *)

val max_body : int
(** Largest body a single [Coll] frame can carry (MTU minus a 16-byte
    header). NIC-forwarded broadcast falls back to a host algorithm
    above this. *)

val frame :
  src:int -> dst:int -> tag:int -> string -> Uls_ether.Frame.t
(** Build a [Coll] frame. @raise Invalid_argument if the body exceeds
    {!max_body}. *)

val classify : Uls_ether.Frame.t -> (int * int) option
(** [(src, tag)] for [Coll] frames, [None] for everything else — exactly
    the shape {!Uls_nic.Tigon.set_coll_classifier} expects. *)

val body : Uls_ether.Frame.t -> string
(** Payload of a [Coll] frame. *)
