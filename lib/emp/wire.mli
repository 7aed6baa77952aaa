(** EMP frame formats. A message is fragmented into MTU-sized data frames
    identified by (sender, message id, frame index); receivers return
    cumulative acknowledgments. These protocol acks are NIC-level
    (reliability) — distinct from the substrate's flow-control acks,
    which travel as ordinary tagged EMP {e messages}. *)

type msg_key = {
  src_node : int;
  msg_id : int;
}

(** One cumulative acknowledgment: the first [acked] frames of message
    [key] have arrived. It travels to [key.src_node], which is the
    frame's destination, so on the wire it takes 8 bytes: the 32-bit
    message id and the 32-bit frame count. *)
type ack = {
  key : msg_key;
  acked : int;
}

type data = {
  key : msg_key;
  tag : int;  (** 16-bit user tag used for NIC matching *)
  frame_idx : int;
  nframes : int;
  total_len : int;
  lwm : int;
      (** the sender's low-water mark toward this destination: the
          lowest message id it still has unacknowledged there. Every
          lower id is settled, so the receiver may forget it. Carried in
          the fixed header: it adds no wire bytes. *)
  acks : ack list;
      (** acks piggybacked for messages this frame's destination sent to
          its source (the ring firmware's held acks), oldest first:
          8 bytes each after the fixed header, a spare header byte
          counting them *)
  chunk : string;  (** the payload bytes this frame carries *)
}

type Uls_ether.Frame.payload +=
  | Data of data
  | Ack of ack list
      (** one or more acks: the fixed header carries the first, and each
          further one adds 8 bytes *)
  | Nack of { key : msg_key; next_expected : int }

val header_bytes : int
(** EMP's fixed frame header: 24 bytes, ahead of any carried acks and
    the payload. *)

val max_data_per_frame : int
val frames_for : int -> int
(** Number of frames needed for a message of the given byte length
    (at least 1: zero-length messages still send a header frame). *)

val acks_that_fit : chunk:int -> int
(** How many piggybacked acks a data frame with a [chunk]-byte payload
    has room for within the MTU (none in a full frame). *)

val max_acks_per_frame : int
(** How many acks one {!ack_frame} holds at most. *)

val data_frame : src:int -> dst:int -> data -> Uls_ether.Frame.t
val ack_frame : src:int -> dst:int -> ack list -> Uls_ether.Frame.t
val nack_frame : src:int -> dst:int -> key:msg_key -> next_expected:int -> Uls_ether.Frame.t
