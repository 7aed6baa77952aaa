(** EMP frame formats. A message is fragmented into MTU-sized data frames
    identified by (sender, message id, frame index); receivers return
    cumulative acknowledgment frames. These protocol acks are NIC-level
    (reliability) — distinct from the substrate's flow-control acks,
    which travel as ordinary tagged EMP {e messages}. *)

type msg_key = {
  src_node : int;
  msg_id : int;
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
  chunk : string;  (** the payload bytes this frame carries *)
}

type Uls_ether.Frame.payload +=
  | Data of data
  | Ack of { key : msg_key; acked : int (** cumulative frames received *) }
  | Nack of { key : msg_key; next_expected : int }

val max_data_per_frame : int
val frames_for : int -> int
(** Number of frames needed for a message of the given byte length
    (at least 1: zero-length messages still send a header frame). *)

val data_frame : src:int -> dst:int -> data -> Uls_ether.Frame.t
val ack_frame : src:int -> dst:int -> key:msg_key -> acked:int -> Uls_ether.Frame.t
val nack_frame : src:int -> dst:int -> key:msg_key -> next_expected:int -> Uls_ether.Frame.t
