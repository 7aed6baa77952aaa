(** Wire types of the kernel stack: IP fragments carrying typed TCP/UDP
    payloads. Sizes are modelled byte-accurately ([bytes] functions);
    contents stay typed so no serialisation code is needed. *)

type flags = {
  syn : bool;
  ack : bool;
  fin : bool;
  rst : bool;
}

val flag : ?syn:bool -> ?ack:bool -> ?fin:bool -> ?rst:bool -> unit -> flags

type tcp_segment = {
  src_port : int;
  dst_port : int;
  seq : int;
  ack_no : int;
  flags : flags;
  wnd : int;  (** advertised receive window, bytes *)
  data : string;
}

type udp_datagram = {
  u_src_port : int;
  u_dst_port : int;
  u_data : string;
}

type ip_payload =
  | Tcp of tcp_segment
  | Udp of udp_datagram

val ip_header_bytes : int

val payload_bytes : ip_payload -> int
(** L3 payload size including the L4 header. *)

(** IP fragments: the first fragment carries the typed payload; later
    fragments only account for bytes. Reassembly completes when all
    bytes of an (src, id) datagram have arrived — so the loss of any
    fragment drops the datagram, as real IP reassembly does. *)
type Uls_ether.Frame.payload +=
  | Ip_first of {
      ip_id : int;
      total_bytes : int;  (** L3 payload bytes of the whole datagram *)
      carried : int;  (** payload bytes in this fragment *)
      payload : ip_payload;
    }
  | Ip_cont of {
      ip_id : int;
      carried : int;
    }

val max_fragment_payload : int

val mss : int
(** TCP MSS: a full segment exactly fills one Ethernet frame. *)
