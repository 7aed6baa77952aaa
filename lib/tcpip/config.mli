(** The kernel stack's socket buffers, and the constants of the stock
    Linux 2.4.18 TCP of the paper. [default] is its 16 KB buffers; §7.2
    tunes them upward, which experiments do via [with_buffers]. *)

type t = {
  sndbuf : int;
  rcvbuf : int;
}

val default : t

val with_buffers : int -> t
(** [sndbuf] and [rcvbuf] both set to the given size. *)

val min_rto : Uls_engine.Time.ns
val delack_timeout : Uls_engine.Time.ns

val ack_every : int
(** Ack after this many full segments. *)

val persist_interval : Uls_engine.Time.ns
(** Zero-window probe period. *)

val time_wait : Uls_engine.Time.ns

val initial_cwnd_segments : int
(** Linux 2.4: 2. Every connection runs slow start and congestion
    avoidance from this window. *)

val rx_coalesce : Uls_engine.Time.ns
(** NIC interrupt coalescing delay ... *)

val rx_coalesce_frames : int
(** ... or after this many frames. *)

val dead_rto_abort : Uls_engine.Time.ns
(** Unbroken retransmission silence — zero cumulative-ack progress —
    tolerated before the connection aborts with a typed reset (the
    tcp_retries2 analogue). A duration, not a rewind count: with
    exponential RTO growing from [min_rto], a count would make the
    budget collapse to a few milliseconds and abort connections that
    are merely queued behind a busy peer. *)

val synack_retries : int
(** SYN|ACK retransmissions (with exponential backoff) before a
    half-open connection is quietly dropped (tcp_synack_retries). *)
