(** The kernel stack's socket buffers, and the constants of the stock
    Linux 2.4.18 TCP of the paper. [default] is its 16 KB buffers; §7.2
    tunes them upward, which experiments do via [with_buffers]. *)

type t = {
  sndbuf : int;
  rcvbuf : int;
}

let default = { sndbuf = 16_384; rcvbuf = 16_384 }
let with_buffers bytes = { sndbuf = bytes; rcvbuf = bytes }
let min_rto = Uls_engine.Time.ms 1
let delack_timeout = Uls_engine.Time.us 200
let ack_every = 2
let persist_interval = Uls_engine.Time.ms 5
let time_wait = Uls_engine.Time.ms 1
let initial_cwnd_segments = 2
let rx_coalesce = Uls_engine.Time.us 60
let rx_coalesce_frames = 8

(* 2 s of unbroken silence is ~10 cap-level RTOs — far past the
   queueing delay a saturated-but-alive peer produces, but finite, so a
   dead peer yields Connection_reset, not a hung run. The SYN|ACK budget
   backs off 1 ms -> 200 ms, ~1 s total. *)
let dead_rto_abort = Uls_engine.Time.s 2
let synack_retries = 12
