(** Substrate configuration: every design alternative and performance
    enhancement of §5–6 is a knob here, so the evaluation can ablate
    them exactly as the paper does (DS, DS_DA, DS_DA_UQ, DG, rendezvous
    vs eager, piggy-backed acks, credit size). *)

type mode =
  | Data_streaming  (** TCP semantics: reads may split message boundaries *)
  | Datagram  (** §6.2: boundaries preserved; zero-copy large messages *)

type scheme =
  | Eager  (** eager with credit-based flow control (§5.2, §6.1) *)
  | Rendezvous  (** request/grant synchronisation for every message *)
  | Comm_thread
      (** §5.2's first (rejected) alternative: a separate communication
          thread reposts descriptors as messages arrive. No credits or
          acks, but each message pays the ~20 us thread-synchronisation
          cost the paper measured, and an unresponsive reader exhausts
          the spare buffers (recovered by EMP retransmission). *)

type t = {
  mode : mode;
  scheme : scheme;
  credits : int;  (** N: outstanding unconsumed messages allowed *)
  buffer_size : int;  (** per-credit temporary buffer (paper: 64 KB) *)
  delayed_acks : bool;  (** §6.3: ack after N/2 consumed, not every one *)
  unexpected_queue : bool;  (** §6.4: ack buffers live in the EMP UQ *)
  piggyback : bool;  (** §6.1: fold credit returns into reverse data *)
  block_send : bool;
      (** §6.1's (rejected) "blocking the send" alternative: every write
          waits for the receiver's acknowledgment, costing a round trip
          per send but never deadlocking. *)
  comm_thread_sync : Uls_engine.Time.ns;
      (** per-message polling-thread synchronisation cost (paper: ~20 us) *)
  eager_max : int;  (** Datagram mode: larger writes use rendezvous *)
  write_overhead : Uls_engine.Time.ns;  (** substrate bookkeeping per write *)
  read_overhead : Uls_engine.Time.ns;
  connect_timeout : Uls_engine.Time.ns;
  connect_attempts : int;
      (** connection requests resent before giving up: the request (or
          its reply) can be lost on the wire, and connection setup has
          no EMP descriptor waiting on the server until [listen] ran.
          Each attempt doubles the previous wait (exponential backoff). *)
  backlog_request_bytes : int;
  rx_ring : bool;
      (** The rings, in both directions (the name predates the transmit
          side and stays: the benchmark's firehose sets it by name).
          Receive: batched descriptor posting through the endpoint's
          fill ring ([Endpoint.post_recv_batch]: one host post, one
          doorbell and one descriptor-fetch batch per receive queue)
          instead of one [post_recv] per descriptor. It carries a
          connection's set-up (its 2N+3 descriptors, and on the client
          the connect reply slot), a listener's backlog, and the data
          slots a [readv] drain consumed. Transmit: every send a send
          pool posts (eager data and the control messages) is a one-slot
          tx ring submission ([Endpoint.post_send ~ring:true]) instead
          of a mailbox post. Firmware: on this ring path the NIC builds
          each frame's header during its payload DMA, and completes a
          receive descriptor (every one the substrate posts carries
          [~ring:true]) before it builds the EMP ack. Off in the paper
          presets, whose per-call posting is the set-up cost §7.2 and
          §7.4 measure and whose mailbox sends and serial firmware are
          the NIC occupancy §2 describes. *)
}

let header_bytes = 16
(** Eager data-message header: [seq; piggybacked credits]. *)

let data_streaming =
  {
    mode = Data_streaming;
    scheme = Eager;
    credits = 32;
    buffer_size = 65_536;
    delayed_acks = false;
    unexpected_queue = false;
    piggyback = false;
    block_send = false;
    comm_thread_sync = 20_000;
    eager_max = max_int;
    write_overhead = 1_500;
    read_overhead = 1_800;
    connect_timeout = Uls_engine.Time.ms 50;
    connect_attempts = 4;
    backlog_request_bytes = 64;
    rx_ring = false;
  }

(** DS with all enhancements on: the paper's DS_DA_UQ configuration. *)
let data_streaming_enhanced =
  { data_streaming with delayed_acks = true; unexpected_queue = true }

(** Serving configuration: DS with every enhancement on, but provisioned
    for thousands of concurrent connections rather than two bulk
    streams. Small credit counts and buffers keep the per-connection
    descriptor and memory footprint low (2N+3 descriptors each, §5.3),
    and piggy-backed acks matter more than ever: request/response
    traffic always has a reverse write to carry credits, so explicit
    ack messages (and their unexpected-queue walks) mostly vanish.
    Connection churn pays set-up on every session, so the fill ring
    carries set-up, backlog and [readv] reposts: one doorbell per
    connection side instead of one per descriptor. Every send is one
    tx ring slot, which spares the NIC's send core the per-message
    descriptor parse. *)
let server =
  {
    data_streaming_enhanced with
    credits = 4;
    buffer_size = 2_048;
    piggyback = true;
    rx_ring = true;
  }

let datagram =
  {
    data_streaming with
    mode = Datagram;
    delayed_acks = true;
    unexpected_queue = true;
    eager_max = 16_384;
    write_overhead = 300;
    read_overhead = 400;
  }

let chunk_capacity t = t.buffer_size - header_bytes

let ack_threshold t =
  (* Blocking sends need an ack per message to make progress. *)
  if t.block_send then 1
  else if t.delayed_acks then max 1 (t.credits / 2)
  else 1

let mode_name t =
  match t.mode with Data_streaming -> "DS" | Datagram -> "DG"
