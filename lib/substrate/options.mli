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
          fill ring ([Endpoint.post_recv_batch]) instead of one
          [post_recv] per descriptor: a connection's set-up (its 2N+3
          descriptors, and on the client the connect reply slot), a
          listener's backlog, and the data slots a [readv] drain
          consumed. Transmit: every send a send pool posts (eager data,
          credit acks, connect request and reply, close, rendezvous
          request and grant) is a one-slot tx ring submission
          ([Endpoint.post_send ~ring:true]) instead of a mailbox post,
          which skips the NIC's per-message descriptor parse. Firmware:
          on this ring path the NIC overlaps work the paper firmware
          does in series. It builds each frame's header during the
          frame's payload DMA, and it completes a receive descriptor
          (each one the substrate posts is marked
          [Endpoint.post_recv ~ring:true]) before it builds the EMP ack.
          Off in the paper presets, whose per-call posting is the
          set-up cost §7.2 and §7.4 measure and whose sends keep the
          paper's mailbox path and serial firmware (Fig 11 and §7.2
          are calibrated on it); on in {!server}. *)
}

val header_bytes : int
(** Eager data-message header: [seq; piggybacked credits]. *)

val data_streaming : t
(** The paper's baseline DS configuration. *)

val data_streaming_enhanced : t
(** DS with all enhancements on: the paper's DS_DA_UQ configuration. *)

val server : t
(** DS_DA_UQ provisioned for thousands of concurrent connections: small
    credit counts and buffers keep the per-connection descriptor and
    memory footprint low (2N+3 descriptors each, §5.3), piggy-backed
    acks ride on request/response traffic, and the rings ([rx_ring])
    carry set-up, backlog and [readv] reposts, so a connection side
    rings one doorbell to post its descriptors, and every send as one
    fixed-format tx ring slot. *)

val datagram : t
(** The paper's DG configuration (§6.2). *)

val chunk_capacity : t -> int
(** Payload bytes per eager message: [buffer_size - header_bytes]. *)

val ack_threshold : t -> int
(** Consumed messages before a credit ack is due (1, or N/2 with
    delayed acks). *)

val mode_name : t -> string
