(** One EMP endpoint: the user-space host library plus the NIC-resident
    firmware protocol of EMP (§2 of the paper), running over a
    {!Uls_nic.Tigon} NIC.

    Sends and receives are descriptor-based and tag-matched on the NIC.
    A receive descriptor must be posted before (or shortly after) the
    message arrives; unmatched frames go to the unexpected queue if
    provisioned, otherwise they are dropped and recovered by sender
    retransmission. Completion of a send means every frame has been
    acknowledged by the receiving NIC (EMP is zero-copy: the user buffer
    is live until then). *)

type t

type config = {
  ack_window : int;  (** frames per protocol ack (paper: 4) *)
  tx_window : int;  (** max unacked frames in flight per message *)
  rto : Uls_engine.Time.ns;  (** initial retransmission timeout *)
  max_rto : Uls_engine.Time.ns;
      (** backoff ceiling for the doubling RTO. Must cover the worst-case
          receive-side queueing delay: under incast (many senders, one
          receiver) the receiving NIC serializes tag-match walks, and a
          ceiling below that delay turns congestion into spurious
          retransmission storms and eventually [Send_failed]. *)
  max_retries : int;
  use_nacks : bool;
      (** send a NACK frame when a receive gap is detected, so the
          sender rewinds immediately instead of waiting out its RTO *)
}

val default_config : config

(** How {!post_send} and {!post_recv} reach the NIC, fixed at {!create}
    (default [Paper]): the paper's mailbox and serial firmware, or the
    fixed-format rings and the firmware that overlaps per-frame work
    with the payload DMA. {!post_sendv} of two or more and
    {!post_recv_batch} use the rings in either mode. *)
type firmware = Paper | Ring

val create :
  ?config:config -> ?firmware:firmware -> Uls_host.Node.t -> Uls_nic.Tigon.t -> t
val node : t -> Uls_host.Node.t
val nic : t -> Uls_nic.Tigon.t
val node_id : t -> int
val sim : t -> Uls_engine.Sim.t
val config : t -> config
val firmware : t -> firmware

(** {1 Sending} *)

type send

exception Send_failed of { dst : int; tag : int; retries : int }

val post_send :
  t -> dst:int -> tag:int -> Uls_host.Memory.region -> off:int -> len:int -> send
(** Post a transmit descriptor (T1–T2: descriptor build, pin/translate
    via the OS translation cache, doorbell). Returns immediately; the
    NIC-side transmit proceeds concurrently. Caller must be a fiber.

    [Paper]: a mailbox descriptor, [emp_host_post] on the host and
    [nic_mailbox_fetch] + [nic_tx_per_msg] on the NIC's send core; each
    frame's payload is DMA'd, then its header built. [Ring]: a one-slot
    tx ring submission, [emp_host_post] + [ring_slot_post] on the host
    and [nic_doorbell_batch] + [nic_ring_slot_fetch] on the send core
    (the slot format subsumes the per-message parse); as in a
    {!post_sendv} batch, each frame's header ([nic_tx_per_frame]) is
    built during its payload DMA and the frame leaves when the later
    ends ({!Uls_nic.Tigon.dma_with_header}). Either way the post rings
    one doorbell, charges at submission and leaves no completion to
    reap (it never enters {!get_tx_ring}'s queues). *)

val send_done : send -> bool

val send_failed : send -> bool
(** The send exhausted its retries and was abandoned (the sanitizer's
    send-pool leak scan distinguishes failed from leaked slots). *)

val wait_send : t -> send -> unit
(** Block until fully acknowledged. @raise Send_failed after
    [max_retries] unacknowledged retransmission rounds. *)

(** {1 Batched submission (tx ring)} *)

val get_tx_ring :
  ?mode:Uls_rings.Ringpair.mode -> t -> (send, send) Uls_rings.Ringpair.t
(** The endpoint's submission/completion ring pair, created on first
    use. [mode] only applies at creation; later calls return the
    existing ring unchanged. *)

val post_sendv :
  t -> (int * int * Uls_host.Memory.region * int * int) list -> send list
(** Batched {!post_send}: each element is [(dst, tag, region, off,
    len)]. One [emp_host_post] and one doorbell cover the whole batch;
    each descriptor is a cached [ring_slot_post] write, fetched by the
    NIC under a single [nic_doorbell_batch] charge. A singleton list
    degenerates to {!post_send} exactly, in the endpoint's firmware mode
    (the batch=1 ablation is byte-identical to the per-call path).
    Caller must be a fiber.
    @raise Invalid_argument if any element's range falls outside its
    region, before anything is charged, pinned or submitted. *)

val reap_sent : ?max:int -> t -> send list
(** Drain completed ring sends from the completion ring in bulk
    ([emp_host_reap] for the first + [ring_reap_slot] each additional),
    non-blocking. Sends already accounted by {!wait_send} are filtered
    out. Returns [[]] when the endpoint never used the ring. *)

val tx_ring_stats : t -> Uls_rings.Ringpair.stats option

val set_send_failure_handler :
  t -> (dst:int -> tag:int -> retries:int -> unit) -> unit
(** Called (from the transmit fiber) whenever a posted send exhausts its
    retries, whether or not anyone is blocked in {!wait_send} — the
    substrate uses it to reset the owning connection. One handler per
    endpoint; default is a no-op. *)

(** {1 Receiving} *)

type recv

val post_recv :
  ?on_complete:(recv -> int -> unit) ->
  t ->
  src:int ->
  tag:int ->
  Uls_host.Memory.region ->
  off:int ->
  len:int ->
  recv
(** Post a receive descriptor ([src] and/or [tag] may be [-1] as a
    wildcard). If a matching message already sits complete in the
    unexpected queue it is consumed immediately (host-side copy).

    [on_complete r len] is called at the instant the descriptor [r]
    completes, with its length ([-1] for a cancelled one), right after
    any fiber blocked in {!wait_recv} on it has been scheduled to wake.
    It may run outside a fiber, so it must not block; it may spawn. The
    substrate's control descriptors use it to start one handler fiber
    per message instead of keeping one parked per connection.

    The post is charged the same in either mode. [Paper] keeps the
    paper firmware's order: per-frame work, DMA, ack, completion.
    [Ring] runs each frame's [nic_rx_per_frame] receive-core work during
    its payload DMA ({!Uls_nic.Tigon.dma_with_rx_work}), and completes
    the descriptor before it spends [nic_ack_gen] on the EMP ack: the
    host sees the completion [nic_ack_gen] sooner, the ack leaves at
    the same instant. A message that lands in the unexpected queue
    keeps the paper order. *)

val post_recv_batch :
  t ->
  (int
  * int
  * Uls_host.Memory.region
  * int
  * int
  * (recv -> int -> unit) option)
  list ->
  recv list
(** Batched {!post_recv} — the fill-ring path; elements are [(src, tag,
    region, off, len, on_complete)], [on_complete] being that
    descriptor's completion hook as in {!post_recv}. Descriptors are
    matchable immediately, exactly as with {!post_recv}; the batch
    amortizes the host post, the doorbell, and the NIC's descriptor
    fetch (one [nic_doorbell_batch] + k·[nic_ring_slot_fetch] per
    involved receive queue). Every descriptor is on the ring path, in
    either firmware mode. A singleton list degenerates exactly to a
    [Ring] endpoint's {!post_recv}.
    @raise Invalid_argument if any element's range falls outside its
    region, before anything is charged, pinned or posted. *)

val recv_done : recv -> bool
val wait_recv : t -> recv -> int * int * int
(** Block until the message has fully arrived; returns
    [(length, source node, tag)]. *)

val wait_recv_timeout : t -> recv -> Uls_engine.Time.ns -> (int * int * int) option
(** Like {!wait_recv} but gives up after the timeout (connection
    establishment uses this to detect refusal). The descriptor stays
    posted on [None]. *)

val unpost_recv : t -> recv -> bool
(** Remove a not-yet-matched descriptor (resource reclamation on socket
    close). Returns [false] if the descriptor already matched a message.
    A successfully cancelled receive completes with length [-1], so any
    fiber blocked in {!wait_recv} unwinds and can test for the sentinel. *)

(** {1 Unexpected queue} *)

val provision_unexpected : t -> slots:int -> size:int -> unit
(** Add NIC-managed unexpected-queue descriptors, each backed by a
    temporary host buffer of [size] bytes. Checked last in tag matching. *)

val uq_has_match :
  ?pred:(src:int -> tag:int -> bool) -> t -> src:int -> tag:int -> bool
(** A complete message matching [src]/[tag] (and [pred], if given) sits
    in the unexpected queue (a subsequent {!post_recv} would consume it
    immediately). *)

val set_unexpected_handler : t -> (src:int -> tag:int -> unit) -> unit
(** Called whenever a message completes into the unexpected queue, with
    its source node and tag, just before a descriptor posted while it
    was in flight takes it. It runs in the receive dispatcher, outside
    any application fiber, so it must not block; it may spawn. It may
    also discard the message ({!uq_take}), which no descriptor then
    takes. The substrate routes each arrival to the one connection (or
    the refusal handler) that owns its tag, and discards a close that
    no connection owns. One handler per endpoint; default is a
    no-op. *)

val uq_take : t -> pred:(src:int -> tag:int -> bool) -> (string * int * int) option
(** Remove the first complete unexpected-queue message satisfying [pred]
    and return [(payload, src, tag)], freeing its slot. The substrate's
    refusal handler uses this to answer connection requests aimed at
    ports nobody listens on, and its unexpected handler to drop closes
    for connections that are gone. *)

(** {1 Statistics} *)

type stats = {
  messages_sent : int;
  messages_received : int;
  frames_sent : int;
  frames_retransmitted : int;  (** resent after an RTO or a NACK rewind *)
  frames_dropped_no_descriptor : int;
  protocol_acks_sent : int;
  unexpected_queue_hits : int;
  nacks_sent : int;
  finished_retained : int;
      (** completed messages still remembered to re-ack duplicates: those
          at or above each sender's low-water mark *)
}

val stats : t -> stats
val posted_descriptors : t -> int

type desc_stats = {
  descs_posted : int;  (** receive descriptors ever posted *)
  descs_completed : int;
      (** completed deliveries, including the [-1] cancel sentinel *)
  descs_live : int;  (** still waiting on the match list *)
}

val descriptor_stats : t -> desc_stats
(** Conservation law checked by the descriptor-leak sanitizer: at
    quiescence [descs_posted = descs_completed + descs_live], and after
    every endpoint is closed [descs_live = 0]. *)
