(** One substrate connection: N pre-posted data descriptors over credit
    buffers (eager scheme, §5.2), ack descriptors or unexpected-queue
    ack consumption (§6.4), rendezvous request/grant/data descriptors,
    and the "closed" control descriptor (§5.3). Every descriptor, and
    every credit ack arriving in the unexpected queue, completes into a
    serial handler ({!Uls_engine.Serial}) that holds a fiber only while
    it reaps: the data descriptors in posting order, the others one
    slot each. Send side implements
    credit-based flow control with delayed and piggy-backed
    acknowledgments (§6.1–6.3), plus the paper's rejected alternatives
    (pure rendezvous, separate communication thread, blocking send) for
    the ablation studies. *)

type env = {
  node : Uls_host.Node.t;
  emp : Uls_emp.Endpoint.t;
  opts : Options.t;
  ctrl_pool : Sendpool.t;  (** registered ring for small control messages *)
  notify : unit -> unit;  (** substrate activity hook for select() *)
  release : t -> unit;
      (** drop from the active-socket table (close and reset; must be
          idempotent) *)
  mh : handles;
  trace : Uls_engine.Trace.t;
  inv : Uls_engine.Invariant.t;
}
(** What every connection of one node shares: built once per node. *)

and slot = {
  sl_region : Uls_host.Memory.region;
  mutable sl_current : Uls_emp.Endpoint.recv option;
}
(** A receive buffer with its currently posted descriptor (also used by
    the listener's backlog descriptors). *)

and handles
(** The node's substrate metric cells. *)

and t

val handles : Uls_host.Node.t -> handles
(** Resolve the node's substrate metric cells in its sim's registry. *)

val alloc_slot : Uls_host.Node.t -> int -> slot
(** A slot over a fresh buffer of the given size, pinned once here so
    that posting it later pays no pin system call. *)

val post_slot :
  ?on_complete:(Uls_emp.Endpoint.recv -> int -> unit) ->
  Uls_emp.Endpoint.t -> slot -> src:int -> tag:int -> Uls_emp.Endpoint.recv
(** Post the slot's whole buffer as one receive descriptor
    ({!Uls_emp.Endpoint.post_recv}) and record it as the slot's current
    descriptor. *)

val unpost_slot : Uls_emp.Endpoint.t -> slot -> unit
(** Cancel the slot's current descriptor, if any. *)

val take_back : Uls_emp.Endpoint.t -> slot -> unit
(** {!unpost_slot}, and drop the slot's region from the pin table: what
    a closed owner does with a slot it gives up. *)

type posting = {
  slot : slot;
  src : int;  (** the node its messages come from, [-1] for any *)
  tag : int;
  hook : (Uls_emp.Endpoint.recv -> int -> unit) option;
      (** the descriptor's completion hook *)
  posted : slot -> Uls_emp.Endpoint.recv -> unit;
      (** run with the slot and its descriptor once the descriptor stays
          posted; it may find the descriptor already complete *)
}
(** One receive slot to post. *)

val post_slots :
  Uls_emp.Endpoint.t -> live:(unit -> bool) -> posting list -> unit
(** Post each slot's whole buffer for an owner alive while [live ()]
    holds, in order. On a [Ring] endpoint the descriptors go through
    its fill ring in one batch ({!Uls_emp.Endpoint.post_recv_batch}:
    one host post, and one doorbell per involved receive queue);
    otherwise one {!Uls_emp.Endpoint.post_recv} each, skipped once the
    owner has died. A descriptor posted after its owner died is taken
    back ({!take_back}) instead of running [posted]. Connection set-up,
    the listener's backlog and a stash of two or more consumed slots
    ({!read}) all post through here. *)

val is_done : slot * Uls_emp.Endpoint.recv -> bool
(** The descriptor has completed: an ordered handler's readiness test
    over posted (slot, descriptor) pairs. *)

val create :
  env ->
  id:int ->
  peer_node:int ->
  peer_conn:int ->
  local_addr:Uls_api.Sockets_api.addr ->
  peer_addr:Uls_api.Sockets_api.addr ->
  t
(** Builds the connection, posting nothing yet ({!provision}).
    [peer_conn] may be [-1] until {!set_peer} (client side). *)

val provision : ?reply:slot -> t -> unit
(** Posts all of the connection's descriptors (the 2N+3 provisioning
    of §6.1, N+3 under {!Options.t.unexpected_queue}), and [reply], the
    client's connect reply slot, after them: in one fill-ring batch
    with {!Options.t.rx_ring}, else one post each ({!post_slots}). No
    fiber parks on them: a completion kicks its serial handler, which
    reposts every slot but the close slot. The substrate lists the
    connection in its active-socket table only after this returns, so
    no close or reset can land during the post. *)

val uq_ack_arrived : t -> unit
(** A credit ack for this connection completed into the EMP unexpected
    queue (§6.4). Unless the connection is closed, reset, or already
    consuming, kicks its [sub-uq-ack] handler, which takes every queued
    ack of the connection in arrival order, then exits. Must not block:
    the substrate calls it from the endpoint's unexpected-queue hook. *)

val id : t -> int
val local_addr : t -> Uls_api.Sockets_api.addr
val peer_addr : t -> Uls_api.Sockets_api.addr
val peer_node : t -> int
val peer_conn : t -> int
(** Peer-side connection id; [-1] until {!set_peer}. The substrate's
    send-failure handler uses [(peer_node, peer_conn)] to route a failed
    send's tag back to its connection. *)

val set_peer : t -> conn:int -> addr:Uls_api.Sockets_api.addr -> unit
(** Record the peer's connection (client side, from the connect reply).
    A connection closed before it heard the reply sends its "closed"
    message now, so the peer's side does not stay open. *)

val write : t -> string -> unit
(** Blocking send honouring the configured scheme (eager+credits,
    rendezvous, or comm-thread). Under [Options.rx_ring] it then
    returns the connection's stash (below), after the send's doorbell.
    @raise Uls_api.Sockets_api.Connection_closed *)

val read : t -> int -> string
(** Blocking receive: byte-stream semantics in data-streaming mode,
    whole-message semantics in datagram mode; [""] at end of stream.
    Under [Options.rx_ring] a consumed message's slot is not reposted
    inside the read: it joins the connection's stash, which goes back
    to the NIC (then its credits to the peer) at the next {!write} or
    {!writev}, before a read blocks, once it reaches the ack threshold,
    or when the piggyback holdoff fires. {!close} and {!mark_reset}
    drop it unposted. Paper presets repost inside the read. *)

val writev : t -> string list -> unit
(** Gathered write: stages up to a send-pool's worth of single-chunk
    eager messages and posts them through the endpoint's tx ring under
    one doorbell ({!Uls_emp.Endpoint.post_sendv}); substrate
    bookkeeping ([write_overhead]) is paid once per call. Messages that
    cannot ride a batch (rendezvous-sized, blocking-send or comm-thread
    schemes) flush what is staged — preserving FIFO order — and take the
    per-call path. [writev t [m]] is byte-identical to [write t m];
    like it, it returns the stash ({!read}) after its last doorbell. *)

val readv : t -> max:int -> string list
(** Batched read: blocks for the first available item, then drains every
    consecutive ready message (up to [max]) without further blocking.
    Each element is one whole message (datagram) or the remaining bytes
    of the next message (streaming). With [Options.rx_ring] set, the
    consumed data slots gather on the stash ({!read}) and are reposted
    at the end of the call, through the fill ring in one batch
    ({!Uls_emp.Endpoint.post_recv_batch}); otherwise reposting is
    per-message, exactly as {!read}. [[]] means end of stream. *)

val data_pool : t -> Sendpool.t
(** The connection's registered send ring. *)

val iter_regions : t -> (Uls_host.Memory.region -> unit) -> unit
(** Apply to every memory region the connection owns: receive slots,
    send ring, rendezvous buffers. {!close} and {!mark_reset} drop them
    all from the node's pin table. *)

val readable : t -> bool

val add_watcher : t -> (unit -> unit) -> unit
(** Register a readiness watcher: invoked on every event that may make
    {!read} non-blocking (data or rendezvous-request arrival, peer
    close, reset). Spurious invocations allowed; watchers persist for
    the connection's lifetime. The event engine's O(ready) wakeup path
    (vs the node-wide [select] activity broadcast). *)

val close : t -> unit
(** Sends the "closed" control message (sequence-numbered so it cannot
    overtake in-flight data), unposts every descriptor, leaves the
    active-socket table and unpins the connection's regions. The message is
    retransmitted with backoff if EMP exhausts its retries — a peer that
    never hears it would keep its descriptors posted forever. Idempotent. *)

val mark_reset : t -> unit
(** The transport gave up on a message of this connection (peer
    unreachable): unposts every descriptor, wakes all blocked fibers, and
    makes subsequent {!read}/{!write} raise
    [Uls_api.Sockets_api.Connection_reset]. Idempotent; no-op after
    {!close}. *)

val is_reset : t -> bool
val is_closed : t -> bool

val leaked_slots : t -> int
(** Receive slots whose descriptor is still posted. Meaningful after
    {!close}/{!mark_reset}, where any non-zero count is a descriptor
    leak — the analysis layer's leak sanitizer checks this. *)

val add_credits : t -> int -> unit
(** Restore send credits (the receive path's grant entry: piggy-backed
    header fields and credit-ack messages land here). The credit-range
    monitor ([sub.credit_range]) fires when a grant pushes credits past
    the provisioned window — a double-granted ack. Exposed so the
    sanitizer tests can inject exactly that known-bad grant. *)

val debug_leak_slot : t -> unit
(** Test fixture: re-post one receive slot as if {!close} had missed it,
    so the leak sanitizer has a real leaked descriptor to find. Must be
    called from a fiber. *)
