(** One substrate connection: N pre-posted data descriptors over credit
    buffers (eager scheme, §5.2), ack descriptors or unexpected-queue
    ack consumption (§6.4), rendezvous request/grant/data descriptors,
    and the "closed" control descriptor (§5.3). A receive fiber reaps
    the data descriptors in posting order; the ack, request, grant and
    close descriptors complete into one-shot handler fibers. Send side implements
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
}

and slot = {
  sl_region : Uls_host.Memory.region;
  mutable sl_current : Uls_emp.Endpoint.recv option;
}
(** A receive buffer with its currently posted descriptor (also used by
    the listener's backlog descriptors). *)

and t

val alloc_slot : Uls_host.Node.t -> int -> slot
(** A slot over a fresh buffer of the given size, pinned once here so
    that posting it later pays no pin system call. *)

val post_slot :
  ?on_complete:(Uls_emp.Endpoint.recv -> int -> unit) ->
  Uls_emp.Endpoint.t ->
  slot ->
  src:int ->
  tag:int ->
  Uls_emp.Endpoint.recv
(** Post the slot's whole buffer as one receive descriptor
    ({!Uls_emp.Endpoint.post_recv}) and record it as the slot's current
    descriptor. *)

val unpost_slot : Uls_emp.Endpoint.t -> slot -> unit
(** Cancel the slot's current descriptor, if any. *)

val create :
  env ->
  id:int ->
  peer_node:int ->
  peer_conn:int ->
  local_addr:Uls_api.Sockets_api.addr ->
  peer_addr:Uls_api.Sockets_api.addr ->
  t
(** Builds the connection and posts all of its descriptors (the 2N+3
    provisioning of §6.1); spawns its receive fiber, plus the
    unexpected-queue ack fiber under {!Options.t.unexpected_queue}.
    The credit-ack, rendezvous-request, grant and close descriptors
    park no fiber: each message on them spawns a one-shot handler
    fiber, which reposts every one of them but the close descriptor.
    [peer_conn] may be [-1] until {!set_peer} (client side). *)

val id : t -> int
val local_addr : t -> Uls_api.Sockets_api.addr
val peer_addr : t -> Uls_api.Sockets_api.addr
val peer_node : t -> int
val peer_conn : t -> int
(** Peer-side connection id; [-1] until {!set_peer}. The substrate's
    send-failure handler uses [(peer_node, peer_conn)] to route a failed
    send's tag back to its connection. *)

val set_peer : t -> conn:int -> addr:Uls_api.Sockets_api.addr -> unit

val write : t -> string -> unit
(** Blocking send honouring the configured scheme (eager+credits,
    rendezvous, or comm-thread). @raise Uls_api.Sockets_api.Connection_closed *)

val read : t -> int -> string
(** Blocking receive: byte-stream semantics in data-streaming mode,
    whole-message semantics in datagram mode; [""] at end of stream. *)

val writev : t -> string list -> unit
(** Gathered write: stages up to a send-pool's worth of single-chunk
    eager messages and posts them through the endpoint's tx ring under
    one doorbell ({!Uls_emp.Endpoint.post_sendv}); substrate
    bookkeeping ([write_overhead]) is paid once per call. Messages that
    cannot ride a batch (rendezvous-sized, blocking-send or comm-thread
    schemes) flush what is staged — preserving FIFO order — and take the
    per-call path. [writev t [m]] is byte-identical to [write t m]. *)

val readv : t -> max:int -> string list
(** Batched read: blocks for the first available item, then drains every
    consecutive ready message (up to [max]) without further blocking.
    Each element is one whole message (datagram) or the remaining bytes
    of the next message (streaming). With [Options.rx_ring] set, all
    consumed data slots are reposted through the fill ring in one batch
    ({!Uls_emp.Endpoint.post_recv_batch}); otherwise reposting is
    per-message, exactly as {!read}. [[]] means end of stream. *)

val data_pool : t -> Sendpool.t
(** The connection's registered send ring. *)

val regions : t -> Uls_host.Memory.region list
(** Every memory region the connection owns: receive slots, send ring,
    rendezvous buffers. {!close} and {!mark_reset} drop them all from
    the node's pin table. *)

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
