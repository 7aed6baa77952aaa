(** Epoll-style readiness engine.

    The portable sockets API only offers two ways to learn that a socket
    became ready: block in [recv]/[accept] (one fiber per socket), or
    [select] — an O(registered) scan of every stream on every wake-up.
    Neither survives thousands of connections. This engine is the third
    way: each registered socket installs a {e watcher} callback (the
    [watch]/[watch_accept] hooks both stacks now expose), readiness
    events push the socket's handle onto a ready queue, and {!wait}
    returns batches of ready payloads in O(ready) — work proportional to
    what happened, not to what is registered.

    Triggering follows epoll:

    - {e Level}: a handle is delivered as long as the socket is
      readable. After a batch is returned, any of its level handles
      still readable are re-armed on the next {!wait} (an O(batch)
      re-check, never a full scan). Level handles found unreadable at
      delivery time are dropped and counted as spurious.
    - {e Edge}: a handle is delivered once per readiness {e event};
      consumers must drain the socket or they will not hear about the
      remaining buffered data until the next event arrives.

    Everything runs inside the simulator's cooperative fibers, so no
    locking is needed; determinism is inherited from the engine.

    Metrics (per node): [server.evq.wakeups] (times {!wait} returned),
    [server.evq.ready_batch] (histogram of batch sizes),
    [server.evq.spurious] (handles delivered but found unreadable),
    [server.evq.registered] (gauge). Compare [server.evq.wakeups] ×
    batch size against [api.select_streams_scanned] to see the
    O(ready)-vs-O(n) gap. *)

type trigger = Level | Edge

type 'a t
(** An event queue delivering payloads of type ['a]. *)

type 'a handle
(** One registered interest. *)

val create : Uls_engine.Sim.t -> node:int -> 'a t

val register :
  'a t ->
  ?mode:trigger ->
  readable:(unit -> bool) ->
  watch:((unit -> unit) -> unit) ->
  'a ->
  'a handle
(** [register q ~readable ~watch payload] installs a watcher via [watch]
    and returns the handle. If the socket is already readable the handle
    is queued immediately (like epoll delivering on [EPOLL_CTL_ADD]).
    [mode] defaults to [Level]. The watcher persists for the socket's
    life — {!deregister} disarms the handle, it cannot uninstall the
    callback — so registering the same socket twice doubles its event
    load; don't. *)

val deregister : 'a handle -> unit
(** Disarm: subsequent events are ignored and a queued-but-undelivered
    handle is silently discarded at the next {!wait}. Idempotent. *)

val registered : 'a t -> int

val wait : 'a t -> 'a list
(** Block until at least one handle is ready (or {!kick}), then return
    the ready batch's payloads, oldest event first. Returns [[]] only
    after {!kick} — the shutdown path. Must be called from a fiber; the
    engine expects a single consumer fiber. *)

val kick : 'a t -> unit
(** Wake a blocked {!wait} even with nothing ready (it returns [[]]).
    Lets the consumer loop observe a stop flag. *)
