(** Connection scheduler: a fixed pool of worker fibers serving every
    connection of one listener, driven by the readiness engine.

    One dispatcher fiber blocks in {!Evq.wait}; the ready batch is fed
    into a FIFO run queue drained by [workers] worker fibers. Instead of
    one fiber per connection (the {!Uls_apps.Http.server} model — fine
    for three clients, hopeless for four thousand), fiber count is
    O(workers), and a connection only ever occupies memory proportional
    to its buffered data.

    Scheduling is fair by construction: a worker serves {e one} read
    chunk per dispatch, then requeues the connection at the {e tail} of
    the run queue if it still has buffered data — a hot connection
    pipelining megabytes cannot starve a neighbour that wants one
    request served.

    Backpressure has two stages. Admission control: beyond
    [max_inflight] open connections, new accepts are shed immediately
    (optional [reject] bytes, then close) so the server degrades by
    refusing work, not by collapsing. Flow control: workers write
    replies with the stream's own blocking [send], so a slow reader
    stalls (only) the workers serving it, and the substrate's credit
    scheme or TCP's window pushes back on the sender.

    Metrics (per node): [server.sched.accepts], [server.sched.shed],
    [server.sched.closes], [server.sched.dispatches],
    [server.sched.embryo_closed] (half-open orphans swept),
    [server.listener.backlog] (gauge: requests queued behind accept). *)

type reaction = {
  replies : string list;  (** written in order with the stream's [send] *)
  close : bool;  (** close the connection after the replies *)
}

(** Per-connection protocol logic: [handler peer] runs once per accepted
    connection and returns its state machine — a function from one read
    chunk to a {!reaction}. A raised exception closes the connection. *)
type handler = Uls_api.Sockets_api.addr -> string -> reaction

type config = {
  workers : int;
  accept_batch : int;  (** max accepts drained per readiness event *)
  max_inflight : int;  (** admission limit: open connections *)
  reject : string option;  (** sent (best-effort) before a shed close *)
  embryo_timeout : int;
      (** close accepted connections that never deliver a first byte
          within this many ns — the SYN_RCVD-timer analogue. A client
          whose connect raced a timeout abandons the handshake after the
          server has already built the connection; without this sweep
          each such half-open orphan pins an [max_inflight] slot (and
          its posted descriptors) forever, and a shard that collects
          enough of them stops accepting entirely. *)
}

val default_config : config
(** 4 workers, accept batches of 16, unlimited inflight, silent shed,
    2 s embryo timeout. *)

type t

val start :
  Uls_engine.Sim.t ->
  node:int ->
  ?config:config ->
  listener:Uls_api.Sockets_api.listener ->
  handler:handler ->
  unit ->
  t
(** Spawn the dispatcher and worker fibers and start serving. *)

val inflight : t -> int
(** Currently open connections. *)

val peak_inflight : t -> int
(** High-water mark of {!inflight} over the scheduler's life — the
    witness that a fabric cell never crossed the NIC match-walk
    collapse threshold. *)

val accepted : t -> int
val shed : t -> int
(** Connections accepted and shed on the scheduler's node: the node's
    [server.sched.accepts] and [server.sched.shed] counters, which every
    scheduler on the node shares. *)

val stop : t -> unit
(** Close the listener, stop dispatcher and workers, close every open
    connection. Idempotent. *)
