(** The serving driver: client fleets against the event-driven server
    runtime ({!Uls_server}), either one server or the sharded fabric
    ({!Uls_fabric.Fabric}), echo or HTTP, over either stack.

    A run is one spec with two independent axes:

    - {e topology}: where the servers start and how a client connects.
      [Server] starts one server on node 0, port 80, and clients connect
      to it directly. [Fabric] starts K cells behind the consistent-hash
      balancer (plus a health-probe node), and a client routes its flow
      key and connects to the owning cell, re-routing with backoff past
      the health checker's detection horizon when a connect fails, so a
      flow that arrived during a cell's blackout lands on a survivor
      once the ring heals. A [Fabric] cell may be killed (its node
      paused) or drained mid-load.
    - {e arrival}: when requests arrive. [Closed]: a connected pool
      where each connection issues its requests back to back, each after
      the previous response plus an optional exponential think time.
      [Pool rate]: a connected pool serving Poisson request arrivals at
      [rate] requests/s, latency measured from arrival, so queueing
      under overload shows. [Sessions rate]: Poisson connection
      arrivals at [rate] connections/s, each connecting, making its
      requests and closing; concurrency is emergent (rate x lifetime).

    Pools connect on a seeded ~150 us ramp, and requests start only once
    every connection arrived, so handshakes never compete with request
    traffic and [peak_open] proves how many were alive together. Every
    response is verified byte-exactly (patterned echo payloads,
    {!Uls_apps.Http.body_for} bodies). Runs are deterministic for a
    given seed and compose with the fault engine via [loss].

    Every offered request ends in exactly one bucket: completed, or
    lost with its connection as shed (server admission control),
    refused (connect-level), reset, error, or no-route. The report
    counts failed connections per bucket and per cell. *)

type workload = Echo | Http

type fabric = {
  cells : int;
      (** server cells (nodes 0..cells-1; the prober is node [cells]) *)
  shards : int;  (** SO_REUSEPORT shards per cell *)
  vnodes : int;  (** ring virtual nodes per cell *)
  kill : (int * Uls_engine.Time.ns) option;
      (** pause this cell's node (frames dropped both ways) from this
          virtual time until past the end of the run *)
  drain : (int * Uls_engine.Time.ns) option;
      (** gracefully drain this cell at this virtual time *)
}

type topology = Server | Fabric of fabric

type arrival =
  | Closed
  | Pool of float  (** request arrivals per second over a connected pool *)
  | Sessions of float  (** connection arrivals per second *)

type config = {
  kind : Cluster.stream;  (** which stack, and its options *)
  topology : topology;
  arrival : arrival;
  workload : workload;
  conns : int;
      (** the pool size ([Closed], [Pool]) or the session arrivals
          ([Sessions]) *)
  requests_per_conn : int;
      (** offered requests are [conns * requests_per_conn] under every
          arrival *)
  size : int;  (** echo payload / HTTP response-body bytes *)
  think : float;
      (** mean think ns after each request ([Closed]) or between a
          session's requests ([Sessions]); 0 = none *)
  client_nodes : int;  (** clients spread over this many hosts *)
  backlog : int;
      (** listen backlog per server. Keep a fabric's modest: posted
          backlog descriptors sit in the NIC match list, so every RX
          frame pays O(backlog) walk cost on top of O(open conns) *)
  workers : int;  (** scheduler worker fibers per server shard *)
  max_inflight : int;  (** per-shard admission limit; 0 = unlimited *)
  seed : int;
  loss : float;  (** uniform frame-loss probability, 0 = clean *)
  match_engine : Uls_nic.Match_list.engine;
      (** NIC tag-match firmware on every node; [Linear] is the ablation
          reproducing the paper's O(descriptors) walk *)
  tiebreak : Uls_engine.Sim.tiebreak_spec option;
      (** simulator dispatch tie-break (the schedule explorer's hook) *)
}

val default : config
(** Closed-loop substrate echo against one server: 64 conns x 8
    requests of 512 B over [Options.server], 2 client nodes, backlog
    256, 4 workers, seed 42, no loss, hashed matching. *)

val fabric : fabric
(** 4 cells x 4 shards, 128 vnodes, no kill, no drain. *)

type cell_report = {
  c_state : string;  (** "up" / "draining" / "drained" / "down" *)
  c_connects : int;  (** connections established to this cell *)
  c_completed : int;  (** verified exchanges *)
  c_shed : int;  (** closed by admission control before first response *)
  c_refused : int;  (** connect-level failures attributed here *)
  c_resets : int;  (** typed mid-stream resets and read-deadline reaps *)
  c_errors : int;  (** anything else *)
  c_mismatches : int;
  c_server_requests : int;  (** served according to the server *)
  c_accepted : int;
  c_server_shed : int;  (** sheds counted by the cell's schedulers *)
  c_peak_inflight : int;  (** server-side peak open (shard-sum bound) *)
}

type report = {
  sent : int;  (** requests that reached a send *)
  established : int;
  completed : int;
  shed : int;  (** connections, as are the four buckets below *)
  refused : int;
  resets : int;
  errors : int;
  no_route : int;
      (** arrivals that still found an empty ring after every re-route *)
  mismatches : int;  (** responses that failed byte verification *)
  remapped : int;  (** served away from the pristine-ring home cell *)
  retried_ok : int;  (** connects that succeeded after >= 1 failure *)
  peak_open : int;  (** most connections simultaneously open, client side *)
  peak_cell_open : int;  (** max server-side cell peak *)
  healed_at_ms : float;  (** first cell Down transition; -1 if none *)
  drained_at_ms : float;  (** drain completion; -1 if none *)
  drain_open : int;  (** connections open when draining began *)
  lat : Latency.summary;
  per_cell : cell_report array;  (** one entry for [Server] *)
  transitions : (float * int * string * string) list;
      (** (ms, cell, state, cause), oldest first *)
  intact : bool;
      (** no mismatches and no no-route; refusals, resets and errors only
          on a killed cell; and every offered request in exactly one
          bucket, so none was left unsent *)
  completed_run : bool;  (** quiesced within the liveness bound *)
  events : int;  (** simulator events the run dispatched *)
  server_requests : int;
  evq_wakeups : int;
  evq_spurious : int;
  select_streams_scanned : int;
      (** the O(n) baseline's counter, for contrast *)
  doorbells : int;
      (** NIC doorbells rung on all nodes: host sends, receive posts
          (one per fill-ring batch and receive queue) and ring batches *)
}

val run :
  ?on_metrics:(Uls_engine.Metrics.t -> unit) ->
  ?on_server_close:(Uls_api.Sockets_api.stream -> unit) ->
  ?progress:int * (unit -> unit) ->
  config ->
  report
(** Build the cluster, start the servers, drive the arrival process,
    quiesce, and report. [on_metrics] sees the simulation's metrics
    registry after the run, while the cluster is still alive.
    [on_server_close] receives every server-side stream right after the
    server closed it (a leak check can hold them weakly). [progress =
    (n, f)] calls [f] from inside the run after every [n]th completed
    request, with the whole cluster live (the soak gate's sampling
    point). *)

val print_report : Format.formatter -> config -> report -> unit
(** A [Server] run prints the one-server report (its errors column
    counts resets too); a [Fabric] run adds the balancer's and every
    cell's lines. *)
