(** Fleet-scale load driver for the sharded serving fabric
    ({!Uls_fabric.Fabric}): 10^4–10^5 client connections arriving
    open-loop across many client hosts, balanced over K server cells,
    with optional mid-load cell kill or drain.

    Where {!Load} drives one server with a fixed fleet, [Fleet] drives
    the whole fabric with a {e Poisson connection-arrival process} at
    [rate] connections/s: each arrival routes its flow key on the
    consistent-hash ring, connects to the owning cell, performs
    [requests_per_conn] byte-verified echo exchanges (optional
    exponential think between them), and closes. Concurrency is
    emergent — [rate] x connection lifetime — which is how the run
    sustains 10^5 total connections while every cell's peak open stays
    far below the EMP match-walk collapse (EXPERIMENTS.md).

    Connect failures re-route and retry with backoff spanning the
    health checker's detection horizon, so flows arriving during a
    cell's blackout land on survivors once the ring heals. The report
    separates, per cell and fleet-wide:

    - [completed] verified exchanges vs [mismatches];
    - [shed] (server admission control), [refused] (terminal
      connect-level failure), [resets] (typed mid-stream
      {!Uls_api.Sockets_api.Connection_reset}), [errors] (anything
      else);
    - [remapped] — connections served away from their pristine-ring
      home cell, the minimal-disruption witness (~1/K after one kill);
    - ring-heal and drain-completion timestamps from the fabric's
      transition log.

    [intact] holds when bytes verified, routing never emptied, every
    established connection's requests are accounted for, and failures
    (resets / terminal refusals) appear only on a killed cell. Runs are
    deterministic for a given seed over both stacks. *)

type config = {
  kind : Cluster.stream;  (** which stack, and its options *)
  cells : int;  (** server cells (nodes 0..cells-1) *)
  shards : int;  (** SO_REUSEPORT shards per cell *)
  conns : int;  (** total connection arrivals over the run *)
  requests_per_conn : int;
  size : int;  (** echo payload bytes *)
  rate : float;  (** connection arrivals per second, fleet-wide *)
  think : float;  (** mean think ns between a conn's requests *)
  client_nodes : int;  (** arrivals spread over this many client hosts *)
  seed : int;
  loss : float;  (** uniform frame-loss probability *)
  max_inflight : int;  (** per-shard admission limit; 0 = unlimited *)
  backlog : int;
      (** per-cell listen backlog. Keep it modest: posted backlog
          descriptors sit in the NIC match list, so every RX frame pays
          O(backlog) walk cost on top of O(open conns) *)
  vnodes : int;  (** ring virtual nodes per cell *)
  kill : (int * Uls_engine.Time.ns) option;
      (** pause this cell's node (frames dropped both ways) from this
          virtual time until past the end of the run *)
  drain : (int * Uls_engine.Time.ns) option;
      (** gracefully drain this cell at this virtual time *)
  tiebreak : Uls_engine.Sim.tiebreak_spec option;
      (** simulator dispatch tie-break (race-detector hook) *)
  match_engine : Uls_nic.Match_list.engine;
      (** NIC tag-match firmware on every node; [Linear] is the ablation
          reproducing the paper's O(descriptors) walk *)
  event_sched : [ `Heap | `Wheel ];
      (** simulator event-queue implementation; dispatch order is
          identical either way (see {!Uls_engine.Sim.create}) *)
}

val default : config
(** Substrate echo: 4 cells x 4 shards, 512 arrivals at 4000/s,
    2 x 256 B requests each, 8 client nodes, seed 42, no chaos. *)

type cell_report = {
  c_state : string;  (** "up" / "draining" / "drained" / "down" *)
  c_connects : int;  (** connections established to this cell *)
  c_completed : int;  (** verified exchanges *)
  c_shed : int;  (** closed by admission control before first response *)
  c_refused : int;  (** terminal connect failures attributed here *)
  c_resets : int;  (** typed mid-stream resets *)
  c_errors : int;  (** anything else *)
  c_mismatches : int;
  c_server_requests : int;  (** chunks echoed, server-side *)
  c_accepted : int;
  c_server_shed : int;  (** sheds counted by the cell's schedulers *)
  c_peak_inflight : int;  (** server-side peak open (shard-sum bound) *)
}

type report = {
  cells : int;
  arrivals : int;  (** connection arrivals attempted *)
  established : int;
  completed : int;
  shed : int;
  refused : int;
  resets : int;
  errors : int;
  mismatches : int;
  no_route : int;  (** arrivals that still found an empty ring after
                       exhausting every re-route retry *)
  remapped : int;  (** served away from the pristine-ring home cell *)
  retried_ok : int;  (** connects that succeeded after >= 1 failure *)
  peak_open : int;  (** fleet-wide client-side concurrent peak *)
  peak_cell_open : int;  (** max server-side cell peak — the < 4096 witness *)
  healed_at_ms : float;  (** first cell Down transition; -1 if none *)
  drained_at_ms : float;  (** drain completion; -1 if none *)
  drain_open : int;  (** connections open when draining began *)
  lat : Latency.summary;
  per_cell : cell_report array;
  transitions : (float * int * string * string) list;
      (** (ms, cell, state, cause), oldest first *)
  intact : bool;
  completed_run : bool;
  events : int;  (** simulator events the run dispatched *)
}

val liveness_bound : conns:int -> Uls_engine.Time.ns
(** Virtual-time hang bound, scaled with fleet size plus failover
    headroom. *)

val run :
  ?on_metrics:(Uls_engine.Metrics.t -> unit) ->
  ?on_server_close:(Uls_api.Sockets_api.stream -> unit) ->
  config ->
  report
(** Build the cluster (cells, one probe node, client hosts), start the
    fabric, drive the arrival process, quiesce, and report.
    [on_metrics] runs after the run, while the cluster is still alive.
    [on_server_close] receives every server-side stream right after the
    server closed it (a leak check can hold them weakly). *)

val print_report : Format.formatter -> config -> report -> unit
