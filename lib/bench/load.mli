(** Load generator for the event-driven server runtime ({!Uls_server}):
    client fleets of hundreds to thousands of connections against one
    server node, echo or HTTP, over either stack.

    Two driving disciplines:

    - {e Closed loop}: each connection issues [requests_per_conn]
      requests back-to-back, each after the previous response (plus an
      optional exponential think time). Offered load tracks service
      capacity — the classic benchmark loop.
    - {e Open loop} ([Open rate]): request arrivals are a Poisson
      process at [rate] requests/s, independent of completions, served
      by the fleet's connections; latency is measured from {e arrival}
      (not send), so queueing delay under overload is visible.

    Connections ramp up with seeded jitter (thundering-herd connects
    would exhaust any finite listener backlog and the client nodes'
    CPUs), spread round-robin across [client_nodes] client hosts, and
    requests start only after the whole fleet is connected — handshakes
    never compete with request traffic, and [peak_open] proves how many
    connections were simultaneously alive. Every response is verified
    byte-exactly (patterned echo payloads, {!Uls_apps.Http.body_for}
    bodies). Runs are deterministic for a given seed and compose with
    the fault engine via [loss]. *)

type workload = Echo | Http

type loop_mode =
  | Closed
  | Open of float  (** arrival rate, requests per second fleet-wide *)

type config = {
  kind : Chaos.kind;  (** which stack, and its options *)
  workload : workload;
  loop : loop_mode;
  conns : int;
  requests_per_conn : int;
      (** per connection (closed); fleet total is [conns * requests_per_conn]
          in both modes *)
  size : int;  (** echo payload / HTTP response-body bytes *)
  think : float;  (** mean think time ns between a conn's requests, 0 = none *)
  seed : int;
  loss : float;  (** uniform frame-loss probability, 0 = clean *)
  client_nodes : int;  (** fleet spread over this many client hosts *)
  backlog : int;  (** server listen backlog *)
  sched : Uls_server.Sched.config option;  (** server scheduler override *)
  match_engine : Uls_nic.Match_list.engine;
      (** NIC tag-match firmware on every node; [Linear] is the ablation
          reproducing the paper's O(descriptors) walk *)
  event_sched : [ `Heap | `Wheel ];
      (** simulator event-queue implementation; dispatch order is
          identical either way (see {!Uls_engine.Sim.create}) *)
}

val default : config
(** Closed-loop substrate echo: 64 conns x 8 requests of 512 B over
    [Options.server], 2 client nodes, seed 42, no loss, hashed matching. *)

type report = {
  sent : int;
  completed : int;
  errors : int;  (** failed after first completion, or hard failures *)
  shed : int;
      (** shed by server admission control (503 / close-on-accept) — the
          server declining work it was offered, distinct from both
          [refused] and [errors] *)
  refused : int;
      (** connect-level refusals and timeouts: no connection was ever
          established, so no request was offered *)
  mismatches : int;  (** responses that failed byte verification *)
  peak_open : int;  (** most connections simultaneously open *)
  elapsed_ms : float;  (** first send to last completion, virtual *)
  rps : float;  (** completed / elapsed *)
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  p999_us : float;
  intact : bool;
      (** no mismatches, no errors, and every sent request accounted for
          (completed or explicitly shed) *)
  completed_run : bool;  (** quiesced within the liveness bound *)
  server_requests : int;  (** served according to the server *)
  evq_wakeups : int;
  evq_spurious : int;
  select_streams_scanned : int;  (** the O(n) baseline's counter, for contrast *)
}

val echo_payload : conn:int -> seq:int -> size:int -> string
(** Patterned payload, a pure function of (connection, sequence, size):
    a response delivered to the wrong request — or truncated, shifted
    or duplicated — never verifies. Shared with the fabric fleet driver
    ({!Fleet}) so both report byte-exact verification. *)

val liveness_bound : conns:int -> Uls_engine.Time.ns
(** Virtual-time hang bound, scaled with fleet size (the EMP match walk
    is O(posted descriptors), so big fleets are legitimately slow). *)

val run :
  ?on_metrics:(Uls_engine.Metrics.t -> unit) ->
  ?progress:int * (unit -> unit) ->
  config ->
  report
(** Build a cluster, start the server on node 0 port 80, drive the
    fleet, quiesce, and report. [on_metrics] sees the simulation's
    metrics registry after the run (e.g. to dump it). [progress = (n,
    f)] calls [f] from inside the run after every [n]th completed
    request, with the whole cluster live (the soak gate's sampling
    point). *)

val print_report : Format.formatter -> config -> report -> unit
