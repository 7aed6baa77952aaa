(** Micro-benchmark drivers (§7.1–7.2): ping-pong latency and the one
    two-node stream (bandwidth, loss sweeps, host CPU) over raw EMP,
    kernel TCP, or the substrate. Every run builds a fresh cluster, so
    experiments are independent and bit-deterministic. *)

type observe = Uls_engine.Sim.t -> unit
(** With [?observe], a run hands the cluster's simulation to the
    callback before any traffic. A caller that enables the sim's
    {!Uls_engine.Trace} there records every instrumented layer (nic,
    emp, substrate or tcpip) and the [App]-layer spans the timed
    application loops run in; keeping the sim lets it read that trace
    and the per-node {!Uls_engine.Metrics} once the run returns. *)

val ping_pong :
  ?observe:observe ->
  ?iters:int ->
  kind:[< Cluster.stack ] ->
  size:int ->
  unit ->
  float
(** One-way latency in microseconds (half the mean round trip over
    [iters] timed iterations after 5 discarded ones). Over a
    sockets stack every echo is compared with its request, and a
    mismatch fails the run ([Failure]). *)

type report = {
  goodput_mbps : float;  (** 0 unless [completed] *)
  elapsed_ms : float;  (** virtual time of the timed data phase *)
  faults_injected : int;  (** non-deliver verdicts from the fault engine *)
  retransmits : int;  (** EMP frames or TCP go-back-N rewinds, both nodes *)
  nacks : int;  (** EMP NACKs sent, both nodes; 0 for TCP *)
  tx_busy_ms : float;  (** sender host busy time (app, plus kernel for TCP) *)
  rx_busy_ms : float;  (** receiver host busy time, same accounting *)
  intact : bool;  (** the receiver got exactly the bytes sent (below) *)
  completed : bool;
      (** the source finished and the cluster quiesced within the 60 s
          virtual-time liveness bound *)
}

val stream :
  ?observe:observe ->
  ?seed:int ->
  ?loss:float ->
  ?total:int ->
  kind:[< Cluster.stack ] ->
  msg:int ->
  unit ->
  report
(** The two-node stream: exactly [total] bytes (default 16 MB) of a
    pattern that is a pure function of the byte offset, sent in
    [msg]-byte writes with a short last one, under uniform per-frame
    loss probability [loss] (default 0, no plan installed) from a fault
    engine seeded with [seed] (default 42). Deterministic for a seed.

    Over a sockets stack the sink drains in 64 KB reads, checks every
    byte against the pattern ([intact]) and answers with one
    confirmation byte; the data phase runs from the first write after
    [connect] to that byte. Over raw EMP the sink pre-posts one receive
    per message into a single shared buffer, so [intact] means every
    posted receive completed with its message's length (each [msg]
    bytes, the last the remainder); the data phase runs from the first
    post to the last send completion, with 16 sends in flight. Busy
    times are sampled when the source finishes. *)

val loss_rates : float list
(** [0; 0.005; 0.02; 0.05]: the loss sweep's default rates. *)

val connect_time : kind:[< Cluster.stream ] -> unit -> float
(** Mean time of [connect()] alone, in microseconds. *)

val coll_span :
  observe:observe option ->
  nodes:int ->
  iters:int ->
  (Uls_collective.Group.t -> rank:int -> unit) ->
  Uls_engine.Time.ns
(** The collective runner behind {!barrier_latency} and
    {!coll_bandwidth}: each of [nodes] ranks of an EMP group runs [f]
    once to warm up, then [iters] times; the result is the span from the
    earliest rank's start to the latest rank's finish.
    @raise Failure naming the ranks that never finished, when the
    cluster quiesces with a collective wedged. *)

val barrier_latency :
  ?observe:observe ->
  ?iters:int ->
  alg:Uls_collective.Group.algorithm ->
  nodes:int ->
  unit ->
  float
(** Mean per-barrier latency in microseconds over an [nodes]-rank EMP
    group: one warm-up barrier, then [iters] (default 10) timed barriers;
    the span between the earliest rank start and the latest rank finish
    is divided by [iters], amortising warm-up exit skew. *)

val coll_bandwidth :
  ?observe:observe ->
  ?iters:int ->
  op:[ `Bcast | `Allreduce ] ->
  alg:Uls_collective.Group.algorithm ->
  nodes:int ->
  size:int ->
  unit ->
  float
(** Effective collective bandwidth in megabits per second: [iters]
    (default 5) [size]-byte broadcasts or allreduces over an
    [nodes]-rank EMP group after one warm-up, measured as root payload
    bytes over the batch span. Allreduce sizes round up to a multiple
    of 8 for {!Uls_collective.Group.float_sum}. *)
