(** Micro-benchmark drivers (§7.1–7.2): ping-pong latency and
    unidirectional stream bandwidth over raw EMP, kernel TCP, or the
    substrate. Every run builds a fresh two-node cluster, so experiments
    are independent and bit-deterministic. *)

type observe = Uls_engine.Trace.t -> Uls_engine.Metrics.t -> unit
(** With [?observe], a run enables the cluster simulation's shared
    {!Uls_engine.Trace} before any traffic and wraps its timed
    application loops in [App]-layer spans; once the run ends the
    callback receives the trace (span/instant events from every
    instrumented layer: nic, emp, substrate or tcpip, app) and the
    per-node metrics registry. *)

val ping_pong :
  ?observe:observe ->
  ?iters:int ->
  ?warmup:int ->
  kind:[< Cluster.stack ] ->
  size:int ->
  unit ->
  float
(** One-way latency in microseconds (half the mean round trip over
    [iters] timed iterations after [warmup] discarded ones). *)

val bandwidth :
  ?observe:observe ->
  ?total:int ->
  kind:[< Cluster.stack ] ->
  msg:int ->
  unit ->
  float
(** Stream [total] bytes (default 16 MB) in [msg]-byte messages; returns
    megabits per second of goodput. *)

val connect_time : kind:[< Cluster.stream ] -> unit -> float
(** Mean time of [connect()] alone, in microseconds. *)

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
