(** The event-driven servers: echo and keep-alive HTTP over the
    {!Sched} worker pool, identical over the EMP substrate and kernel
    TCP (anything implementing {!Uls_api.Sockets_api.stack}).

    - [Echo] mirrors every chunk back verbatim (never closes first);
      the load generator verifies the mirrored byte stream exactly.
    - [Http response_size] speaks real HTTP/1.1 via {!Uls_apps.Http}:
      incremental parsing across read boundaries, keep-alive by
      default, [Connection: close] honoured, responses carry
      [Http.body_for] bodies so clients verify them byte-exactly. A
      path of the form [/b/<n>] selects an [n]-byte body; anything else
      gets [response_size] bytes. When admission control sheds a
      connection it sends an explicit [503 Service Unavailable].

    Every request is recorded as an [App]-layer [server.request] span
    plus [server.http.requests] / [server.echo.chunks] counters, so
    per-request service appears in the Chrome trace alongside the
    substrate and NIC events it triggers. *)

type workload =
  | Echo
  | Http of int  (** default response-body bytes *)

type t

val start :
  Uls_engine.Sim.t ->
  Uls_api.Sockets_api.stack ->
  node:int ->
  port:int ->
  ?backlog:int ->
  ?config:Sched.config ->
  ?shards:int ->
  workload ->
  t
(** Listen and serve. [backlog] defaults to 64. [config] defaults to
    {!Sched.default_config} with a workload-appropriate reject (503 for
    HTTP, silent close for echo). [shards] (default 1) splits the accept
    stream {!Reuseport}-style across that many independent schedulers —
    one listener socket, [shards] x [config.workers] worker fibers, with
    flow-affine steering. [config] (including [max_inflight]) applies
    {e per shard}. *)

val http_reject : string
(** The serialised [503 Service Unavailable] sent on an HTTP shed — for
    callers building a custom {!Sched.config}. *)

val requests : t -> int
(** Requests served (HTTP) or chunks echoed (echo). *)

val inflight : t -> int
(** Open connections, summed over shards. *)

val accepted : t -> int
val shed : t -> int

val peak_inflight : t -> int
(** Sum of each shard's {!Sched.peak_inflight} — an upper bound on the
    server's true concurrent connection peak. *)

val stop : t -> unit
