(** SO_REUSEPORT-style listener sharding.

    One bound port, N accept queues: a demux fiber drains the real
    listener with [try_accept] and steers each new connection to one of
    [shards] synthetic listeners by a hash of the peer address — the
    same trick [SO_REUSEPORT] plays in the kernel so that independent
    worker schedulers each own a private accept queue instead of
    thundering-herding on a shared one.

    Every synthetic listener implements the full
    {!Uls_api.Sockets_api.listener} contract ([try_accept] /
    [acceptable] / [watch_accept] / [pending] / blocking [accept]), so a
    {!Sched} plugs into a shard exactly as it plugs into a real
    listener. Steering is deterministic: a given peer address always
    lands on the same shard (flow affinity), and the hash is a seeded
    SplitMix64 finalizer, not [Hashtbl.hash], so runs are reproducible.

    Closing: each shard's [close_listener] closes that shard (queued,
    unclaimed connections are closed); the underlying listener is closed
    when the last shard closes. Connections steered to an
    already-closed shard are closed on arrival.

    Metrics (per node): [server.reuseport.steered] counts connections
    fanned out. *)

val listeners :
  Uls_engine.Sim.t ->
  node:int ->
  shards:int ->
  Uls_api.Sockets_api.listener ->
  Uls_api.Sockets_api.listener array
(** [listeners sim ~node ~shards under] returns [shards] synthetic
    listeners fed from [under], steering each connection by {!hash}. *)

val hash : Uls_api.Sockets_api.addr -> int
(** The steering hash (SplitMix64 finalizer over the peer address,
    non-negative). *)
