(** Sharded serving fabric: K server cells behind an L4 load-balancer
    switch.

    One cell = one {!Uls_server.Server} on its own simulated node,
    internally sharded SO_REUSEPORT-style across [shards] connection
    schedulers. The balancer spreads {e flows} over cells by consistent
    hashing of the flow key on a virtual-node {!Ring} — the Maglev/ECMP
    discipline: flow affinity, near-uniform spread, and minimal
    remapping when membership changes. No cell ever carries more than
    its share of connections, which is what keeps every NIC below the
    EMP linear-match-walk collapse documented in EXPERIMENTS.md.

    Health has two signal paths feeding one per-cell failure counter:

    - {e active}: a prober fiber per cell (from [probe_node]) does a
      full connect+close through the stack under test every
      [probe_period];
    - {e passive}: {!connect} feeds the same counter with every
      data-path connect failure, usually the earlier signal.

    [fail_threshold] consecutive failures take the cell out of the ring
    (state [Down]) — the "heal": subsequent flows remap to the
    surviving cells, touching only the dead cell's key range. If
    [rejoin_threshold] > 0, that many consecutive probe successes put a
    [Down] cell back.

    {!drain} removes a cell from the ring {e without} killing it: no
    new flows arrive, existing connections run to completion, and the
    cell's server stops once its last connection closes (state
    [Drained], with {!drain_open} recording how many connections were
    drained rather than reset).

    The fabric runs unchanged over the EMP substrate and kernel TCP
    (anything implementing {!Uls_api.Sockets_api.stack}) and is
    deterministic: probers are staggered deterministically, the ring
    hash is seeded, and all state changes happen inside simulator
    fibers. *)

type cell_state =
  | Up  (** in the ring, taking flows *)
  | Draining  (** out of the ring, finishing existing connections *)
  | Drained  (** gracefully emptied and stopped *)
  | Down  (** failed out of the ring by the health checker *)

val state_name : cell_state -> string

type event = {
  at : Uls_engine.Time.ns;
  cell : int;
  to_state : cell_state;
  cause : string;  (** "probe-timeout", "connect-failed", "drain-requested", ... *)
}

type config = {
  port : int;  (** every cell listens on this port on its own node *)
  backlog : int;
  shards : int;  (** SO_REUSEPORT shards (schedulers) per cell *)
  sched : Uls_server.Sched.config option;  (** per-shard scheduler config *)
  workload : Uls_server.Server.workload;
  vnodes : int;  (** ring virtual nodes per cell *)
  ring_seed : int;
  probe_node : int option;  (** health-probe origin; [None] = passive only *)
  probe_period : Uls_engine.Time.ns;
  fail_threshold : int;  (** consecutive failures before [Down] *)
  rejoin_threshold : int;  (** probe successes before a [Down] cell
                               rejoins; 0 = never auto-rejoin *)
}

val default_config : config
(** port 80, backlog 128, 4 shards, echo, 128 vnodes, 5 ms probes,
    2 failures to go down, 2 probe successes to rejoin. Auto-rejoin is
    on by default so a cell marked down by a transient overload burst
    returns once probes succeed again; a dead cell keeps failing
    probes, so it stays out. The backlog is deliberately modest: every
    posted backlog descriptor sits in the cell NIC's linear match
    list, so each RX frame pays O(backlog) walk cost. *)

type t

exception No_live_cells
(** Raised by {!route}/{!connect} when every cell is out of the ring. *)

val create :
  Uls_engine.Sim.t -> Uls_api.Sockets_api.stack -> nodes:int list -> config -> t
(** [create sim api ~nodes config] starts one cell per node id in
    [nodes] (cell ids are positions in the list) and, when
    [config.probe_node] is set, one prober fiber per cell. *)

val flow_key : client_node:int -> flow:int -> port:int -> int
(** Pack a flow's identifying tuple into a ring key (the 5-tuple hash:
    source node, source flow/ephemeral id, destination port). *)

val route : t -> key:int -> int
(** Owning cell id for a flow key. @raise No_live_cells *)

val connect :
  t -> client_node:int -> key:int -> Uls_api.Sockets_api.stream * int
(** Route [key], connect from [client_node] to the owning cell, and
    return the stream with the cell id. A connect failure feeds the
    passive health counter before re-raising.
    @raise No_live_cells when the ring is empty. *)

val drain : t -> int -> unit
(** Begin draining a cell (no-op unless it is [Up]). *)

val stop : t -> unit
(** Stop every cell's server. Idempotent. *)

val cell_state : t -> int -> cell_state
val server : t -> int -> Uls_server.Server.t
val drain_open : t -> int -> int
(** Connections that were open when {!drain} began on this cell. *)

val events : t -> event list
(** Membership/state transitions, oldest first — the failover audit
    log ("ring healed at t=..."). *)

val config : t -> config
