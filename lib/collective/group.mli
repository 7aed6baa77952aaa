(** Collective communication over a group of simulated processes.

    A {!t} is one member's view of a communicator: [size] ranks that all
    call the same collectives in the same order (SPMD): barrier,
    broadcast and allreduce. The group sits on a {!transport} — blocking
    sends and posted receives — which {!Emp_group} provides over EMP
    endpoints.

    Three host algorithm families are provided ([Linear],
    [Binomial_tree], [Recursive_doubling]) plus [Nic_forward], which
    offloads barrier and broadcast to the NIC's forward-on-match
    descriptors ({!Uls_nic.Tigon.post_forward}) when the transport
    provides {!nic_ops} — the Quadrics/Myrinet-style scheme where the
    firmware propagates collective frames down the tree without waking
    the host between hops.

    Within one collective, every rank posts all of its receives before
    its first send, so a matching message can never find its descriptor
    unposted on a correctly ordered transport. *)

type algorithm =
  | Linear  (** root exchanges with every rank directly: O(N) rounds *)
  | Binomial_tree  (** fan-in/fan-out tree: O(log N) rounds *)
  | Recursive_doubling
      (** pairwise exchange (dissemination for barrier, MPICH fold-in
          for allreduce); falls back to [Binomial_tree] where no
          doubling formulation exists *)
  | Nic_forward
      (** NIC-offloaded barrier/bcast via forward-on-match descriptors;
          other operations (and oversized broadcasts) fall back to
          [Binomial_tree] *)

val algorithm_name : algorithm -> string

(** A reduction operator. [combine] must be associative and is applied
    in a deterministic but algorithm-dependent order, so use operators
    that tolerate reassociation (or exact values). *)
type op = { op_name : string; combine : string -> string -> string }

val float_sum : op
(** Elementwise sum of packed little-endian doubles. *)

type handle = unit -> string
(** A posted receive: the thunk blocks until the message arrives and
    returns its payload. *)

type transport = {
  rank : int;
  size : int;
  send : dst:int -> tag:int -> string -> unit;  (** blocking *)
  irecv : src:int -> tag:int -> max:int -> handle;
      (** posts the receive immediately; [max] bounds the payload *)
}

(** NIC-offload hooks. [nic_bcast] returns [None] when the payload
    cannot take the NIC path (e.g. larger than one frame); the decision
    must depend only on arguments every rank shares, because all ranks
    must fall back together. *)
type nic_ops = {
  nic_barrier : seq:int -> unit;
  nic_bcast : seq:int -> root:int -> max:int -> string -> string option;
}

type t

val create : ?nic:nic_ops -> ?sim:Uls_engine.Sim.t -> transport -> t
(** All members of one group must be created consistently: same size,
    distinct ranks, and either all or none with [?nic]. Passing [?sim]
    wires the group into that simulation's observability: each
    collective records a [Collective]-layer span plus per-rank op and
    round counts ({!Uls_engine.Metrics}, {!Uls_engine.Trace}). *)

val last_rounds : t -> int
(** Sequential communication steps (blocking sends + completed receive
    waits) this rank executed in its most recent collective. A linear
    barrier costs the root [2(N-1)]; a binomial barrier costs every rank
    at most [2 ceil(log2 N)]. *)

(** {1 Collectives}

    Every rank of the group must call the same operation with the same
    [alg], [root], [max] and (where applicable) [op]. [max] is the upper
    bound on any single rank's contribution, uniform across ranks. *)

val barrier : ?alg:algorithm -> t -> unit

val bcast : ?alg:algorithm -> t -> root:int -> max:int -> string -> string
(** Returns the root's [data] on every rank (the argument is ignored on
    non-roots). *)

val allreduce : ?alg:algorithm -> t -> op:op -> max:int -> string -> string

(** {1 Tree shape}

    The binomial tree used by [Binomial_tree] and the NIC offload,
    exposed for transports and tests. Ranks are relative to [root]. *)
module Tree : sig
  val parent : root:int -> size:int -> int -> int option
  val children : root:int -> size:int -> int -> int list
end
