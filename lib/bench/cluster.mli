(** Wiring helper: the experimental testbed of §7 — [n] hosts with
    Tigon2 NICs on one gigabit switch, ready for protocol endpoints. *)

type t

type stream = [ `Tcp of Uls_tcp.Config.t | `Sub of Uls_substrate.Options.t ]
(** A sockets stack and its options: kernel TCP or the substrate over
    EMP. The serving drivers (serve, fabric) take only these. *)

type stack = [ stream | `Emp of Uls_emp.Endpoint.config ]
(** Every stack the paper's §7 measures; [`Emp] is EMP's own descriptor
    interface, with no sockets layer. Each variant carries its config. *)

val stack_name : [< stack ] -> string
(** ["EMP-DS"] / ["EMP-DG"] for the substrate, ["TCP"], and ["EMP"] for
    raw EMP: the names reports and BENCH records carry. *)

val create :
  ?model:Uls_host.Cost_model.t ->
  ?tiebreak:Uls_engine.Sim.tiebreak_spec ->
  ?match_engine:Uls_nic.Match_list.engine ->
  ?sched:[ `Heap | `Wheel ] ->
  n:int ->
  unit ->
  t
(** [create ?model ?tiebreak ~n ()] builds the cluster. [tiebreak] sets
    the simulator's same-timestamp dispatch policy (see
    {!Uls_engine.Sim.set_tiebreak}) before any task is scheduled — the
    schedule explorer's perturbation hook. Default FIFO.
    [match_engine] selects the NIC tag-match firmware on every node
    (default [Linear], the paper's measured generation). [sched] selects
    the event-queue implementation ({!Uls_engine.Sim.create}); dispatch
    order is identical either way, only queue cost differs. *)

val sim : t -> Uls_engine.Sim.t
val model : t -> Uls_host.Cost_model.t
val network : t -> Uls_ether.Network.t
val size : t -> int
val node : t -> int -> Uls_host.Node.t
val nic : t -> int -> Uls_nic.Tigon.t

val emp :
  ?config:Uls_emp.Endpoint.config ->
  ?firmware:Uls_emp.Endpoint.firmware ->
  t ->
  int ->
  Uls_emp.Endpoint.t
(** Create (and cache) the EMP endpoint of node [i]. The optional config
    and firmware mode apply only to the first call for that node. *)

val tcp : t -> Uls_tcp.Tcp_stack.t
(** Create (and cache) kernel TCP stacks on every node of the cluster,
    with the default config unless {!api} created them first.
    Mutually exclusive with {!emp} on the same node: both claim the
    NIC's receive path. *)

val tcp_api : t -> Uls_api.Sockets_api.stack

val substrate : ?opts:Uls_substrate.Options.t -> t -> int -> Uls_substrate.Substrate.t
(** Create (and cache) the substrate instance of node [i] (implies its
    EMP endpoint, created in the firmware mode [opts] names,
    {!Uls_substrate.Options.firmware}). The optional opts apply to the
    first call per node. *)

val substrate_api : ?opts:Uls_substrate.Options.t -> t -> Uls_api.Sockets_api.stack
(** Substrate instances on every node, as a sockets stack. *)

val api : t -> [< stream ] -> Uls_api.Sockets_api.stack
(** The sockets stack a {!stream} names, on every node. *)

val fault : ?seed:int -> t -> Uls_engine.Fault.t
(** The cluster's fault engine, created and attached to every hop of the
    network on the first call and cached after it; [seed] applies only
    to that call. With no plan installed the engine delivers every frame
    without drawing randomness, so attaching it changes no event. *)

val run : ?until:Uls_engine.Time.ns -> t -> [ `Quiescent | `Time_limit | `Stopped ]

val endpoints : t -> (int * Uls_emp.Endpoint.t) list
(** Already-instantiated EMP endpoints, as [(node, endpoint)] pairs in
    node order (the sanitizers walk them at end of run). *)

val substrates : t -> (int * Uls_substrate.Substrate.t) list
(** Already-instantiated substrate instances, in node order. *)
