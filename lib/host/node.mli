(** A host machine: identity, OS instance, and CPU-time accounting.
    Application/protocol fibers on a node charge their compute time here
    so experiments can report host CPU utilisation. *)

type t

val create : Uls_engine.Sim.t -> Cost_model.t -> id:int -> t
val id : t -> int
val sim : t -> Uls_engine.Sim.t
val model : t -> Cost_model.t
val os : t -> Os.t

val compute : t -> Uls_engine.Time.ns -> unit
(** Spend CPU time: delays the calling fiber and accrues busy time. *)

val copy : t -> src:Memory.region -> src_off:int -> dst:Memory.region -> dst_off:int -> len:int -> unit
(** Costed memcpy charged as CPU time. *)

val busy_time : t -> Uls_engine.Time.ns
