(** Unbounded FIFO channel between fibers. *)

type 'a t

val create : ?label:string -> Sim.t -> 'a t
(** [label] names this channel in deadlock wait-for reports (see
    {!Cond.create}). *)

val send : 'a t -> 'a -> unit

val recv : 'a t -> 'a
(** Block the calling fiber until a message is available. *)

val recv_timeout : 'a t -> Time.ns -> 'a option
