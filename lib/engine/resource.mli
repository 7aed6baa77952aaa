(** A FIFO-served exclusive resource (NIC CPU, DMA engine, link, switch
    port). Requests occupy the resource back-to-back in arrival order;
    the caller's fiber resumes when its occupancy ends. *)

type t

val create : Sim.t -> name:string -> t

val use : t -> Time.ns -> unit
(** [use r d] occupies [r] for [d] ns starting when all earlier requests
    have drained, and blocks the calling fiber until that occupancy ends. *)

val completion_after : t -> Time.ns -> Time.ns
(** [completion_after r d] reserves [d] ns of occupancy like {!use} but
    returns the absolute completion time instead of blocking; for
    event-style code that schedules its own continuation. *)

val free_at : t -> Time.ns
(** Absolute time at which all currently queued occupancy drains. *)

val busy_time : t -> Time.ns
val jobs : t -> int

val queue_delay_total : t -> Time.ns
(** Cumulative time requests spent waiting behind earlier requests. *)
