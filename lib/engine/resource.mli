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

val completion_from : t -> start:Time.ns -> Time.ns -> Time.ns
(** [completion_from r ~start d] reserves [d] ns of occupancy that may
    begin as early as [start], which may lie before now: work whose
    trigger came earlier than the caller could act on it (a NIC core
    classifying a frame from its header while the payload still
    arrives). It begins at the later of [start] and the end of [r]'s
    last reservation, never inside it, and returns the absolute
    completion time; busy time and jobs count as for
    {!completion_after}, and its queueing is the time from [start] to
    its begin. The caller resumes at the later of now and that time:
    nothing is scheduled in the past. *)

val free_at : t -> Time.ns
(** Absolute time at which all currently queued occupancy drains. *)

val reserved_until : t -> Time.ns
(** The end of the last reservation, which may lie before now when the
    resource has since idled. *)

val busy_time : t -> Time.ns
val jobs : t -> int

val queue_delay_total : t -> Time.ns
(** Cumulative time requests spent waiting behind earlier requests. *)
