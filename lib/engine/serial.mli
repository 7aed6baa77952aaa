(** Serial handlers: run a reaction when work arrives, in at most one
    fiber at a time, and in no fiber while there is nothing to do.

    A handler is a running flag, a "has work" test and a step. {!kick}
    spawns one named daemon fiber when there is work and no fiber is
    running; the fiber runs the step while the test holds, then exits.
    A kick while the fiber runs spawns nothing: the running fiber
    re-tests after each step, so it picks up what the kick announced.
    Nothing parks between bursts, so an idle owner holds no fiber and
    {!Sim.blocked_report} does not list it.

    Called from a completion hook at the point where a parked fiber's
    wake-up would have been scheduled, the spawn takes that wake-up's
    place in the event order: a handler is a drop-in for a fiber parked
    on the same work, minus the wake-ups that found nothing to do. *)

type t

val create :
  Sim.t -> name:string -> has_work:(unit -> bool) -> (unit -> unit) -> t
(** [create sim ~name ~has_work step]: fibers are spawned under [name]
    (deadlock reports and racing-pair labels read it). [step] may block;
    [has_work] must not. *)

val kick : t -> unit
(** Spawn the handler fiber if [has_work ()] and none is running. Never
    blocks, so it may run outside a fiber (a completion hook). *)

(** {1 Ordered instances}

    A posting-order queue drained head first: there is work only while
    the head is [ready]. An item that becomes ready behind a head that
    is not spawns nothing; when the head becomes ready one fiber reaps
    it and every ready item behind it, in posting order. *)

type 'a ordered

val ordered :
  Sim.t -> name:string -> ready:('a -> bool) -> ('a -> unit) -> 'a ordered
(** [ordered sim ~name ~ready handle]: [handle] gets each item popped
    off the head, once the head is [ready]. *)

val push : 'a ordered -> 'a -> unit
(** Append an item. Pushing does not kick: whatever makes an item ready
    (a descriptor's completion hook) calls {!kick_ordered}. *)

val kick_ordered : 'a ordered -> unit
(** {!kick} for an ordered instance: call it when an item may have
    become ready. *)

val retain : 'a ordered -> ('a -> bool) -> unit
(** Keep only the queued items satisfying the predicate, in order (the
    owner's teardown drops what it will never reap). *)
