(** Condition variables for simulator fibers (FIFO wake-up order). *)

type t

val create : ?label:string -> Sim.t -> t
(** [label] names this condition in deadlock wait-for reports
    ({!Sim.blocked_report}); include the owning object (e.g.
    ["conn:3 credits"]) so a report reads without source access. *)

val wait : t -> unit
(** Block the calling fiber until signalled. *)

val wait_timeout : t -> Time.ns -> [ `Ok | `Timeout ]
(** Block until signalled or until the timeout elapses. The timeout is
    a {!Sim.timer} that a signal or broadcast cancels, so a woken wait
    leaves no event queued behind it. *)

val wait_until : t -> (unit -> bool) -> unit
(** [wait_until c pred] returns as soon as [pred ()] holds, re-blocking on
    [c] after each spurious wake-up. Checks [pred] before first blocking. *)

val signal : t -> unit
(** Wake the oldest waiter, if any. *)

val broadcast : t -> unit
