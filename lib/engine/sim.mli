(** Discrete-event simulator with cooperative fibers.

    Protocol agents are written as ordinary OCaml functions running inside
    fibers (OCaml 5 effects). A fiber advances virtual time with {!delay}
    and blocks on external events with {!suspend}; higher-level
    synchronisation ({!Cond}, {!Mailbox}, {!Resource}) is built on these
    two primitives. Execution is fully deterministic: simultaneous events
    run in scheduling order under the default {b FIFO} tie-break, or in
    an externally chosen order under {!set_tiebreak} — the analysis
    layer's schedule exploration (same-timestamp reordering only;
    timestamps themselves never move). *)

type t

exception Fiber_failure of string * exn
(** Raised out of {!run} when a fiber dies with an uncaught exception.
    Carries the fiber's name and the original exception. *)

val create : ?sched:[ `Heap | `Wheel ] -> unit -> t
(** [create ()] uses the hierarchical timing wheel ({!Wheel}), the
    production event queue: O(1) amortized insert/extract regardless of
    pending-event count, each event a slot of an int-keyed slab.
    [~sched:`Heap] selects the binary comparison heap, the original
    queue, kept as the parity oracle and throughput ablation. Dispatch
    order is {e byte-identical} on both — the (time, seq) tie-break
    contract holds on both, so FIFO runs, controlled schedules, and
    determinism fingerprints are scheduler-independent. *)

val now : t -> Time.ns

type tiebreak_spec = [ `Fifo | `Controlled of (int array -> int) * (t -> unit) ]

val set_tiebreak : t -> tiebreak_spec -> unit
(** Dispatch policy for same-timestamp tasks. [`Fifo] (the default)
    runs them in scheduling order.

    [`Controlled (choose, attach)] is the schedule explorer's
    instrument. [set_tiebreak] first runs [attach] on the sim: the
    explorer's way to install its {!hooks} on a sim a scenario builds
    itself, so set the tie-break before any fiber exists. Then each
    time two or more tasks are due at the same instant, the whole tie is
    handed to [choose] as an array of task sequence numbers in FIFO
    order, and the returned index picks which runs next (out-of-range
    indices fall back to 0). The unchosen tasks are re-enqueued
    untouched and the tie is re-offered — minus the dispatched task —
    at the next step, so a chooser replaying a recorded decision list
    visits the exact same schedule. A singleton is not a decision
    point, and [choose] must not perform effects. *)

val spawn : t -> ?name:string -> ?daemon:bool -> (unit -> unit) -> unit
(** Start a fiber at the current virtual time. [daemon] marks
    infrastructure fibers expected to stay parked forever (dispatch
    loops, protocol service fibers); deadlock diagnosis reports
    non-daemon parked fibers only. *)

val spawn_at : t -> ?name:string -> Time.ns -> (unit -> unit) -> unit

val at : t -> Time.ns -> (unit -> unit) -> unit
(** Schedule a plain (non-fiber) callback at an absolute time. The
    callback must not perform fiber effects. *)

val timer : t -> Time.ns -> (unit -> unit) -> int
(** {!at} that returns a handle for {!cancel}: a non-negative int
    carrying the event's queue slot and sequence number. [-1] is never a
    handle, so owners keep it in a plain [int] field with [-1] for "no
    timer armed". Scheduling is identical to {!at}: the same sequence
    number, the same dispatch position. *)

val cancel : t -> int -> unit
(** Withdraw a pending {!timer}. The event never runs, is not counted
    in {!events_executed} and is never offered to a [`Controlled]
    chooser; its callback is dropped at once, so nothing it captured
    stays reachable through the queue. Every other event keeps its
    (time, seq) and so its dispatch position. Cancelling a handle whose
    event already ran or was cancelled, whose slot was since reused, or
    [-1], does nothing. Both queues keep this contract, so [`Heap] and
    [`Wheel] still dispatch identically. *)

val delay : t -> Time.ns -> unit
(** [delay sim d] suspends the calling fiber for [d] nanoseconds of
    virtual time. [d <= 0] is a no-op. Must be called from a fiber of
    [sim]: a fiber of another sim fails with {!Fiber_failure}
    ([Invalid_argument]). A delay allocates nothing beyond the runtime's
    continuation object. *)

val suspend : t -> ?label:string -> ((unit -> unit) -> unit) -> unit
(** [suspend sim register] parks the calling fiber and calls
    [register resume]. Calling [resume] (from any context) schedules the
    fiber to continue at the then-current virtual time; second and later
    calls to [resume] are ignored, so racing wake-ups (e.g. a timeout and
    a signal) are safe. [label] names the suspend site in
    {!blocked_report} (deadlock diagnosis). If [register] itself raises,
    the fiber is accounted dead (not blocked) and the exception escapes
    as {!Fiber_failure}. *)

val run : ?until:Time.ns -> t -> [ `Quiescent | `Time_limit | `Stopped ]
(** Execute events until the queue drains ([`Quiescent]), virtual time
    would pass [until] ([`Time_limit]), or {!stop} is called
    ([`Stopped]). Can be called repeatedly to resume. *)

val stop : t -> unit

val blocked_fibers : t -> int
(** Number of fibers currently parked in {!suspend}. After a [`Quiescent]
    run this being non-zero means those fibers can never resume —
    i.e. deadlock (the situation of Figure 7 of the paper) for non-daemon
    fibers, or ordinary idling for daemon service loops. *)

type parked = {
  fiber : string;  (** fiber name given to {!spawn} *)
  label : string;  (** suspend-site label ({!Cond}/{!Mailbox} creation label) *)
  since : Time.ns;  (** virtual time the fiber parked *)
  daemon : bool;
}

val blocked_report : t -> parked list
(** Every currently parked fiber with what it suspended on, oldest
    first. The wait-for report behind deadlock diagnosis. *)

val current_fiber : t -> string
(** Name of the fiber currently executing ("main" outside any fiber).
    Lets invariant violations name their offending fiber. *)

val live_fibers : t -> int
val events_executed : t -> int

(** {1 Sync-point instrumentation}

    Hooks let the analysis layer observe every synchronisation operation
    (for vector-clock happens-before tracking) and every dispatched task
    (for per-task footprints) without the engine knowing anything about
    clocks. With hooks unset — the default, and the only configuration
    benchmarks and production scenarios run — each instrumentation site
    costs one field read and branch and allocates nothing: {!op_kind}
    constructors are argless and [note_op] takes the uid and label as
    bare arguments. *)

type op_kind =
  | Op_spawn
  | Op_cond_wait  (** fiber is about to park on a {!Cond} *)
  | Op_cond_wake  (** fiber resumed from a {!Cond} wait (acquire edge) *)
  | Op_cond_signal  (** release edge to the woken waiter *)
  | Op_cond_broadcast  (** release edge to every woken waiter *)
  | Op_mailbox_send  (** release edge to the message's receiver *)
  | Op_mailbox_recv  (** acquire edge from the message's sender *)
  | Op_resource_use  (** serialization point: acquire + release *)

type hooks = {
  on_op : op_kind -> int -> string -> unit;
      (** [on_op kind uid label]: a sync operation on object [uid] by
          the fiber [current_fiber_id] (labels name the object in
          reports) *)
  on_spawn : parent:int -> child:int -> name:string -> unit;
      (** fiber creation: the program-order edge from parent to child *)
  on_dispatch : seq:int -> time:Time.ns -> unit;
      (** a task starts running; [seq] is its stable schedule number *)
}

val set_hooks : t -> hooks option -> unit
val note_op : t -> op_kind -> int -> string -> unit
(** Used by {!Cond}/{!Mailbox}/{!Resource} at each sync point; no-op
    (one branch, zero allocation) when hooks are unset. *)

val current_fiber_id : t -> int
(** Dense deterministic id of the executing fiber (0 = main; spawn
    order thereafter). Stable across runs of the same program, so
    vector clocks can be arrays indexed by fiber id. Plain {!at}
    callbacks do not reset it and inherit the last running fiber's id —
    sync operations from bare callbacks are rare and misattribution
    only weakens (never falsifies) a happens-before edge report. *)

val new_sync_uid : t -> int
(** Fresh deterministic identity for a sync object ({!Cond},
    {!Mailbox}, {!Resource}) within this sim. *)

(** {1 Observer store}

    Each simulation carries one lazily filled slot per key, so the
    observers of a run ({!Metrics}, {!Trace}, {!Invariant}) live and die
    with the sim and no layer threads a handle through its
    constructors. *)

type 'a key

val key : (t -> 'a) -> 'a key
(** A new slot kind whose value {!get} makes with the given function
    the first time a sim is asked for it. *)

val get : t -> 'a key -> 'a
(** The sim's value for the key, made and kept on first use. *)
