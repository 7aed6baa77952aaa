(** Vector-clock happens-before tracking over the engine's sync
    primitives.

    Attached to a sim via {!Uls_engine.Sim.set_hooks}, the tracker
    maintains one vector clock per fiber (indexed by the sim's dense
    deterministic fiber ids) and one per sync object. Release
    operations ([Cond.signal]/[broadcast], [Mailbox.send], spawn)
    publish the acting fiber's clock into the object; acquire
    operations (a [Cond] wake-up, [Mailbox.recv]) join the object's
    clock into the fiber; [Resource] use is a serialization point and
    does both. Two operations are {e concurrent} iff neither clock is
    componentwise [<=] the other.

    Its product is the {e racing pair}: two conflicting operations —
    take/take or send/send on one mailbox, signal/signal on one
    condition — by different fibers with no happens-before edge, i.e.
    the two labeled operations whose dispatch order the divergent
    outcome actually hinged on. Benign concurrent pairs exist in
    correct code, so callers attach pairs to flagged findings rather
    than treating any pair as a failure.

    Tracking costs nothing when detached: the engine's hook sites are a
    field read and branch each (see {!Uls_engine.Sim.note_op}). *)

type t

val attach : Uls_engine.Sim.t -> t
(** Install tracking hooks on [sim]. Call before the workload spawns
    (the explorer passes it inside its [`Controlled] tie-break, which
    {!Uls_engine.Sim.set_tiebreak} runs as soon as the scenario's sim
    exists). *)

val detach : t -> unit
(** Remove the hooks; the sim returns to zero-overhead operation. *)

type pair = {
  p_label : string;  (** sync-object label, e.g. ["shared-grant-queue"] *)
  p_a_fiber : string;
  p_a_op : string;  (** operation name, e.g. ["Mailbox.recv"] *)
  p_b_fiber : string;
  p_b_op : string;
  mutable p_count : int;  (** distinct occurrences observed *)
}

val pairs : t -> pair list
(** Racing pairs observed this run. Competing consumers (recv/recv)
    rank first — when a divergence is flagged they are almost always
    the cause — then signal/signal, then send/send; most frequent first
    within a rank. *)

val render_pair : pair -> string

val dispatch_count : t -> int
(** Number of tasks dispatched so far — the explorer reads this at each
    decision point to position the decision in the dispatch log. *)

val dispatch_log : t -> (int * int list) array
(** One entry per dispatched task in dispatch order: the task's
    schedule sequence number and the sync-object uids it touched (its
    footprint — empty for tasks that performed no tracked operation).
    The explorer's independence pruning compares footprints to decide
    when two schedules are equivalent. *)
