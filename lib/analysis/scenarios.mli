(** The invariant suite: closed workloads the schedule explorer perturbs.

    Each scenario builds its own cluster with a chosen same-timestamp
    tie-break policy, enables the invariant monitors, drives a workload
    to quiescence, runs the end-of-run sanitizers, and captures the
    final-state fingerprint. A {e clean} scenario must produce the same
    fingerprint, zero violations, and no deadlock under every tie-break;
    a {e buggy} fixture encodes a known bug class (re-introduced
    deliberately) that the explorer must keep catching. *)

type tiebreak = Uls_engine.Sim.tiebreak_spec
(** [`Fifo] or [`Controlled choose] (the explorer's instrument — see
    {!Uls_engine.Sim.set_tiebreak}). *)

type outcome = {
  fingerprint : Fingerprint.t;
  violations : Uls_engine.Invariant.violation list;
      (** everything the in-line monitors and sanitizers recorded *)
  deadlock : Deadlock.report option;
  leaks : Sanitizer.finding list;
  stop : [ `Quiescent | `Time_limit | `Stopped ];
}

type bound = {
  b_runs : int;  (** depth-first sweep schedule budget *)
  b_preemptions : int;
      (** max deviations from FIFO per schedule; [max_int] lets the
          explorer drain the whole tree and claim exhaustiveness *)
}
(** A scenario's opt-in to the depth-first sweep ({!Explore}). *)

type t = {
  sc_name : string;
  sc_descr : string;
  sc_buggy : bool;
      (** fixtures the explorer must flag (CI fails if it stops catching
          them) *)
  sc_run : tiebreak -> outcome;
  sc_bound : bound option;
      (** [None]: the scenario is too large for a depth-first sweep and
          gets seeded walks only *)
}

val all : t list
(** The clean suite, then the seeded regressions. Clean scenarios must
    stay schedule-independent: streaming echo under credit flow control,
    datagram rendezvous from concurrent clients, connection churn, the
    raw-EMP grant protocol with per-request routing, and fleet arrivals
    over the sharded serving fabric (ring placement + completion counts
    fingerprinted from the fleet report). Workloads too large to sweep
    come with a "-mini" variant that carries the depth-first sweep. The
    regressions are the shared-grant-queue bug re-introduced in a
    raw-EMP fixture, and a lost-wakeup fixture whose deadlock exists on
    exactly one of two schedules (the explorer's exhaustive-proof
    demo). *)

val find : string -> t option
