(** Final-state fingerprint: the semantic end state of a run, reduced to
    a digest the schedule explorer can compare across schedule
    perturbations. Only schedule-independent observables participate —
    application-level operation counts ({!stable_counters}), the
    surviving connection tables, recorded invariant violations (without
    their timestamps), and scenario-provided observable strings
    (payload digests). Two runs of a correct program under different
    same-timestamp orderings must produce fingerprints with the same
    {!digest}; a difference is a race. *)

type t

val capture :
  ?observables:string list ->
  Uls_engine.Sim.t ->
  subs:(int * Uls_substrate.Substrate.t) list ->
  t
(** Capture after the run reached quiescence. [observables] are
    scenario-level facts (e.g. ["client0 digest=..."]); order is
    preserved, so scenarios should emit them deterministically. *)

val first_difference : t -> t -> string option
(** [None] when equal; otherwise a one-line description of the first
    differing fingerprint line (the divergence report). *)

val digest : t -> string
val to_string : t -> string
