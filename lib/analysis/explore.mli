(** Schedule exploration: one explorer, two strategies.

    Every run drives the scenario under the engine's [`Controlled]
    tie-break, where every same-timestamp tie is an explicit decision
    point, and records the choice taken at each, so every finding names
    its schedule and replays through {!replay}.

    {b Seeded walks} (every scenario): at each decision point walk [s]
    picks uniformly among the enabled tasks from a PRNG seeded with
    [s]. Walks sample the full-size workload.

    {b Depth-first sweep} (scenarios with a {!Scenarios.bound}): a
    stateless DFS executes every schedule in the bounded space exactly
    once — skipping alternatives it can prove equivalent by footprint
    independence (sleep-set-flavoured pruning over the happens-before
    tracker's per-task sync footprints). Micro fixtures use an
    unbounded preemption cap and get a genuine exhaustiveness proof
    ("all N schedules"); protocol scenarios bound preemptions (every
    schedule within P deviations of FIFO — the CHESS regime) and the
    verdict reports that coverage honestly, never claiming more than
    was run.

    Both strategies share one FIFO baseline, one judge and one findings
    list, deduplicated by schedule id. A
    schedule is named in sparse form ("29:1,38:2": at decision points
    29 and 38 take alternatives 1 and 2, FIFO — index 0 — everywhere
    else; "fifo" is the empty prefix). *)

type finding =
  | Divergent of string  (** first differing fingerprint line *)
  | Violating of string  (** first invariant violation, rendered *)
  | Deadlocked of Deadlock.report

type flagged = {
  fl_schedule : string;
      (** schedule id — feed to [--replay-schedule] / {!replay} *)
  fl_finding : finding;
  fl_preemptions : int;
  fl_walk : int option;
      (** seed of the walk that found it; [None]: the sweep *)
}

type stats = {
  st_runs : int;  (** sweep schedules executed, the FIFO baseline included *)
  st_walks : int;
  st_walks_flagged : int;
  st_decision_points : int;
  st_max_depth : int;
  st_pruned : int;  (** alternatives proven schedule-equivalent, skipped *)
  st_capped : int;  (** alternatives beyond the preemption cap *)
  st_truncated : int;  (** frontier abandoned at run-budget exhaustion *)
  st_distinct_states : int;  (** distinct end-state fingerprints, all runs *)
  st_exhaustive : bool;
      (** the sweep enumerated the full tree (nothing capped or
          truncated) *)
}

type verdict = {
  e_scenario : Scenarios.t;
  e_baseline : Scenarios.outcome;  (** the all-defaults (FIFO) schedule *)
  e_flagged : flagged list;
  e_pairs : Hb.pair list;
      (** racing pairs from the first flagged schedule — the two
          conflicting operations the divergence hinged on *)
  e_stats : stats;
}

val explore :
  ?seeds:int ->
  ?max_runs:int ->
  ?max_preemptions:int ->
  Scenarios.t ->
  verdict
(** Explore one scenario: the FIFO baseline, the depth-first sweep if
    the scenario has a bound (budget and cap default to it), then
    [seeds] walks (default 16, seeds [0 .. seeds-1]). The happens-before
    tracker rides in the [`Controlled] tie-break the scenario sets on
    its sim, so explorations keep no global state and may nest. *)

val clean : verdict -> bool
val flagged : verdict -> bool

val walk :
  Scenarios.t -> seed:int -> string * Scenarios.outcome
(** One seeded walk: the schedule id it took and its outcome. Same seed,
    same schedule. *)

type replay_error =
  | Malformed_id of string
  | Choice_out_of_range of { at : int; choice : int; enabled : int }
      (** the id takes alternative [choice] at decision point [at],
          which offers only [enabled] *)
  | Unreached of { at : int; reached : int }
      (** the id names decision point [at]; the run reached only
          [reached] *)

val string_of_replay_error : replay_error -> string

val replay :
  Scenarios.t ->
  schedule:string ->
  (Scenarios.outcome * Hb.pair list, replay_error) result
(** Re-run exactly one schedule by id (deterministic reproduction of a
    finding), returning its outcome and the racing pairs observed along
    it. An id that does not fit the scenario is an error, never a
    silently different schedule. *)

val schedule_id : int array -> string
val parse_schedule_id : string -> int array option

val render : ?verbose:bool -> verdict -> string
(** Coverage line (sweep: exhaustive vs bounded; walks; end-state
    count) plus flagged schedules, racing pairs, and the replay hint. *)
