(* Schedule exploration: one explorer, two strategies.

   Every run drives the scenario under the engine's [`Controlled]
   tie-break, where every same-timestamp tie is an explicit decision
   point, and records the choice taken at each. The recorded choices
   name the schedule, so a finding from either strategy replays through
   the one [replay] path.

   Seeded walks. Every scenario gets K walks: at each decision point
   walk [s] picks uniformly among the enabled tasks from a PRNG seeded
   with [s]. Walks sample the whole schedule space at full workload
   size, where enumeration is unaffordable.

   Depth-first sweep. Scenarios that opt in (Scenarios.sc_bound) also
   get a stateless depth-first search over the schedule tree. A
   schedule is identified by its decision prefix: the list of choice
   indices taken at decision points 0..k-1, with the default (index 0 =
   FIFO order) everywhere after. After running a prefix, the search
   expands alternatives only at decision points at depth >= |prefix| —
   the classic duplicate-free stateless-DFS expansion rule, so every
   choice sequence in the bounded space is executed exactly once.

   Pruning (sleep-set flavour). Before expanding alternative task [a]
   at decision [i], the search checks the dispatch log of the run it
   just observed: if [a]'s footprint (the sync-object uids it touched
   when it eventually ran, recorded by Hb) is non-empty and disjoint
   from the footprints of every task dispatched between [i] and [a]'s
   actual position — all of which must themselves have non-empty
   footprints — then running [a] first commutes with all of them, the
   two schedules are Mazurkiewicz-equivalent, and the alternative is
   skipped. Tasks with empty footprints performed no tracked sync
   operation; they may still have touched shared state through plain
   refs, so they are conservatively dependent on everything — pruning
   never skips a schedule it cannot prove equivalent. The independence
   model (state flows through sync primitives) is documented in
   DESIGN.md §11.

   Bounding. Exhaustive enumeration is feasible for micro fixtures; a
   protocol scenario's tree explodes. Each scenario's bound carries a
   preemption cap — the maximum number of non-default (non-FIFO)
   choices per schedule — and a run budget. Within the cap the sweep is
   complete (every schedule at most P deviations from FIFO is visited),
   the CHESS observation being that real schedule bugs almost always
   need very few preemptions. Coverage is reported honestly: a verdict
   says "exhaustive" only when the tree drained with no alternative
   skipped by cap or budget.

   Both strategies share one FIFO baseline, one judge and one findings
   list. Every finding carries its schedule id (the sparse choice list,
   e.g. "29:1"), replayable deterministically with
   [races --scenario S --replay-schedule 29:1]. *)

open Uls_engine

type finding =
  | Divergent of string  (* first differing fingerprint line *)
  | Violating of string  (* first invariant violation, rendered *)
  | Deadlocked of Deadlock.report

type flagged = {
  fl_schedule : string;  (* schedule id: sparse pos:choice list *)
  fl_finding : finding;
  fl_preemptions : int;  (* deviations from FIFO in this schedule *)
  fl_walk : int option;  (* seed of the walk that found it; None: sweep *)
}

type stats = {
  st_runs : int;  (* sweep schedules executed, the FIFO baseline included *)
  st_walks : int;  (* seeded walks executed *)
  st_walks_flagged : int;  (* walks the judge flagged *)
  st_decision_points : int;  (* total decision points encountered *)
  st_max_depth : int;  (* deepest decision point seen *)
  st_pruned : int;  (* alternatives skipped as independence-equivalent *)
  st_capped : int;  (* alternatives skipped by the preemption cap *)
  st_truncated : int;  (* frontier entries abandoned when the run budget ran out *)
  st_distinct_states : int;  (* distinct end-state fingerprints *)
  st_exhaustive : bool;
      (* the sweep enumerated the whole tree: frontier drained, nothing
         capped or truncated — "all N inequivalent schedules verified" *)
}

type verdict = {
  e_scenario : Scenarios.t;
  e_baseline : Scenarios.outcome;  (* the all-defaults (FIFO) schedule *)
  e_flagged : flagged list;
  e_pairs : Hb.pair list;
      (* racing pairs from the first flagged run: the conflicting
         operations the divergence hinged on *)
  e_stats : stats;
}

(* Schedule ids are sparse: "29:1,38:2" = at decision point 29 take
   index 1, at 38 take index 2, FIFO (index 0) everywhere else. A child
   prefix always ends in a non-default choice, so the sparse form is
   lossless including length. *)
let schedule_id prefix =
  let parts = ref [] in
  Array.iteri
    (fun i c -> if c <> 0 then parts := Printf.sprintf "%d:%d" i c :: !parts)
    prefix;
  if !parts = [] then "fifo" else String.concat "," (List.rev !parts)

let parse_schedule_id s =
  if s = "fifo" then Some [||]
  else
    try
      let pairs =
        List.map
          (fun p ->
            match String.split_on_char ':' p with
            | [ a; b ] -> (int_of_string a, int_of_string b)
            | _ -> raise Exit)
          (String.split_on_char ',' s)
      in
      let len = 1 + List.fold_left (fun m (p, _) -> max m p) (-1) pairs in
      let a = Array.make len 0 in
      List.iter
        (fun (p, c) ->
          if p < 0 || c <= 0 || a.(p) <> 0 then raise Exit;
          a.(p) <- c)
        pairs;
      Some a
    with _ -> None

let preemptions prefix = Array.fold_left (fun n c -> if c <> 0 then n + 1 else n) 0 prefix

(* --- one controlled run ------------------------------------------------- *)

type decision = {
  d_enabled : int array;  (* task seqs sharing the instant, FIFO order *)
  d_chosen : int;  (* index taken *)
  d_pos : int;  (* dispatch index of the chosen task *)
}

(* Run the scenario once, taking [pick i n] (an index below [n]) at
   decision point [i]. Returns the outcome, the decisions actually
   encountered (oldest first) and, when [track], the attached
   happens-before tracker. Uses the global sim creation hook, so
   explorations cannot nest. *)
let run_once ?(track = true) (sc : Scenarios.t) pick =
  let hb = ref None in
  if track then
    Sim.set_create_hook
      (Some
         (fun sim ->
           (* first sim created inside the run function is the scenario's *)
           if !hb = None then hb := Some (Hb.attach sim)));
  let decisions = ref [] in
  let depth = ref 0 in
  let choose enabled =
    let c = pick !depth (Array.length enabled) in
    incr depth;
    let pos = match !hb with Some h -> Hb.dispatch_count h | None -> 0 in
    decisions := { d_enabled = enabled; d_chosen = c; d_pos = pos } :: !decisions;
    c
  in
  let outcome =
    Fun.protect
      ~finally:(fun () -> Sim.set_create_hook None)
      (fun () -> sc.Scenarios.sc_run (`Controlled choose))
  in
  (outcome, List.rev !decisions, !hb)

let prefix_pick prefix i _ = if i < Array.length prefix then prefix.(i) else 0

let choices decisions = Array.of_list (List.map (fun d -> d.d_chosen) decisions)
let pairs_of = function Some h -> Hb.pairs h | None -> []
let detach = function Some h -> Hb.detach h | None -> ()

(* Walks run untracked: the tracker costs several times the run itself
   on the full-size workloads, and only a flagged walk needs its racing
   pairs — which a tracked replay of its schedule recovers. *)
let walk_run sc ~seed =
  let rng = Rng.create ~seed in
  run_once ~track:false sc (fun _ n -> Rng.int rng n)

let walk sc ~seed =
  let outcome, decisions, hb = walk_run sc ~seed in
  detach hb;
  (schedule_id (choices decisions), outcome)

(* --- the search --------------------------------------------------------- *)

let judge ~baseline (outcome : Scenarios.outcome) =
  match outcome.Scenarios.violations with
  | v :: _ -> Some (Violating (Invariant.string_of_violation v))
  | [] -> (
    match outcome.Scenarios.deadlock with
    | Some rep -> Some (Deadlocked rep)
    | None -> (
      match baseline with
      | None -> None
      | Some base -> (
        match
          Fingerprint.first_difference base.Scenarios.fingerprint
            outcome.Scenarios.fingerprint
        with
        | Some diff -> Some (Divergent diff)
        | None -> None)))

(* Is running [alt_seq] at dispatch position [from_pos] instead of at
   its observed position provably equivalent? True iff its footprint is
   non-empty and disjoint from every (non-empty) footprint dispatched
   in between. *)
let equivalent_alternative log ~from_pos ~alt_seq =
  let n = Array.length log in
  let alt_pos = ref (-1) in
  (let i = ref from_pos in
   while !alt_pos < 0 && !i < n do
     if fst log.(!i) = alt_seq then alt_pos := !i;
     incr i
   done);
  if !alt_pos < 0 then false  (* never ran (stopped early): must explore *)
  else begin
    let alt_fp = snd log.(!alt_pos) in
    if alt_fp = [] then false  (* untracked effects: conservatively dependent *)
    else begin
      let independent = ref true in
      let i = ref from_pos in
      while !independent && !i < !alt_pos do
        let fp = snd log.(!i) in
        if fp = [] || List.exists (fun u -> List.mem u alt_fp) fp then
          independent := false;
        incr i
      done;
      !independent
    end
  end

let explore ?(seeds = 16) ?max_runs ?max_preemptions (sc : Scenarios.t) =
  let runs = ref 0 in
  let decision_points = ref 0 in
  let max_depth = ref 0 in
  let states = Hashtbl.create 64 in
  let baseline = ref None in
  let flagged_acc = ref [] in
  let pairs_acc = ref [] in
  (* Bookkeeping both strategies share: end-state dedup, the judge
     against the FIFO baseline (the first run), one finding per distinct
     schedule. True iff the run is flagged. *)
  let observe ?walk (outcome, decisions, hb) =
    incr runs;
    let depth = List.length decisions in
    decision_points := !decision_points + depth;
    max_depth := max !max_depth depth;
    Hashtbl.replace states (Fingerprint.digest outcome.Scenarios.fingerprint) ();
    let verdict = judge ~baseline:!baseline outcome in
    if !baseline = None then baseline := Some outcome;
    match verdict with
    | None -> false
    | Some f ->
      let chosen = choices decisions in
      let id = schedule_id chosen in
      if not (List.exists (fun fl -> fl.fl_schedule = id) !flagged_acc) then begin
        flagged_acc :=
          {
            fl_schedule = id;
            fl_finding = f;
            fl_preemptions = preemptions chosen;
            fl_walk = walk;
          }
          :: !flagged_acc;
        if !pairs_acc = [] then
          pairs_acc :=
            (match hb with
            | Some h -> Hb.pairs h
            | None ->
              let _, _, hb = run_once sc (prefix_pick chosen) in
              let pairs = pairs_of hb in
              detach hb;
              pairs)
      end;
      true
  in
  (* Each run builds and abandons a full simulation (cluster state,
     buffers, the tracker's clock arrays); across hundreds of runs the
     dead heap outgrows what the incremental major GC keeps up with and
     RSS climbs into gigabytes. Compacting on a cadence keeps the whole
     search in a flat footprint for a few percent of run time. *)
  let retire hb =
    detach hb;
    if !runs land 31 = 0 then Gc.compact ()
  in
  (* Sweep: the frontier starts at the baseline's empty prefix, so an
     unbounded scenario runs the baseline alone. *)
  let budget, cap =
    match sc.Scenarios.sc_bound with
    | Some b ->
      ( max 1 (Option.value max_runs ~default:b.Scenarios.b_runs),
        Option.value max_preemptions ~default:b.Scenarios.b_preemptions )
    | None -> (1, 0)
  in
  let frontier = Stack.create () in
  Stack.push [||] frontier;
  let sweep_runs = ref 0 and pruned = ref 0 and capped = ref 0 in
  (* expansion: alternatives at decision points this run opened *)
  let expand prefix decisions hb =
    let log = match hb with Some h -> Hb.dispatch_log h | None -> [||] in
    let plen = Array.length prefix in
    let base_preempt = preemptions prefix in
    List.iteri
      (fun i d ->
        if i >= plen then
          for a = 0 to Array.length d.d_enabled - 1 do
            if a <> d.d_chosen then
              if base_preempt + (if a <> 0 then 1 else 0) > cap then incr capped
              else if
                equivalent_alternative log ~from_pos:d.d_pos
                  ~alt_seq:d.d_enabled.(a)
              then incr pruned
              else begin
                let child = Array.make (i + 1) 0 in
                Array.blit prefix 0 child 0 plen;
                (* defaults between |prefix| and i are already 0 *)
                child.(i) <- a;
                Stack.push child frontier
              end
          done)
      decisions
  in
  while (not (Stack.is_empty frontier)) && !sweep_runs < budget do
    let prefix = Stack.pop frontier in
    (* Only the sweep's expansion reads the tracker; an unbounded
       scenario's flagged baseline recovers its pairs by a tracked re-run. *)
    let ((_, decisions, hb) as run) =
      run_once ~track:(sc.Scenarios.sc_bound <> None) sc
        (prefix_pick prefix)
    in
    incr sweep_runs;
    ignore (observe run);
    if sc.Scenarios.sc_bound <> None then expand prefix decisions hb;
    retire hb
  done;
  let truncated = Stack.length frontier in
  let walks_flagged = ref 0 in
  for seed = 0 to seeds - 1 do
    let ((_, _, hb) as run) = walk_run sc ~seed in
    if observe ~walk:seed run then incr walks_flagged;
    retire hb
  done;
  let stats =
    {
      st_runs = !sweep_runs;
      st_walks = max seeds 0;
      st_walks_flagged = !walks_flagged;
      st_decision_points = !decision_points;
      st_max_depth = !max_depth;
      st_pruned = !pruned;
      st_capped = !capped;
      st_truncated = truncated;
      st_distinct_states = Hashtbl.length states;
      st_exhaustive =
        sc.Scenarios.sc_bound <> None && truncated = 0 && !capped = 0;
    }
  in
  {
    e_scenario = sc;
    e_baseline = Option.get !baseline;
    e_flagged = List.rev !flagged_acc;
    e_pairs = !pairs_acc;
    e_stats = stats;
  }

let clean v = v.e_flagged = []
let flagged v = not (clean v)

(* --- replay ------------------------------------------------------------- *)

type replay_error =
  | Malformed_id of string
  | Choice_out_of_range of { at : int; choice : int; enabled : int }
  | Unreached of { at : int; reached : int }

let string_of_replay_error = function
  | Malformed_id s ->
    Printf.sprintf
      "malformed schedule id %S: expected \"fifo\" or comma-separated \
       POS:CHOICE pairs with distinct POS >= 0 and CHOICE >= 1 (e.g. \
       29:1,38:2)"
      s
  | Choice_out_of_range { at; choice; enabled } ->
    Printf.sprintf
      "schedule takes alternative %d at decision point %d, which offers \
       only %d (0..%d)"
      choice at enabled (enabled - 1)
  | Unreached { at; reached } ->
    Printf.sprintf
      "schedule names decision point %d, but this scenario reaches only %d \
       decision point%s"
      at reached (if reached = 1 then "" else "s")

(* Deterministic single-schedule reproduction (the --replay-schedule
   path). A schedule that does not fit the scenario — a choice beyond a
   decision point's alternatives, or a decision point the run never
   reaches — is an error, never a silently different run. *)
let replay (sc : Scenarios.t) ~schedule =
  match parse_schedule_id schedule with
  | None -> Error (Malformed_id schedule)
  | Some prefix -> (
    let bad = ref None in
    let pick i n =
      let c = prefix_pick prefix i n in
      if c < n then c
      else begin
        if !bad = None then
          bad := Some (Choice_out_of_range { at = i; choice = c; enabled = n });
        0
      end
    in
    let outcome, decisions, hb = run_once sc pick in
    let pairs = pairs_of hb in
    detach hb;
    let reached = List.length decisions in
    match !bad with
    | Some e -> Error e
    | None when reached < Array.length prefix ->
      Error (Unreached { at = Array.length prefix - 1; reached })
    | None -> Ok (outcome, pairs))

(* --- rendering ---------------------------------------------------------- *)

let finding_line = function
  | Divergent d -> Printf.sprintf "divergence: %s" d
  | Violating v -> Printf.sprintf "violation: %s" v
  | Deadlocked rep ->
    Printf.sprintf "deadlock: %d fiber(s) stuck" (List.length rep.Deadlock.rep_stuck)

let plural n = if n = 1 then "" else "s"

let coverage_line (sc : Scenarios.t) st =
  let sweep =
    match sc.Scenarios.sc_bound with
    | None -> ""
    | Some _ when st.st_exhaustive ->
      Printf.sprintf
        "exhaustive: all %d schedules run (%d equivalent alternatives \
         pruned) + "
        st.st_runs st.st_pruned
    | Some _ ->
      Printf.sprintf
        "bounded: %d schedules run (%d pruned, %d beyond preemption cap, %d \
         beyond run budget) + "
        st.st_runs st.st_pruned st.st_capped st.st_truncated
  in
  Printf.sprintf "%s%d seeded walk%s%s; %d inequivalent end state%s" sweep
    st.st_walks (plural st.st_walks)
    (if st.st_walks_flagged > 0 then
       Printf.sprintf " (%d flagged)" st.st_walks_flagged
     else "")
    st.st_distinct_states
    (plural st.st_distinct_states)

let render ?(verbose = false) v =
  let b = Buffer.create 256 in
  let sc = v.e_scenario in
  Buffer.add_string b
    (Printf.sprintf "%-20s %-7s %s" sc.Scenarios.sc_name
       (if sc.Scenarios.sc_buggy then "[buggy]" else "[clean]")
       (coverage_line sc v.e_stats));
  if clean v then Buffer.add_string b "\n  no divergence, no violations, no deadlock"
  else begin
    let shown = if verbose then max_int else 3 in
    List.iteri
      (fun i f ->
        if i < shown then
          Buffer.add_string b
            (Printf.sprintf "\n  %sschedule %s (%d preemption%s): %s"
               (match f.fl_walk with
               | Some s -> Printf.sprintf "walk %d: " s
               | None -> "")
               f.fl_schedule f.fl_preemptions (plural f.fl_preemptions)
               (finding_line f.fl_finding)))
      v.e_flagged;
    (if List.length v.e_flagged > shown then
       Buffer.add_string b
         (Printf.sprintf "\n  ... and %d more flagged schedule(s)"
            (List.length v.e_flagged - shown)));
    List.iteri
      (fun i p ->
        if i < shown then Buffer.add_string b ("\n  " ^ Hb.render_pair p))
      v.e_pairs;
    (match v.e_flagged with
    | f :: _ ->
      (match f.fl_finding with
      | Deadlocked rep when verbose -> Buffer.add_string b ("\n" ^ Deadlock.render rep)
      | _ -> ());
      Buffer.add_string b
        (Printf.sprintf
           "\n  replay deterministically with: ulsbench races --scenario %s \
            --replay-schedule %s"
           sc.Scenarios.sc_name f.fl_schedule)
    | [] -> ())
  end;
  Buffer.contents b
