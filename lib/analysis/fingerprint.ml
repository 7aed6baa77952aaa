(* Final-state fingerprint for the schedule explorer. The whole point of
   schedule perturbation is that a *correct* run reaches the same
   semantic end state under every same-timestamp reordering, so the
   fingerprint may only include observables the protocol contract
   promises to be schedule-independent: application-level operation
   counts, the surviving connection table, recorded invariant
   violations, and whatever the scenario itself observed (payload
   digests). Timing-sensitive counters — frames, retransmissions,
   acks, read() call counts (reads may split differently) — are
   deliberately excluded: they legitimately differ between schedules
   and would drown real divergence in noise. *)

open Uls_engine

(* Counters whose value is fixed by the application's behaviour, not by
   scheduling: how many connects/accepts/writes the scenario performed,
   how many connections were torn down by transport failure, how many
   sends EMP abandoned. *)
let stable_counters =
  [
    "emp.send_failures";
    "sub.accepts";
    "sub.connects";
    "sub.resets";
    "sub.writes";
  ]

type t = {
  fp_lines : string list;
  fp_digest : string;
}

let digest t = t.fp_digest

let capture ?(observables = []) sim ~subs =
  let metrics = Metrics.for_sim sim in
  let counters =
    Metrics.counters_snapshot metrics
    |> List.filter_map (fun (node, name, v) ->
           if List.mem name stable_counters then
             Some (Printf.sprintf "counter node=%d %s=%d" node name v)
           else None)
  in
  let conn_tables =
    List.map
      (fun (node, sub) ->
        let ids = Uls_substrate.Substrate.conn_ids sub in
        Printf.sprintf "conns node=%d [%s]" node
          (String.concat ";" (List.map string_of_int ids)))
      subs
  in
  let violations =
    List.map
      (fun v ->
        (* No timestamp: *when* a violation fired is schedule-dependent,
           *that* it fired is not. *)
        Printf.sprintf "violation %s: %s" v.Invariant.v_name
          v.Invariant.v_detail)
      (Invariant.violations (Invariant.for_sim sim))
  in
  let observables = List.map (fun o -> "observe " ^ o) observables in
  let fp_lines = counters @ conn_tables @ violations @ observables in
  { fp_lines; fp_digest = Digest.to_hex (Digest.string (String.concat "\n" fp_lines)) }

let equal a b = a.fp_digest = b.fp_digest

let first_difference a b =
  if equal a b then None
  else
    (* Walk the two line lists for the first mismatch; fall back to the
       digests if one is a prefix of the other. *)
    let rec walk la lb =
      match (la, lb) with
      | [], [] -> Printf.sprintf "digests differ (%s vs %s)" a.fp_digest b.fp_digest
      | x :: _, [] -> Printf.sprintf "extra line %S" x
      | [], y :: _ -> Printf.sprintf "missing line %S" y
      | x :: la', y :: lb' ->
        if String.equal x y then walk la' lb'
        else Printf.sprintf "%S vs %S" x y
    in
    Some (walk a.fp_lines b.fp_lines)

let to_string t =
  String.concat "\n" ((Printf.sprintf "fingerprint %s" t.fp_digest) :: t.fp_lines)
