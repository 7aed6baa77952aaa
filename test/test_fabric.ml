(* Tests for the sharded serving fabric: the consistent-hash ring's
   placement contract (balance, minimal disruption on membership change,
   order-independence), the SO_REUSEPORT steering hash, and fleet-scale
   end-to-end runs over both stacks — clean, kill-mid-load, and
   drain-mid-load — including schedule-independence of the report. *)

open Uls_engine
module Ring = Uls_fabric.Ring
module Reuseport = Uls_server.Reuseport
module Load = Uls_bench.Load

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let contains ~affix s =
  let n = String.length affix and l = String.length s in
  let rec go i = i + n <= l && (String.sub s i n = affix || go (i + 1)) in
  go 0

(* --- consistent-hash ring --------------------------------------------- *)

let keys n = List.init n (fun i -> i)

let owners ring ks =
  List.map (fun k -> (k, Option.get (Ring.lookup ring ~key:k))) ks

let full_ring ~seed cells =
  let ring = Ring.create ~seed () in
  for c = 0 to cells - 1 do
    Ring.add ring c
  done;
  ring

let test_ring_balance () =
  let cells = 8 and n = 100_000 in
  let ring = full_ring ~seed:3 cells in
  let counts = Array.make cells 0 in
  List.iter
    (fun (_, c) -> counts.(c) <- counts.(c) + 1)
    (owners ring (keys n));
  let ideal = float_of_int n /. float_of_int cells in
  Array.iteri
    (fun c got ->
      let ratio = float_of_int got /. ideal in
      check_bool
        (Printf.sprintf "cell %d share %.2fx ideal within 30%%" c ratio)
        true
        (ratio > 0.7 && ratio < 1.3))
    counts

let test_ring_remove_minimal_disruption () =
  let cells = 8 and n = 50_000 in
  let ring = full_ring ~seed:5 cells in
  let before = owners ring (keys n) in
  Ring.remove ring 3;
  let moved = ref 0 in
  List.iter
    (fun (k, old) ->
      let now = Option.get (Ring.lookup ring ~key:k) in
      if old = 3 then begin
        check_bool "victim's key remapped" true (now <> 3);
        incr moved
      end
      else check_int "survivor's key stayed" old now)
    before;
  (* Only the victim's keys moved, so the moved fraction is the victim's
     share: ~1/8 of all keys (within the ring's balance tolerance). *)
  let frac = float_of_int !moved /. float_of_int n in
  check_bool
    (Printf.sprintf "moved fraction %.3f ~ 1/8" frac)
    true
    (frac > 0.08 && frac < 0.17)

let test_ring_add_moves_only_to_newcomer () =
  let cells = 8 and n = 50_000 in
  let ring = full_ring ~seed:7 cells in
  let before = owners ring (keys n) in
  Ring.add ring cells;
  let moved = ref 0 in
  List.iter
    (fun (k, old) ->
      let now = Option.get (Ring.lookup ring ~key:k) in
      if now <> old then begin
        check_int "moved key landed on the newcomer" cells now;
        incr moved
      end)
    before;
  let frac = float_of_int !moved /. float_of_int n in
  check_bool
    (Printf.sprintf "moved fraction %.3f ~ 1/9" frac)
    true
    (frac > 0.06 && frac < 0.16)

let test_ring_order_independent () =
  let a = Ring.create ~seed:9 () and b = Ring.create ~seed:9 () in
  List.iter (Ring.add a) [ 0; 1; 2; 3; 4 ];
  List.iter (Ring.add b) [ 4; 2; 0; 3; 1 ];
  List.iter
    (fun k ->
      check_bool "same owner regardless of insertion order" true
        (Ring.lookup a ~key:k = Ring.lookup b ~key:k))
    (keys 10_000);
  check_bool "members ascending" true (Ring.members a = [ 0; 1; 2; 3; 4 ])

let test_ring_empty_and_idempotent () =
  let r = Ring.create () in
  check_bool "empty ring has no owner" true (Ring.lookup r ~key:7 = None);
  Ring.add r 1;
  Ring.add r 1;
  check_int "add idempotent" 1 (Ring.size r);
  Ring.remove r 1;
  Ring.remove r 1;
  check_int "remove idempotent" 0 (Ring.size r);
  check_bool "empty again" true (Ring.lookup r ~key:7 = None)

(* --- SO_REUSEPORT steering hash ---------------------------------------- *)

let test_steering_hash_spread_and_affinity () =
  let shards = 4 in
  let counts = Array.make shards 0 in
  for node = 0 to 1023 do
    let addr = { Uls_api.Sockets_api.node; port = 1_000 + (node mod 7) } in
    let s = Reuseport.hash addr mod shards in
    (* Flow affinity: the same peer address always steers the same way. *)
    check_int "deterministic steering" s (Reuseport.hash addr mod shards);
    counts.(s) <- counts.(s) + 1
  done;
  Array.iteri
    (fun i c ->
      check_bool
        (Printf.sprintf "shard %d fed (%d/1024)" i c)
        true
        (c > 1024 / shards / 2))
    counts

(* --- fleet end-to-end -------------------------------------------------- *)

let small ?(kind = `Sub Uls_substrate.Options.server) ?kill ?drain () =
  {
    Load.default with
    kind;
    topology =
      Load.Fabric { Load.fabric with cells = 3; shards = 2; kill; drain };
    arrival = Load.Sessions 20_000.;
    conns = 48;
    requests_per_conn = 2;
    size = 64;
    client_nodes = 3;
    backlog = 128;
    seed = 7;
  }

let check_clean label (r : Load.report) =
  check_bool (label ^ " quiesced") true r.Load.completed_run;
  check_bool (label ^ " intact") true r.Load.intact;
  check_int (label ^ " established") 48 r.Load.established;
  check_int (label ^ " completed") 96 r.Load.completed;
  check_int (label ^ " failures") 0
    (r.Load.shed + r.Load.refused + r.Load.resets + r.Load.errors
   + r.Load.mismatches + r.Load.no_route);
  check_bool (label ^ " flows spread over every cell") true
    (Array.for_all (fun c -> c.Load.c_connects > 0) r.Load.per_cell)

let test_fleet_substrate_deterministic () =
  let cfg = small () in
  let a = Load.run cfg in
  let b = Load.run cfg in
  check_clean "fleet/sub" a;
  check_bool "deterministic report" true (a = b)

let test_fleet_tcp () = check_clean "fleet/tcp" (Load.run (small ~kind:(`Tcp Uls_tcp.Config.default) ()))

let test_fleet_reuseport_fanout () =
  let steered = ref 0 in
  let cfg =
    {
      (small ()) with
      topology = Load.Fabric { Load.fabric with cells = 1; shards = 4 };
      conns = 64;
      client_nodes = 4;
    }
  in
  let r =
    Load.run
      ~on_metrics:(fun m ->
        steered := Metrics.counter_value m ~node:0 "server.reuseport.steered")
      cfg
  in
  check_bool "quiesced" true r.Load.completed_run;
  check_bool "intact" true r.Load.intact;
  (* Every accepted connection (clients and health probes) went through
     the reuseport demux to a shard. *)
  check_bool
    (Printf.sprintf "demux steered >= established (%d >= %d)" !steered
       r.Load.established)
    true
    (!steered >= r.Load.established)

let check_failover label (r : Load.report) ~killed =
  check_bool (label ^ " quiesced") true r.Load.completed_run;
  check_bool (label ^ " intact") true r.Load.intact;
  check_bool (label ^ " ring healed") true (r.Load.healed_at_ms >= 0.);
  check_str (label ^ " killed cell down") "down"
    r.Load.per_cell.(killed).Load.c_state;
  Array.iteri
    (fun id c ->
      if id <> killed then
        check_int
          (Printf.sprintf "%s survivor cell %d clean" label id)
          0
          (c.Load.c_resets + c.Load.c_refused + c.Load.c_errors))
    r.Load.per_cell

let kill_cfg kind =
  (* Arrivals span ~32 ms at 2000/s, so the 8 ms kill lands mid-load
     with flows still arriving for the dead cell's key range. *)
  {
    (small ~kind ~kill:(1, Time.ms 8) ()) with
    conns = 64;
    arrival = Load.Sessions 2_000.;
  }

let test_fleet_kill_failover_tcp () =
  check_failover "kill/tcp"
    (Load.run (kill_cfg (`Tcp Uls_tcp.Config.default)))
    ~killed:1

let report_text cfg r =
  Format.asprintf "%a" (fun fmt r -> Load.print_report fmt cfg r) r

let test_fleet_kill_failover_substrate () =
  let cfg = kill_cfg (`Sub Uls_substrate.Options.server) in
  let r = Load.run cfg in
  check_failover "kill/sub" r ~killed:1;
  check_bool "report: ring healed" true
    (contains ~affix:"ring healed at" (report_text cfg r))

(* Kernel TCP's single cell at 8000 sessions/s fails a connect under
   load and is marked down with nothing killed: the report says so
   instead of calling it a heal. *)
let test_report_down_without_kill () =
  let cfg =
    {
      Load.default with
      kind = `Tcp Uls_tcp.Config.default;
      topology =
        Load.Fabric { Load.fabric with cells = 1; shards = 2; vnodes = 64 };
      arrival = Load.Sessions 8_000.;
      conns = 256;
      requests_per_conn = 2;
      size = 128;
      client_nodes = 4;
      backlog = 128;
    }
  in
  let r = Load.run cfg in
  check_bool "a cell was marked down" true (r.Load.healed_at_ms >= 0.);
  let text = report_text cfg r in
  check_bool "no heal reported" false (contains ~affix:"ring healed" text);
  check_bool "down without a kill reported" true
    (contains ~affix:"cell marked down at" text
    && contains ~affix:"without a kill" text)

let test_fleet_drain () =
  let cfg =
    {
      (small ~drain:(0, Time.ms 8) ()) with
      conns = 64;
      arrival = Load.Sessions 2_000.;
    }
  in
  let r = Load.run cfg in
  check_bool "quiesced" true r.Load.completed_run;
  check_bool "intact" true r.Load.intact;
  check_bool "drain completed" true (r.Load.drained_at_ms >= 0.);
  check_str "cell drained" "drained" r.Load.per_cell.(0).Load.c_state;
  (* Draining is graceful: nothing breaks anywhere. *)
  check_int "no failures" 0
    (r.Load.resets + r.Load.refused + r.Load.errors + r.Load.shed)

(* The report's schedule-independent facts must not change when
   same-timestamp dispatch order is perturbed by a seeded random walk —
   the schedule explorer's discipline applied to the whole fabric. *)
let test_fleet_schedule_independent () =
  let base = small () in
  let facts (r : Load.report) =
    ( r.Load.established,
      r.Load.completed,
      r.Load.shed + r.Load.refused + r.Load.resets + r.Load.errors,
      r.Load.mismatches,
      r.Load.remapped,
      r.Load.no_route,
      Array.map
        (fun c -> (c.Load.c_state, c.Load.c_connects, c.Load.c_completed))
        r.Load.per_cell )
  in
  let fifo = facts (Load.run { base with tiebreak = Some `Fifo }) in
  for s = 0 to 2 do
    let rng = Rng.create ~seed:s in
    let walk enabled = Rng.int rng (Array.length enabled) in
    let p = facts (Load.run { base with tiebreak = Some (`Controlled (walk, ignore)) }) in
    check_bool (Printf.sprintf "walk seed %d matches fifo" s) true
      (p = fifo)
  done

(* HTTP over a 2-cell fabric: topology and workload are independent
   fields of the spec. Each cell's client-side count must agree with
   its server. *)
let test_fleet_http () =
  let cfg =
    {
      (small ()) with
      workload = Load.Http;
      topology = Load.Fabric { Load.fabric with cells = 2; shards = 2 };
      requests_per_conn = 3;
      size = 200;
    }
  in
  let a = Load.run cfg in
  let b = Load.run cfg in
  check_bool "quiesced" true a.Load.completed_run;
  check_bool "intact" true a.Load.intact;
  check_bool "deterministic report" true (a = b);
  check_int "established" 48 a.Load.established;
  check_int "completed" 144 a.Load.completed;
  check_int "cells" 2 (Array.length a.Load.per_cell);
  Array.iteri
    (fun id c ->
      check_bool (Printf.sprintf "cell %d served flows" id) true
        (c.Load.c_connects > 0);
      check_int
        (Printf.sprintf "cell %d completes 3 per conn" id)
        (3 * c.Load.c_connects) c.Load.c_completed;
      check_int
        (Printf.sprintf "cell %d server agrees" id)
        c.Load.c_completed c.Load.c_server_requests)
    a.Load.per_cell

let suites =
  [
    ( "fabric.ring",
      [
        Alcotest.test_case "balance across cells" `Quick test_ring_balance;
        Alcotest.test_case "remove: minimal disruption" `Quick
          test_ring_remove_minimal_disruption;
        Alcotest.test_case "add: moves only to newcomer" `Quick
          test_ring_add_moves_only_to_newcomer;
        Alcotest.test_case "insertion-order independent" `Quick
          test_ring_order_independent;
        Alcotest.test_case "empty + idempotent membership" `Quick
          test_ring_empty_and_idempotent;
      ] );
    ( "fabric.reuseport",
      [
        Alcotest.test_case "steering hash spread + affinity" `Quick
          test_steering_hash_spread_and_affinity;
      ] );
    ( "fabric.fleet",
      [
        Alcotest.test_case "substrate echo deterministic" `Quick
          test_fleet_substrate_deterministic;
        Alcotest.test_case "tcp echo" `Quick test_fleet_tcp;
        Alcotest.test_case "reuseport fanout" `Quick test_fleet_reuseport_fanout;
        Alcotest.test_case "kill failover (tcp)" `Quick
          test_fleet_kill_failover_tcp;
        Alcotest.test_case "kill failover (substrate)" `Quick
          test_fleet_kill_failover_substrate;
        Alcotest.test_case "drain mid-load" `Quick test_fleet_drain;
        Alcotest.test_case "report: cell down without a kill" `Quick
          test_report_down_without_kill;
        Alcotest.test_case "schedule-independent report" `Quick
          test_fleet_schedule_independent;
        Alcotest.test_case "http over a 2-cell fabric" `Quick test_fleet_http;
      ] );
  ]
