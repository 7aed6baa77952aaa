(* Tests for the sharded serving fabric: the consistent-hash ring's
   placement contract (balance, minimal disruption on membership change,
   order-independence), the SO_REUSEPORT steering hash, and fleet-scale
   end-to-end runs over both stacks — clean, kill-mid-load, and
   drain-mid-load — including schedule-independence of the report. *)

open Uls_engine
module Ring = Uls_fabric.Ring
module Reuseport = Uls_server.Reuseport
module Fleet = Uls_bench.Fleet
module Chaos = Uls_bench.Chaos

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

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
    let s = Reuseport.default_hash addr mod shards in
    (* Flow affinity: the same peer address always steers the same way. *)
    check_int "deterministic steering" s (Reuseport.default_hash addr mod shards);
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

let small ?(kind = `Sub Uls_substrate.Options.server) () =
  {
    Fleet.default with
    kind;
    cells = 3;
    shards = 2;
    conns = 48;
    rate = 20_000.;
    size = 64;
    client_nodes = 3;
    seed = 7;
  }

let check_clean label (r : Fleet.report) =
  check_bool (label ^ " quiesced") true r.Fleet.completed_run;
  check_bool (label ^ " intact") true r.Fleet.intact;
  check_int (label ^ " established") 48 r.Fleet.established;
  check_int (label ^ " completed") 96 r.Fleet.completed;
  check_int (label ^ " failures") 0
    (r.Fleet.shed + r.Fleet.refused + r.Fleet.resets + r.Fleet.errors
   + r.Fleet.mismatches + r.Fleet.no_route);
  check_bool (label ^ " flows spread over every cell") true
    (Array.for_all (fun c -> c.Fleet.c_connects > 0) r.Fleet.per_cell)

let test_fleet_substrate_deterministic () =
  let cfg = small () in
  let a = Fleet.run cfg in
  let b = Fleet.run cfg in
  check_clean "fleet/sub" a;
  check_bool "deterministic report" true (a = b)

let test_fleet_tcp () = check_clean "fleet/tcp" (Fleet.run (small ~kind:(`Tcp Uls_tcp.Config.default) ()))

let test_fleet_reuseport_fanout () =
  let steered = ref 0 in
  let cfg =
    { (small ()) with cells = 1; shards = 4; conns = 64; client_nodes = 4 }
  in
  let r =
    Fleet.run
      ~on_metrics:(fun m ->
        steered := Metrics.counter_value m ~node:0 "server.reuseport.steered")
      cfg
  in
  check_bool "quiesced" true r.Fleet.completed_run;
  check_bool "intact" true r.Fleet.intact;
  (* Every accepted connection (clients and health probes) went through
     the reuseport demux to a shard. *)
  check_bool
    (Printf.sprintf "demux steered >= established (%d >= %d)" !steered
       r.Fleet.established)
    true
    (!steered >= r.Fleet.established)

let check_failover label (r : Fleet.report) ~killed =
  check_bool (label ^ " quiesced") true r.Fleet.completed_run;
  check_bool (label ^ " intact") true r.Fleet.intact;
  check_bool (label ^ " ring healed") true (r.Fleet.healed_at_ms >= 0.);
  check_str (label ^ " killed cell down") "down"
    r.Fleet.per_cell.(killed).Fleet.c_state;
  Array.iteri
    (fun id c ->
      if id <> killed then
        check_int
          (Printf.sprintf "%s survivor cell %d clean" label id)
          0
          (c.Fleet.c_resets + c.Fleet.c_refused + c.Fleet.c_errors))
    r.Fleet.per_cell

let kill_cfg kind =
  (* Arrivals span ~32 ms at 2000/s, so the 8 ms kill lands mid-load
     with flows still arriving for the dead cell's key range. *)
  {
    (small ~kind ()) with
    conns = 64;
    rate = 2_000.;
    kill = Some (1, Time.ms 8);
  }

let test_fleet_kill_failover_tcp () =
  check_failover "kill/tcp"
    (Fleet.run (kill_cfg (`Tcp Uls_tcp.Config.default)))
    ~killed:1

let test_fleet_kill_failover_substrate () =
  check_failover "kill/sub"
    (Fleet.run (kill_cfg (`Sub Uls_substrate.Options.server)))
    ~killed:1

let test_fleet_drain () =
  let cfg =
    { (small ()) with conns = 64; rate = 2_000.; drain = Some (0, Time.ms 8) }
  in
  let r = Fleet.run cfg in
  check_bool "quiesced" true r.Fleet.completed_run;
  check_bool "intact" true r.Fleet.intact;
  check_bool "drain completed" true (r.Fleet.drained_at_ms >= 0.);
  check_str "cell drained" "drained" r.Fleet.per_cell.(0).Fleet.c_state;
  (* Draining is graceful: nothing breaks anywhere. *)
  check_int "no failures" 0
    (r.Fleet.resets + r.Fleet.refused + r.Fleet.errors + r.Fleet.shed)

(* The report's schedule-independent facts must not change when
   same-timestamp dispatch order is perturbed by a seeded random walk —
   the schedule explorer's discipline applied to the whole fabric. *)
let test_fleet_schedule_independent () =
  let base = small () in
  let facts (r : Fleet.report) =
    ( r.Fleet.established,
      r.Fleet.completed,
      r.Fleet.shed + r.Fleet.refused + r.Fleet.resets + r.Fleet.errors,
      r.Fleet.mismatches,
      r.Fleet.remapped,
      r.Fleet.no_route,
      Array.map
        (fun c -> (c.Fleet.c_state, c.Fleet.c_connects, c.Fleet.c_completed))
        r.Fleet.per_cell )
  in
  let fifo = facts (Fleet.run { base with tiebreak = Some `Fifo }) in
  for s = 0 to 2 do
    let rng = Rng.create ~seed:s in
    let walk enabled = Rng.int rng (Array.length enabled) in
    let p = facts (Fleet.run { base with tiebreak = Some (`Controlled walk) }) in
    check_bool (Printf.sprintf "walk seed %d matches fifo" s) true
      (p = fifo)
  done

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
        Alcotest.test_case "schedule-independent report" `Quick
          test_fleet_schedule_independent;
      ] );
  ]
