(* Tests for the ring-based batched I/O subsystem: cursor-ring
   mechanics (wrap-around, overflow past 2^62), ringpair semantics
   (doorbell batching, backpressure, reaping, busy-poll parity), and
   the end-to-end firehose invariants (batch=1 ablation parity on both
   match engines, doorbell/fetch audit, chaos soak) and storm's (every
   probe accepted, exact audit, ring use only when batched). *)
open Uls_engine
module CR = Uls_rings.Cursor_ring
module RP = Uls_rings.Ringpair
module Rings = Uls_bench.Rings

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Cursor_ring mechanics --- *)

let test_wrap_around () =
  let r = CR.create ~capacity:4 ~dummy:(-1) () in
  (* Push/pop more than 3x capacity so the slot index wraps repeatedly;
     FIFO order must survive every wrap. *)
  let popped = ref [] in
  for i = 0 to 13 do
    CR.push_exn r i;
    if i mod 2 = 1 then (
      match CR.pop_up_to r ~max:2 with
      | [ a; b ] -> popped := b :: a :: !popped
      | _ -> Alcotest.fail "pop on non-empty ring")
  done;
  Alcotest.(check (list int))
    "FIFO across wraps"
    (List.init 14 (fun i -> i))
    (List.rev !popped);
  check_bool "drained" true (CR.is_empty r)

let test_full_empty_edges () =
  let r = CR.create ~capacity:2 ~dummy:0 () in
  check_bool "fresh ring empty" true (CR.is_empty r);
  CR.push_exn r 1;
  CR.push_exn r 2;
  Alcotest.check_raises "full ring rejects"
    (Failure "Cursor_ring.push_exn: ring full") (fun () -> CR.push_exn r 3);
  check_bool "full" true (CR.is_full r);
  check_int "length" 2 (CR.length r);
  check_bool "drop_oldest" true (CR.drop_oldest r);
  Alcotest.(check (list int)) "2 survives the drop" [ 2 ] (CR.pop_up_to r ~max:1);
  check_bool "drop on empty" false (CR.drop_oldest r);
  Alcotest.(check (list int)) "pop on empty" [] (CR.pop_up_to r ~max:1)

let test_cursor_overflow () =
  (* Cursors are free-running ints; place them within a few pushes of
     max_int (2^62 - 1 on 64-bit) and run straight through the
     wrap. Two's-complement distances must keep length/full/empty
     correct on both sides of the overflow. *)
  let r = CR.create ~start:(max_int - 3) ~capacity:8 ~dummy:(-1) () in
  check_bool "starts empty near max_int" true (CR.is_empty r);
  for i = 0 to 7 do
    CR.push_exn r i
  done;
  check_bool "full across overflow" true (CR.is_full r);
  check_int "length across overflow" 8 (CR.length r);
  Alcotest.(check (list int))
    "order across overflow"
    (List.init 8 (fun i -> i))
    (CR.pop_up_to r ~max:8);
  check_bool "empty after overflow drain" true (CR.is_empty r);
  CR.push_exn r 99;
  Alcotest.(check (list int)) "post-overflow pop" [ 99 ] (CR.pop_up_to r ~max:1)

let test_consumed_slots_release () =
  (* Every way out of the ring (pop, overflow drop) hands the
     slot back to the dummy: a 1024-slot completion ring must not keep
     up to 1024 finished sends and their buffers reachable. *)
  let r = CR.create ~capacity:4 ~dummy:(Bytes.create 1) () in
  let tracked = Weak.create 3 in
  let push_tracked i =
    let x = Bytes.make 64 'x' in
    Weak.set tracked i (Some x);
    CR.push_exn r x
  in
  for i = 0 to 2 do
    push_tracked i
  done;
  ignore (Sys.opaque_identity (CR.pop_up_to r ~max:2));
  check_bool "drop_oldest" true (CR.drop_oldest r);
  check_bool "drained" true (CR.is_empty r);
  Gc.full_major ();
  for i = 0 to 2 do
    check_bool (Printf.sprintf "element %d collectable" i) false
      (Weak.check tracked i)
  done;
  ignore (Sys.opaque_identity r)

(* --- Ringpair semantics --- *)

let model = Uls_host.Cost_model.paper_testbed

let mk_ring ?mode ?capacity ?(consume = fun _ -> ()) sim =
  let nic_cpu = Resource.create sim ~name:"nic" in
  RP.create ?mode ?capacity ~label:"test-ring" ~on_cq_flush:ignore sim ~model
    ~nic_cpu ~dummy_sub:(-1) ~dummy_comp:(-1) ~consume ()

let test_doorbell_batching () =
  let sim = Sim.create () in
  let consumed = ref [] in
  let rp = mk_ring ~consume:(fun x -> consumed := x :: !consumed) sim in
  Sim.spawn sim (fun () ->
      for i = 0 to 31 do
        RP.submit rp i
      done;
      RP.ring_doorbell rp;
      (* An empty-SQ doorbell ring must be a free no-op. *)
      Sim.delay sim (Time.ms 1);
      RP.ring_doorbell rp);
  ignore (Sim.run sim);
  let s = RP.stats rp in
  check_int "one doorbell covers the batch" 1 s.RP.doorbells;
  check_int "one fetch batch" 1 s.RP.fetch_batches;
  check_int "all fetched" 32 s.RP.fetched;
  Alcotest.(check (list int))
    "consumed in order"
    (List.init 32 (fun i -> i))
    (List.rev !consumed)

let test_coalesced_doorbells () =
  (* Every doorbell is fetched once or coalesced once. The first fetch
     (one slot) runs 2.6 us; two slots and two doorbells arrive during
     it, and the second doorbell joins the fetch the first made due. A
     doorbell rung during that second fetch, for slots it already took,
     joins it too. *)
  let sim = Sim.create () in
  let rp = mk_ring sim in
  Sim.spawn sim (fun () ->
      RP.submit rp 0;
      RP.ring_doorbell rp;
      RP.submit rp 1;
      RP.ring_doorbell rp;
      RP.submit rp 2;
      RP.ring_doorbell rp;
      Sim.delay sim 1_500;
      RP.ring_doorbell rp);
  ignore (Sim.run sim);
  let s = RP.stats rp in
  check_int "doorbells" 4 s.RP.doorbells;
  check_int "fetches" 2 s.RP.fetch_batches;
  check_int "coalesced" 2 s.RP.coalesced;
  check_int "all fetched" 3 s.RP.fetched

let test_backpressure_block () =
  let sim = Sim.create () in
  let rp = mk_ring ~capacity:4 sim in
  let submitted = ref 0 in
  Sim.spawn sim (fun () ->
      (* 12 submissions through a 4-slot SQ: the producer must block on
         the full ring (flushing the doorbell first, or it would
         deadlock) and still land every descriptor. *)
      for i = 0 to 11 do
        RP.submit rp i;
        incr submitted
      done;
      RP.ring_doorbell rp);
  ignore (Sim.run sim);
  let s = RP.stats rp in
  check_int "all submitted" 12 !submitted;
  check_int "all fetched" 12 s.RP.fetched;
  check_bool "multiple doorbells forced by blocking" true (s.RP.doorbells > 1)

let test_empty_reap () =
  let sim = Sim.create () in
  let rp = mk_ring sim in
  Sim.spawn sim (fun () ->
      let t0 = Sim.now sim in
      Alcotest.(check (list int)) "empty reap returns nothing" []
        (RP.reap rp ~max:8);
      check_int "empty reap is free" t0 (Sim.now sim));
  ignore (Sim.run sim);
  check_int "nothing reaped" 0 (RP.stats rp).RP.reaped

let test_reap_batching () =
  let sim = Sim.create () in
  let rp = mk_ring sim in
  Sim.spawn sim (fun () ->
      for i = 0 to 5 do
        RP.complete rp i
      done;
      let t0 = Sim.now sim in
      Alcotest.(check (list int))
        "bulk reap, oldest first"
        [ 0; 1; 2; 3; 4 ]
        (RP.reap rp ~max:5);
      (* First completion pays emp_host_reap; the other four ride at
         ring_reap_slot each. *)
      check_int "reap charge"
        (model.Uls_host.Cost_model.emp_host_reap
        + (4 * model.Uls_host.Cost_model.ring_reap_slot))
        (Sim.now sim - t0);
      Alcotest.(check (list int)) "remainder" [ 5 ] (RP.reap rp ~max:5));
  ignore (Sim.run sim);
  check_int "all reaped" 6 (RP.stats rp).RP.reaped

let test_busy_poll_parity () =
  (* Both modes must consume the identical descriptor sequence; only
     the notification accounting differs (busy-poll rings nothing). *)
  let run_mode mode =
    let sim = Sim.create () in
    let consumed = ref [] in
    let rp =
      mk_ring ~mode ~consume:(fun x -> consumed := x :: !consumed) sim
    in
    Sim.spawn sim (fun () ->
        for i = 0 to 63 do
          RP.submit rp i;
          if i mod 16 = 15 then RP.ring_doorbell rp
        done);
    ignore (Sim.run sim);
    (List.rev !consumed, (RP.stats rp).RP.doorbells)
  in
  let wake, wake_bells = run_mode RP.Wakeup in
  let poll, poll_bells = run_mode RP.Busy_poll in
  Alcotest.(check (list int)) "same descriptors either mode" wake poll;
  check_int "wakeup rang per batch" 4 wake_bells;
  check_int "busy-poll rang nothing" 0 poll_bells

(* --- End-to-end firehose invariants --- *)

let quick =
  {
    Rings.default with
    workload = Rings.Firehose { Rings.firehose with sinks = 2; count = 300 };
  }

let test_batch1_parity_both_engines () =
  (* batch=1 is the per-call ablation: no ring traffic, strict
     doorbell/fetch equality, and (descriptor handling being
     tag-for-tag identical) the same virtual-time result on both match
     engines at the pinned seed. *)
  List.iter
    (fun engine ->
      let r = Rings.run { quick with batch = 1; match_engine = engine } in
      check_bool "completed" true r.completed_run;
      check_bool "intact" true r.intact;
      check_int "no ring traffic at batch=1" 0 r.ring_submitted;
      check_int "no ring doorbells at batch=1" 0 r.ring_doorbells;
      check_int "doorbell audit exact at batch=1" r.doorbells r.mailbox_fetches)
    [ Uls_nic.Match_list.Linear; Uls_nic.Match_list.Hashed ];
  let linear =
    Rings.run
      { quick with batch = 1; match_engine = Uls_nic.Match_list.Linear }
  in
  let hashed =
    Rings.run
      { quick with batch = 1; match_engine = Uls_nic.Match_list.Hashed }
  in
  check_int "same deliveries either engine" linear.completed hashed.completed;
  check_int "same bytes either engine" linear.bytes hashed.bytes

let test_determinism () =
  let a = Rings.run { quick with batch = 32 } in
  let b = Rings.run { quick with batch = 32 } in
  check_bool "seeded double-run byte-identical" true (a = b)

let test_doorbell_audit_pair () =
  let r = Rings.run { quick with batch = 32 } in
  check_bool "completed" true r.completed_run;
  check_bool "batched run uses the ring" true (r.ring_submitted > 0);
  (* Every doorbell is fetched once, or coalesced once into a tx-ring
     fetch already due or running. *)
  check_int "doorbells = fetches + coalesced" r.doorbells
    (r.mailbox_fetches + r.ring_coalesced)

let test_chaos_soak () =
  (* 2% seeded frame loss: the reliability layer must re-deliver every
     byte exactly, and the fault engine must actually have fired. *)
  let r =
    Rings.run
      {
        quick with
        workload =
          Rings.Firehose
            { Rings.firehose with sinks = 2; count = 300; loss = 0.02 };
      }
  in
  check_bool "completed under loss" true r.completed_run;
  check_bool "byte-exact under loss" true r.intact;
  check_int "zero mismatches" 0 r.failed;
  check_bool "faults actually injected" true (r.faults > 0);
  check_bool "losses were retransmitted" true (r.retransmits > 0)

(* --- End-to-end storm invariants --- *)

let small_storm batch =
  {
    Rings.default with
    workload =
      Rings.Storm
        { Rings.storm with scanners = 2; window = 16; probes = 200 };
    batch;
  }

let test_storm batch () =
  (* Every probe answered and accepted, the scanners' doorbells all
     fetched; the per-call ablation never touches the ring, batching
     does. *)
  let r = Rings.run (small_storm batch) in
  check_bool "completed" true r.completed_run;
  check_bool "intact" true r.intact;
  check_int "every probe answered" 400 r.completed;
  check_int "none refused" 0 r.failed;
  check_int "doorbell audit exact" r.doorbells r.mailbox_fetches;
  if batch = 1 then check_int "no ring traffic at batch=1" 0 r.ring_submitted
  else check_bool "batched run uses the ring" true (r.ring_submitted > 0);
  check_bool "seeded double-run byte-identical" true
    (Rings.run (small_storm batch) = r)

let suites =
  [
    ( "rings.cursor",
      [
        Alcotest.test_case "wrap-around FIFO" `Quick test_wrap_around;
        Alcotest.test_case "full/empty edges" `Quick test_full_empty_edges;
        Alcotest.test_case "overflow past 2^62" `Quick test_cursor_overflow;
        Alcotest.test_case "consumed slots release their element" `Quick
          test_consumed_slots_release;
      ] );
    ( "rings.pair",
      [
        Alcotest.test_case "doorbell batching" `Quick test_doorbell_batching;
        Alcotest.test_case "coalesced doorbells" `Quick test_coalesced_doorbells;
        Alcotest.test_case "backpressure: block" `Quick test_backpressure_block;
        Alcotest.test_case "empty reap" `Quick test_empty_reap;
        Alcotest.test_case "bulk reap charge" `Quick test_reap_batching;
        Alcotest.test_case "busy-poll vs wakeup parity" `Quick
          test_busy_poll_parity;
      ] );
    ( "rings.firehose",
      [
        Alcotest.test_case "batch=1 ablation parity (both engines)" `Quick
          test_batch1_parity_both_engines;
        Alcotest.test_case "seeded determinism" `Quick test_determinism;
        Alcotest.test_case "doorbell/fetch audit pair" `Quick
          test_doorbell_audit_pair;
        Alcotest.test_case "chaos soak: byte-exact at 2% loss" `Quick
          test_chaos_soak;
      ] );
    ( "rings.storm",
      [
        Alcotest.test_case "batch=1: intact, exact audit, no ring" `Quick
          (test_storm 1);
        Alcotest.test_case "batch=32: intact, exact audit, ring used" `Quick
          (test_storm 32);
      ] );
  ]
