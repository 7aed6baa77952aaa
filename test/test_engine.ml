(* Unit + property tests for the discrete-event core. *)
open Uls_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Vec --- *)

let test_vec_push_pop () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  check_int "length" 100 (Vec.length v);
  check_int "get" 42 (Vec.get v 42);
  check_int "pop" 99 (Vec.pop v);
  check_int "length after pop" 99 (Vec.length v)

let test_vec_bounds () =
  let v = Vec.create () in
  Vec.push v 1;
  Alcotest.check_raises "oob get" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 1));
  ignore (Vec.pop v);
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop v))

(* --- Heap --- *)

let test_heap_ordering () =
  let h = Heap.create ~cmp:compare in
  List.iter (Heap.push h) [ 5; 1; 4; 1; 3; 9; 2 ];
  let rec drain acc =
    match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 2; 3; 4; 5; 9 ] (drain [])

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains sorted" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Heap.create ~cmp:compare in
      List.iter (Heap.push h) xs;
      let rec drain acc =
        match Heap.pop h with None -> List.rev acc | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

(* --- Wheel --- *)

(* Elements are (time, pri, seq) triples compared structurally — the
   sim's (time, seq) tie-break contract plus a secondary key inside a
   timestamp, so ties are ordered by more than insertion order. The
   wheel keys its slots by (time, seq) alone, so pri and seq pack into
   the slot's seq as [pri lsl 12 lor seq]: for seq < 4096 that orders
   exactly as the triple does. *)
let wheel_push w (t, pri, seq) =
  ignore (Wheel.add w ~time:t ~seq:((pri lsl 12) lor seq) ignore : int)

let wheel_read w s =
  let k = Wheel.seq w s in
  (Wheel.time w s, k lsr 12, k land 0xfff)

let wheel_peek w =
  match Wheel.peek w with -1 -> None | s -> Some (wheel_read w s)

let wheel_pop w =
  match Wheel.pop w with
  | -1 -> None
  | s ->
    let x = wheel_read w s in
    let (_ : unit -> unit) = Wheel.take w s in
    Some x

let wheel_drain w =
  let rec go acc =
    match wheel_pop w with None -> List.rev acc | Some x -> go (x :: acc)
  in
  go []

let test_wheel_ordering () =
  let w = Wheel.create () in
  List.iter (fun t -> wheel_push w (t, 0, t)) [ 5; 1; 4; 3; 9; 2 ];
  check_int "length" 6 (Wheel.length w);
  Alcotest.(check (list int))
    "sorted drain" [ 1; 2; 3; 4; 5; 9 ]
    (List.map (fun (t, _, _) -> t) (wheel_drain w));
  check_int "empty after drain" 0 (Wheel.length w)

let test_wheel_overflow () =
  (* 256 ns grain: four levels cover 2^40 ns; anything beyond
     sits in the overflow heap and must migrate back in order *)
  let times =
    [ 0; 300; (1 lsl 41) + 5; 1 lsl 50; 700; (1 lsl 40) - 1; 1 lsl 40 ]
  in
  let w = Wheel.create () in
  List.iteri (fun i t -> wheel_push w (t, 0, i)) times;
  Alcotest.(check (list int))
    "overflow timers drain in time order"
    (List.sort compare times)
    (List.map (fun (t, _, _) -> t) (wheel_drain w))

let test_wheel_late_insert_after_peek () =
  let w = Wheel.create () in
  wheel_push w (1_000_000, 0, 1);
  (match wheel_peek w with
  | Some (1_000_000, _, _) -> ()
  | _ -> Alcotest.fail "peek");
  (* the peek advanced the internal cursor to the far slot; an insert
     below it (but at/after the last extraction, per the Sim contract)
     must still dispatch first *)
  wheel_push w (10, 0, 2);
  Alcotest.(check (list int))
    "earlier late insert dispatches first" [ 10; 1_000_000 ]
    (List.map (fun (t, _, _) -> t) (wheel_drain w))

(* Regression: a window-exhausted crossing whose new base coincides with
   slot boundaries at several levels at once. The cursor enters a new
   level-2 slot exactly when a level-0 window ends at the 2^24 edge;
   cascading only the immediate parent left the level-2 slot's contents
   parked until the wheel wrapped (~seconds late), and a higher cascade
   feeding [cur] directly could end the advance before the wrapped,
   now-due level-0 cursor-slot entries were scanned. Observed as
   out-of-order dispatch in the serve smoke under [--sched wheel]. *)
let test_wheel_coincident_boundary () =
  let w = Wheel.create () in
  let m = 1 lsl 24 in
  (* parked early in level-2 slot 1 *)
  wheel_push w (m + 100, 0, 1);
  (* walk the cursor to the last level-0 window before the 2^24 edge *)
  wheel_push w (m - 512, 0, 2);
  (match wheel_pop w with
  | Some (t, _, _) when t = m - 512 -> ()
  | _ -> Alcotest.fail "setup pop 1");
  wheel_push w (m - 256, 0, 3);
  (match wheel_pop w with
  | Some (t, _, _) when t = m - 256 -> ()
  | _ -> Alcotest.fail "setup pop 2");
  (* a wrapped level-0 entry just past the edge, and a level-1 entry
     further out that would pull the cursor over the parked element *)
  wheel_push w (m + 16, 0, 4);
  wheel_push w (m + (5 * 65536), 0, 5);
  Alcotest.(check (list int))
    "crossing the 2^24 edge dispatches every level in order"
    [ m + 16; m + 100; m + (5 * 65536) ]
    (List.map (fun (t, _, _) -> t) (wheel_drain w))

(* Regression: crossing out of the top level entered a new top-level
   slot without cascading it. An event placed there a whole turn
   earlier (its level-3 index equal to the cursor's, one turn ahead)
   stayed parked when an overflow event migrated below it and pulled
   the cursor past it: dispatched ~2^40 ns late. *)
let test_wheel_top_level_cross () =
  let w = Wheel.create () in
  let top = 1 lsl 40 in
  (* beyond the top level from base 0: the overflow heap *)
  wheel_push w (top + 60_000, 0, 1);
  (* move the cursor off the top-level slot's start *)
  wheel_push w (1_200_000, 0, 2);
  (match wheel_pop w with
  | Some (t, _, _) when t = 1_200_000 -> ()
  | _ -> Alcotest.fail "setup pop");
  (* now within the top level's range, in the cursor's own level-3
     slot one turn ahead *)
  wheel_push w (top + 50_000, 0, 3);
  Alcotest.(check (list int))
    "the wrapped top-level entry dispatches first"
    [ top + 50_000; top + 60_000 ]
    (List.map (fun (t, _, _) -> t) (wheel_drain w))

(* Pinned-seed heap-vs-wheel parity: random schedule/cancel/advance ops
   must yield identical dispatch sequences on both structures, with
   pri always 0 (the sim's FIFO order) and with random pri. The wheel
   cancels for real ([Wheel.cancel], which unlinks a bag member at once
   and leaves a heap member to be dropped when it surfaces); the heap
   oracle drops cancelled elements when they reach its top, as the
   sim's heap queue does. Cancelling an element already dispatched or
   cancelled, whose slot may since hold another, must do nothing. *)
let wheel_heap_parity ~shuffled seed =
  let rng = Rng.create ~seed in
  let h = Heap.create ~cmp:compare in
  let w = Wheel.create () in
  let seqr = ref 0 in
  let nowr = ref 0 in
  let live = ref [] and gone = ref [] in
  let slots = Hashtbl.create 64 in
  let cancelled = Hashtbl.create 64 in
  let rec heap_top () =
    match Heap.peek h with
    | Some (_, _, s) when Hashtbl.mem cancelled s ->
      ignore (Heap.pop h);
      heap_top ()
    | top -> top
  in
  let retire s =
    live := List.filter (fun s' -> s' <> s) !live;
    gone := s :: !gone
  in
  let pop_both () =
    match (heap_top (), wheel_pop w) with
    | None, None -> ()
    | Some a, Some b ->
      ignore (Heap.pop h);
      if a <> b then
        Alcotest.failf "seed %d: heap %s vs wheel %s" seed
          (let t, p, s = a in Printf.sprintf "(%d,%d,%d)" t p s)
          (let t, p, s = b in Printf.sprintf "(%d,%d,%d)" t p s);
      let t, _, s = a in
      nowr := t;
      retire s
    | _ -> Alcotest.failf "seed %d: one structure drained early" seed
  in
  for _ = 1 to 3000 do
    let op = Rng.int rng 100 in
    if op < 60 || !live = [] then begin
      (* schedule at/after the last dispatch time (the Sim contract),
         spread from same-slot to overflow-level deltas *)
      let delta =
        match Rng.int rng 10 with
        | 0 -> 0
        | 1 | 2 | 3 -> Rng.int rng 1_000
        | 4 | 5 | 6 -> Rng.int rng 1_000_000
        | 7 | 8 -> Rng.int rng (1 lsl 30)
        | _ -> (1 lsl 40) + Rng.int rng (1 lsl 44)
      in
      incr seqr;
      let pri = if shuffled then Rng.int rng 0x4000_0000 else 0 in
      let t = !nowr + delta and packed = (pri lsl 12) lor !seqr in
      Heap.push h (t, pri, !seqr);
      let slot = Wheel.add w ~time:t ~seq:packed ignore in
      Hashtbl.replace slots !seqr (slot, packed);
      live := !seqr :: !live
    end
    else if op < 70 then begin
      (* cancel a random outstanding element *)
      let victim = List.nth !live (Rng.int rng (List.length !live)) in
      Hashtbl.replace cancelled victim ();
      let slot, packed = Hashtbl.find slots victim in
      check_bool "cancel withdraws a queued element" true
        (Wheel.cancel w slot ~seq:packed);
      retire victim
    end
    else if op < 72 && !gone <> [] then begin
      (* cancel one already dispatched or cancelled *)
      let stale = List.nth !gone (Rng.int rng (List.length !gone)) in
      let slot, packed = Hashtbl.find slots stale in
      check_bool "stale cancel is a no-op" false
        (Wheel.cancel w slot ~seq:packed)
    end
    else if op < 75 then begin
      (* peek (advances the wheel cursor) without extracting *)
      match (heap_top (), wheel_peek w) with
      | None, None -> ()
      | Some a, Some b when a = b -> ()
      | _ -> Alcotest.failf "seed %d: peek mismatch" seed
    end
    else pop_both ()
  done;
  while !live <> [] do
    pop_both ()
  done;
  check_bool "both drained" true (heap_top () = None && wheel_pop w = None);
  check_int "lengths agree" 0 (Wheel.length w)

let test_wheel_parity_fifo () =
  List.iter (wheel_heap_parity ~shuffled:false) [ 1; 2; 3; 4; 5 ]

let test_wheel_parity_shuffled () =
  List.iter (wheel_heap_parity ~shuffled:true) [ 11; 12; 13; 14; 15 ]

(* --- Retention regressions --- *)

let weak_of x =
  let w = Weak.create 1 in
  Weak.set w 0 (Some x);
  w

let test_vec_pop_retention () =
  let v = Vec.create () in
  (* pop-to-empty: the regression — the last element used to stay
     pinned by the backing array forever *)
  let w1 =
    let x = Bytes.create 32 in
    Vec.push v x;
    weak_of x
  in
  ignore (Sys.opaque_identity (Vec.pop v));
  Gc.full_major ();
  check_bool "pop-to-empty releases element" false (Weak.check w1 0);
  (* ordinary pop: the vacated slot must not retain either *)
  let w2 =
    let x = Bytes.create 32 in
    Vec.push v (Bytes.create 1);
    Vec.push v x;
    weak_of x
  in
  ignore (Sys.opaque_identity (Vec.pop v));
  Gc.full_major ();
  check_bool "pop releases vacated slot" false (Weak.check w2 0);
  (* keep the vec reachable across the GC, or the checks test nothing *)
  check_int "survivor count" 1 (Vec.length v)

let test_sim_slab_release () =
  (* A spike of 10k pending callbacks drains: every payload they
     captured must be collectable on both schedulers (the wheel's slab
     drops a callback when its slot is freed; the heap's pooled cell
     defuses [run]), and the wheel's slab — the memory bound that
     replaced the heap's 4096-cell pool cap — stays under twice the
     peak pending count and is reused, not grown, by a second spike. *)
  let peak = 10_000 in
  List.iter
    (fun sched ->
      let sim = Sim.create ~sched () in
      let spike () =
        Array.init peak (fun i ->
            let payload = Bytes.create 64 in
            Sim.at sim (Sim.now sim + 1 + (i * 37 mod 5000)) (fun () ->
                ignore (Sys.opaque_identity payload));
            weak_of payload)
      in
      let ws = spike () in
      ignore (Sim.run sim);
      Gc.full_major ();
      check_bool "every dispatched closure released" false
        (Array.exists (fun w -> Weak.check w 0) ws);
      check_int "all dispatched" peak (Sim.events_executed sim))
    [ `Heap; `Wheel ];
  let w = Wheel.create () in
  let spike () =
    for i = 1 to peak do
      ignore (Wheel.add w ~time:(i * 37 mod 5000) ~seq:i ignore : int)
    done;
    while Wheel.length w > 0 do
      let (_ : unit -> unit) = Wheel.take w (Wheel.pop w) in
      ()
    done
  in
  spike ();
  let cap = Wheel.capacity w in
  check_bool "slab bounded by the peak" true (cap >= peak && cap < 2 * peak);
  spike ();
  check_int "second spike reuses the slab" cap (Wheel.capacity w)

(* --- Sim basics --- *)

let test_sim_delay_ordering () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn sim (fun () ->
      Sim.delay sim 100;
      log := ("a", Sim.now sim) :: !log);
  Sim.spawn sim (fun () ->
      Sim.delay sim 50;
      log := ("b", Sim.now sim) :: !log;
      Sim.delay sim 100;
      log := ("c", Sim.now sim) :: !log);
  ignore (Sim.run sim);
  Alcotest.(check (list (pair string int)))
    "event order"
    [ ("b", 50); ("a", 100); ("c", 150) ]
    (List.rev !log)

let test_sim_same_time_fifo () =
  let sim = Sim.create () in
  let log = ref [] in
  for i = 1 to 5 do
    Sim.at sim 10 (fun () -> log := i :: !log)
  done;
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "fifo at same timestamp" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_sim_until () =
  let sim = Sim.create () in
  let fired = ref false in
  Sim.at sim 1_000 (fun () -> fired := true);
  let r = Sim.run ~until:500 sim in
  check_bool "not yet" false !fired;
  check_int "clock at limit" 500 (Sim.now sim);
  (match r with
  | `Time_limit -> ()
  | _ -> Alcotest.fail "expected `Time_limit");
  ignore (Sim.run sim);
  check_bool "fires on resume" true !fired

let test_sim_stop () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.spawn sim (fun () ->
      for _ = 1 to 100 do
        incr count;
        if !count = 10 then Sim.stop sim;
        Sim.delay sim 1
      done);
  (match Sim.run sim with
  | `Stopped -> ()
  | _ -> Alcotest.fail "expected `Stopped");
  check_int "stopped early" 10 !count

let test_sim_fiber_failure () =
  let sim = Sim.create () in
  Sim.spawn sim ~name:"boom" (fun () -> failwith "bang");
  (try
     ignore (Sim.run sim);
     Alcotest.fail "expected Fiber_failure"
   with Sim.Fiber_failure (name, Failure msg) ->
     Alcotest.(check string) "fiber name" "boom" name;
     Alcotest.(check string) "payload" "bang" msg)

let test_sim_delay_other_sim_fails () =
  (* A fiber may only delay on its own sim: performing a delay against
     another one kills the fiber loudly instead of sleeping on a clock
     that never drives it. *)
  let sim = Sim.create () and other = Sim.create () in
  let resumed = ref false in
  Sim.spawn sim ~name:"stray" (fun () ->
      Sim.delay other 10;
      resumed := true);
  (try
     ignore (Sim.run sim);
     Alcotest.fail "expected Fiber_failure"
   with Sim.Fiber_failure (name, Invalid_argument _) ->
     Alcotest.(check string) "fiber name" "stray" name);
  Alcotest.(check bool) "never resumed" false !resumed;
  Alcotest.(check int) "accounted dead" 0 (Sim.live_fibers sim)

let test_sim_delay_allocates_nothing () =
  (* The delay effect is a constant and its continuation goes into the
     fiber's own cell, so a delay allocates only the runtime's
     continuation object (2 words on OCaml 5.1; it was 23). *)
  let sim = Sim.create () in
  let n = 10_000 in
  let words = ref 0. in
  Sim.spawn sim (fun () ->
      Sim.delay sim 1;
      let w0 = Gc.minor_words () in
      for _ = 1 to n do
        Sim.delay sim 1
      done;
      words := Gc.minor_words () -. w0);
  ignore (Sim.run sim);
  let per_delay = !words /. float_of_int n in
  if per_delay > 4. then
    Alcotest.failf "%.1f minor words per delay (at most 4)" per_delay

let test_sim_past_scheduling_rejected () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () -> Sim.delay sim 100);
  ignore (Sim.run sim);
  Alcotest.check_raises "past" (Invalid_argument "Sim: scheduling in the past")
    (fun () -> Sim.at sim 50 (fun () -> ()))

(* --- Cond --- *)

let test_cond_signal_fifo () =
  let sim = Sim.create () in
  let c = Cond.create sim in
  let log = ref [] in
  for i = 1 to 3 do
    Sim.spawn sim (fun () ->
        Cond.wait c;
        log := i :: !log)
  done;
  Sim.spawn sim (fun () ->
      Sim.delay sim 10;
      Cond.signal c;
      Sim.delay sim 10;
      Cond.broadcast c);
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "fifo wakeups" [ 1; 2; 3 ] (List.rev !log)

let test_cond_timeout () =
  let sim = Sim.create () in
  let c = Cond.create sim in
  let outcome = ref `Ok in
  Sim.spawn sim (fun () -> outcome := Cond.wait_timeout c 100);
  ignore (Sim.run sim);
  check_bool "timed out" true (!outcome = `Timeout);
  check_int "time advanced" 100 (Sim.now sim)

let test_cond_signal_beats_timeout () =
  let sim = Sim.create () in
  let c = Cond.create sim in
  let outcome = ref `Timeout in
  Sim.spawn sim (fun () -> outcome := Cond.wait_timeout c 100);
  Sim.spawn sim (fun () ->
      Sim.delay sim 50;
      Cond.signal c);
  ignore (Sim.run sim);
  check_bool "signalled" true (!outcome = `Ok)

let test_cond_timeout_not_double_woken () =
  (* A waiter cancelled by timeout must not steal a later signal. *)
  let sim = Sim.create () in
  let c = Cond.create sim in
  let second_woke = ref false in
  Sim.spawn sim (fun () -> ignore (Cond.wait_timeout c 10));
  Sim.spawn sim (fun () ->
      Cond.wait c;
      second_woke := true);
  Sim.spawn sim (fun () ->
      Sim.delay sim 50;
      Cond.signal c);
  ignore (Sim.run sim);
  check_bool "live waiter got the signal" true !second_woke

(* --- Mailbox --- *)

let test_mailbox_fifo () =
  let sim = Sim.create () in
  let mb = Mailbox.create sim in
  let got = ref [] in
  Sim.spawn sim (fun () ->
      for _ = 1 to 3 do
        got := Mailbox.recv mb :: !got
      done);
  Sim.spawn sim (fun () ->
      Sim.delay sim 5;
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Sim.delay sim 5;
      Mailbox.send mb 3);
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3 ] (List.rev !got)

(* --- Serial handlers --- *)

let test_serial_kick_while_running () =
  (* A kick while the handler runs spawns nothing: the running fiber
     re-tests after each step and drains what the kick announced. *)
  let sim = Sim.create () in
  let work = Queue.create () and done_ = ref [] and spawned = ref 0 in
  let h =
    Serial.create sim ~name:"h"
      ~has_work:(fun () -> not (Queue.is_empty work))
      (fun () ->
        let x = Queue.pop work in
        Sim.delay sim 10;
        done_ := x :: !done_)
  in
  let kick () =
    let before = Sim.live_fibers sim in
    Serial.kick h;
    spawned := !spawned + (Sim.live_fibers sim - before)
  in
  Sim.spawn sim (fun () ->
      Queue.push 1 work;
      kick ();
      Sim.delay sim 5;
      Queue.push 2 work;
      kick ();
      Queue.push 3 work;
      kick ());
  ignore (Sim.run sim);
  check_int "one fiber spawned" 1 !spawned;
  Alcotest.(check (list int))
    "all drained in order" [ 1; 2; 3 ] (List.rev !done_);
  check_int "drained by t=30" 30 (Sim.now sim)

let test_serial_kick_without_work () =
  let sim = Sim.create () in
  let h = Serial.create sim ~name:"h" ~has_work:(fun () -> false) ignore in
  Serial.kick h;
  check_int "nothing spawned" 0 (Sim.live_fibers sim)

let test_serial_ordered_head_first () =
  (* The tail completes first: nothing runs until the head does, then
     one fiber reaps every ready item in posting order. *)
  let sim = Sim.create () in
  let ready = Array.make 3 false and reaped = ref [] and spawns = ref 0 in
  let o =
    Serial.ordered sim ~name:"o" ~ready:(fun i -> ready.(i)) (fun i ->
        Sim.delay sim 1;
        reaped := i :: !reaped)
  in
  let complete i =
    ready.(i) <- true;
    let before = Sim.live_fibers sim in
    Serial.kick_ordered o;
    spawns := !spawns + (Sim.live_fibers sim - before)
  in
  let base = Sim.live_fibers sim in
  List.iter (Serial.push o) [ 0; 1; 2 ];
  Sim.at sim 10 (fun () -> complete 2);
  Sim.at sim 20 (fun () -> complete 1);
  Sim.at sim 25 (fun () ->
      check_int "nothing reaped behind the head" 0 (List.length !reaped);
      check_int "no fiber behind the head" 0 !spawns);
  Sim.at sim 30 (fun () -> complete 0);
  ignore (Sim.run sim);
  check_int "one fiber for the whole burst" 1 !spawns;
  Alcotest.(check (list int)) "posting order" [ 0; 1; 2 ] (List.rev !reaped);
  check_int "fibers back to the earlier count" base (Sim.live_fibers sim);
  check_int "none parked" 0 (Sim.blocked_fibers sim)

let test_serial_ordered_retain () =
  let sim = Sim.create () in
  let reaped = ref [] in
  let o =
    Serial.ordered sim ~name:"o" ~ready:(fun _ -> true) (fun i ->
        reaped := i :: !reaped)
  in
  List.iter (Serial.push o) [ 1; 2; 3; 4 ];
  Serial.retain o (fun i -> i mod 2 = 0);
  Serial.kick_ordered o;
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "kept items, in order" [ 2; 4 ] (List.rev !reaped)

(* --- Resource --- *)

let test_resource_fifo_serialization () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"cpu" in
  let finish = Array.make 3 0 in
  for i = 0 to 2 do
    Sim.spawn sim (fun () ->
        Resource.use r 100;
        finish.(i) <- Sim.now sim)
  done;
  ignore (Sim.run sim);
  Alcotest.(check (array int)) "back to back" [| 100; 200; 300 |] finish;
  check_int "busy" 300 (Resource.busy_time r);
  check_int "jobs" 3 (Resource.jobs r);
  check_int "queue delay" 300 (Resource.queue_delay_total r)

let test_resource_idle_gap () =
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"cpu" in
  Sim.spawn sim (fun () ->
      Resource.use r 10;
      Sim.delay sim 100;
      Resource.use r 10);
  ignore (Sim.run sim);
  check_int "no queueing across idle gap" 0 (Resource.queue_delay_total r);
  check_int "finish time" 120 (Sim.now sim)

let test_resource_completion_from () =
  (* Work booked from an earlier start: on a resource idle since 500 it
     begins at that start, never inside the last reservation, and counts
     busy time and jobs as [use] does; its queueing runs from the start
     it asked for to the one it got. *)
  let sim = Sim.create () in
  let r = Resource.create sim ~name:"core" in
  let got = ref [] in
  Sim.spawn sim (fun () ->
      Resource.use r 500;
      Sim.delay sim 500;
      check_int "the reservation ended at 500" 500 (Resource.reserved_until r);
      check_int "free_at is never before now" 1000 (Resource.free_at r);
      let early = Resource.completion_from r ~start:700 100 in
      let behind = Resource.completion_from r ~start:650 100 in
      let clipped = Resource.completion_from r ~start:0 50 in
      got := [ early; behind; clipped ];
      Resource.use r 10);
  ignore (Sim.run sim);
  Alcotest.(check (list int))
    "from its start; then behind the last reservation, twice"
    [ 800; 900; 950 ] !got;
  check_int "busy: every job's duration" (500 + 100 + 100 + 50 + 10)
    (Resource.busy_time r);
  check_int "jobs" 5 (Resource.jobs r);
  check_int "queue delay: 800 - 650, then 900 - 0" (150 + 900)
    (Resource.queue_delay_total r);
  check_int "a use after them starts now, not in the past" 1010 (Sim.now sim)

let prop_resource_completion_from =
  QCheck.Test.make
    ~name:"booked work never overlaps and never begins before its start"
    ~count:100
    QCheck.(list_of_size Gen.(1 -- 20) (pair (int_range 0 2000) (int_range 1 500)))
    (fun jobs ->
      let sim = Sim.create () in
      let r = Resource.create sim ~name:"x" in
      let ok = ref true in
      Sim.spawn sim (fun () ->
          Sim.delay sim 1000;
          List.iter
            (fun (start, d) ->
              let last = Resource.reserved_until r in
              let finish = Resource.completion_from r ~start d in
              let begun = finish - d in
              if begun < start || begun < last || begun > max start last then
                ok := false)
            jobs);
      ignore (Sim.run sim);
      !ok
      && Resource.busy_time r = List.fold_left (fun n (_, d) -> n + d) 0 jobs
      && Resource.jobs r = List.length jobs)

let prop_resource_fifo =
  QCheck.Test.make ~name:"resource completions are FIFO and disjoint" ~count:100
    QCheck.(list_of_size Gen.(1 -- 20) (int_range 1 1000))
    (fun durations ->
      let sim = Sim.create () in
      let r = Resource.create sim ~name:"x" in
      let finishes = ref [] in
      List.iter
        (fun d ->
          Sim.spawn sim (fun () ->
              Resource.use r d;
              finishes := Sim.now sim :: !finishes))
        durations;
      ignore (Sim.run sim);
      let f = List.rev !finishes in
      let total = List.fold_left ( + ) 0 durations in
      f = List.sort compare f && List.nth f (List.length f - 1) = total)

(* --- Rng --- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42 and b = Rng.create ~seed:42 in
  for _ = 1 to 100 do
    check_bool "same stream" true (Rng.float a = Rng.float b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  check_bool "different" true (Rng.float a <> Rng.float b)

let prop_rng_int_bounds =
  QCheck.Test.make ~name:"rng int within bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create ~seed in
      let x = Rng.int r bound in
      x >= 0 && x < bound)

let prop_rng_float_unit =
  QCheck.Test.make ~name:"rng float in [0,1)" ~count:500 QCheck.small_int
    (fun seed ->
      let r = Rng.create ~seed in
      let x = Rng.float r in
      x >= 0. && x < 1.)

(* --- Stats --- *)

let test_summary_basics () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.add s) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-9)) "max" 4. (Stats.Summary.max s);
  Alcotest.(check (float 1e-9)) "median" 3. (Stats.Summary.percentile s 0.5)

let test_percentile_edges () =
  let s = Stats.Summary.create () in
  Alcotest.(check (float 0.)) "empty summary" 0. (Stats.Summary.percentile s 0.5);
  Stats.Summary.add s 42.;
  Alcotest.(check (float 0.)) "single sample p=0" 42. (Stats.Summary.percentile s 0.0);
  Alcotest.(check (float 0.)) "single sample p=1" 42. (Stats.Summary.percentile s 1.0);
  List.iter (Stats.Summary.add s) [ 7.; 99.; 13. ];
  Alcotest.(check (float 0.)) "p=0 is min" 7. (Stats.Summary.percentile s 0.0);
  Alcotest.(check (float 0.)) "p=1 is max" 99. (Stats.Summary.percentile s 1.0);
  (* adds after a percentile query must invalidate the sorted order *)
  Stats.Summary.add s 1.;
  Alcotest.(check (float 0.)) "re-sorts after add" 1. (Stats.Summary.percentile s 0.0)

(* The reservoir summary as it was before its accumulators went flat:
   boxed float fields and a plain array reservoir. The flat one must agree
   with it exactly, past the reservoir's capacity and across percentile
   queries (a query sorts the reservoir in place, which moves the slot
   a later replacement lands in). *)
module Boxed_summary = struct
  type t = {
    samples : float array;
    mutable len : int;
    mutable sorted : bool;
    mutable n : int;
    mutable total : float;
    mutable mx : float;
    rng : Rng.t;
  }

  let create () =
    { samples = Array.make 8192 0.; len = 0; sorted = true; n = 0;
      total = 0.; mx = neg_infinity; rng = Rng.create ~seed:0x52455356 }

  let add t x =
    t.n <- t.n + 1;
    t.total <- t.total +. x;
    if x > t.mx then t.mx <- x;
    if t.len < 8192 then begin
      t.samples.(t.len) <- x;
      t.len <- t.len + 1;
      t.sorted <- false
    end
    else begin
      let j = Rng.int t.rng t.n in
      if j < 8192 then begin
        t.samples.(j) <- x;
        t.sorted <- false
      end
    end

  let mean t = if t.n = 0 then 0. else t.total /. float_of_int t.n

  let percentile t p =
    let n = t.len in
    if n = 0 then 0.
    else begin
      if not t.sorted then begin
        let a = Array.sub t.samples 0 n in
        Array.sort Float.compare a;
        Array.blit a 0 t.samples 0 n;
        t.sorted <- true
      end;
      let rank = int_of_float (Float.round (p *. float_of_int (n - 1))) in
      t.samples.(min (n - 1) (max 0 rank))
    end
end

let test_summary_matches_boxed () =
  let s = Stats.Summary.create () and b = Boxed_summary.create () in
  let exact name = Alcotest.(check (float 0.)) name in
  let compare_all at =
    let name what = Printf.sprintf "%s after %d" what at in
    check_int (name "count") b.Boxed_summary.n (Stats.Summary.count s);
    exact (name "sum") b.total (Stats.Summary.sum s);
    exact (name "mean") (Boxed_summary.mean b) (Stats.Summary.mean s);
    exact (name "max") b.mx (Stats.Summary.max s);
    List.iter
      (fun p ->
        exact (name (Printf.sprintf "p%g" p)) (Boxed_summary.percentile b p)
          (Stats.Summary.percentile s p))
      [ 0.; 0.01; 0.5; 0.9; 0.99; 0.999; 1. ]
  in
  (* A fixed stream with ties, negatives and a heavy tail. *)
  let r = Rng.create ~seed:17 in
  for i = 1 to 30_000 do
    let x =
      match i mod 7 with
      | 0 -> float_of_int (Rng.int r 50)
      | 1 -> -.Rng.float r
      | _ -> Rng.exponential r ~mean:70.
    in
    Stats.Summary.add s x;
    Boxed_summary.add b x;
    if i = 5000 || i = 8192 || i = 12_345 || i = 30_000 then compare_all i
  done

let prop_percentile_bounded =
  QCheck.Test.make ~name:"percentile lies within samples" ~count:200
    QCheck.(list_of_size Gen.(1 -- 50) (float_bound_exclusive 1000.))
    (fun xs ->
      let s = Stats.Summary.create () in
      List.iter (Stats.Summary.add s) xs;
      let p = Stats.Summary.percentile s 0.9 in
      p >= List.fold_left min infinity xs && p <= Stats.Summary.max s)

(* --- Metrics --- *)

let test_metrics_counters () =
  let m = Metrics.for_sim (Sim.create ()) in
  Stats.Counter.incr (Metrics.counter m "x");
  Stats.Counter.add (Metrics.counter m "x") 4;
  Stats.Counter.incr (Metrics.counter m ~node:1 "x");
  check_int "global counter" 5 (Metrics.counter_value m "x");
  check_int "per-node counter is distinct" 1 (Metrics.counter_value m ~node:1 "x");
  check_int "unknown counter reads 0" 0 (Metrics.counter_value m "y");
  Metrics.gauge m "g" := 2.5;
  Alcotest.(check (float 0.)) "gauge" 2.5 !(Metrics.gauge m "g")

let test_metrics_histogram_percentiles () =
  let h = Metrics.histogram (Metrics.for_sim (Sim.create ())) "lat" in
  for i = 1 to 100 do
    Stats.Summary.add h (float_of_int i)
  done;
  check_int "count" 100 (Stats.Summary.count h);
  Alcotest.(check (float 1e-9)) "mean" 50.5 (Stats.Summary.mean h);
  Alcotest.(check (float 1.0)) "p50" 50. (Stats.Summary.percentile h 0.5);
  Alcotest.(check (float 1.0)) "p95" 95. (Stats.Summary.percentile h 0.95);
  Alcotest.(check (float 0.)) "max" 100. (Stats.Summary.max h)

let test_metrics_per_sim_registry () =
  let a = Sim.create () and b = Sim.create () in
  Stats.Counter.incr (Metrics.counter (Metrics.for_sim a) "only-a");
  check_int "same sim, same registry" 1
    (Metrics.counter_value (Metrics.for_sim a) "only-a");
  check_int "other sim unaffected" 0
    (Metrics.counter_value (Metrics.for_sim b) "only-a")

(* --- typed Trace --- *)

let test_trace_event_ordering () =
  let sim = Sim.create () in
  let tr = Trace.for_sim sim in
  Trace.enable tr;
  Sim.spawn sim (fun () ->
      Trace.instant tr ~layer:Trace.App ~node:0 "first";
      Sim.delay sim 100;
      Trace.instant tr ~layer:Trace.Nic ~node:1 "second");
  ignore (Sim.run sim);
  match Trace.events tr with
  | [ a; b ] ->
    Alcotest.(check string) "names in time order" "first" a.Trace.ev_name;
    Alcotest.(check string) "second event" "second" b.Trace.ev_name;
    check_int "first timestamp" 0 a.Trace.ev_time;
    check_int "second timestamp" 100 b.Trace.ev_time;
    check_bool "layer recorded" true (b.Trace.ev_layer = Trace.Nic)
  | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs)

let test_trace_disabled_records_nothing () =
  let sim = Sim.create () in
  let tr = Trace.for_sim sim in
  Sim.spawn sim (fun () ->
      Trace.instant tr ~layer:Trace.App "dropped";
      let id = Trace.span_begin tr ~layer:Trace.App "dropped-span" in
      check_int "span id 0 while disabled" 0 id;
      Trace.span_end tr ~layer:Trace.App "dropped-span" id);
  ignore (Sim.run sim);
  check_int "nothing recorded" 0 (List.length (Trace.events tr))

let test_trace_span_totals () =
  let sim = Sim.create () in
  let tr = Trace.for_sim sim in
  Trace.enable tr;
  Sim.spawn sim (fun () ->
      for _ = 1 to 3 do
        Trace.span tr ~layer:Trace.Substrate "op" (fun () -> Sim.delay sim 50)
      done);
  ignore (Sim.run sim);
  match Trace.span_totals tr with
  | [ (layer, name, count, total_ns) ] ->
    check_bool "layer" true (layer = Trace.Substrate);
    Alcotest.(check string) "name" "op" name;
    check_int "count" 3 count;
    check_int "total" 150 total_ns
  | l -> Alcotest.failf "expected 1 aggregate, got %d" (List.length l)

let test_trace_interval () =
  (* A booked span is stamped with its own ends, which may lie before
     now, and aggregates like any other. *)
  let sim = Sim.create () in
  let tr = Trace.for_sim sim in
  Trace.enable tr;
  Sim.spawn sim (fun () ->
      Sim.delay sim 1_000;
      Trace.interval tr ~layer:Trace.Nic ~node:1 "nic.rx_work" ~start:400
        ~stop:1_200);
  ignore (Sim.run sim);
  Alcotest.(check (list int)) "stamped at its ends" [ 400; 1_200 ]
    (List.map (fun e -> e.Trace.ev_time) (Trace.events tr));
  (match Trace.span_totals tr with
  | [ (_, "nic.rx_work", 1, 800) ] -> ()
  | _ -> Alcotest.fail "one 800 ns nic.rx_work span");
  let off = Trace.for_sim (Sim.create ()) in
  Trace.interval off ~layer:Trace.Nic "nic.rx_work" ~start:0 ~stop:1;
  check_int "disabled: nothing" 0 (List.length (Trace.events off))

let test_trace_chrome_json_shape () =
  let sim = Sim.create () in
  let tr = Trace.for_sim sim in
  Trace.enable tr;
  Sim.spawn sim (fun () ->
      Trace.span tr ~layer:Trace.Emp ~node:1 ~conn:3 "emp.send"
        ~args:[ ("len", "4") ]
        (fun () -> Sim.delay sim 1_000);
      Trace.instant tr ~layer:Trace.Nic ~node:0 "nic.rx \"quoted\"");
  ignore (Sim.run sim);
  let json = Trace.to_chrome_json tr in
  check_bool "array brackets" true
    (String.length json > 2 && json.[0] = '[');
  let contains needle =
    let n = String.length needle and h = String.length json in
    let rec go i = i + n <= h && (String.sub json i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "begin phase" true (contains {|"ph":"b"|});
  check_bool "end phase" true (contains {|"ph":"e"|});
  check_bool "instant phase" true (contains {|"ph":"i"|});
  check_bool "category is layer" true (contains {|"cat":"emp"|});
  check_bool "args survive" true (contains {|"len":"4"|});
  check_bool "quotes escaped" true (contains {|\"quoted\"|})

(* The export [ulsbench latency --trace FILE] writes, over a real
   substrate ping-pong: one JSON event per line, each with the keys
   chrome://tracing needs, spans carrying ids, and every layer of the
   sockets path present. *)
let test_trace_pingpong_export () =
  let tr = ref None in
  ignore
    (Uls_bench.Microbench.ping_pong
       ~observe:(fun sim ->
         let t = Trace.for_sim sim in
         Trace.enable t;
         tr := Some t)
       ~iters:10
       ~kind:(`Sub Uls_substrate.Options.data_streaming_enhanced)
       ~size:4 ());
  let tr = Option.get !tr in
  let lines =
    String.split_on_char '\n' (Trace.to_chrome_json tr)
    |> List.filter (fun l -> l <> "")
  in
  check_int "one line per event" (List.length (Trace.events tr))
    (List.length lines);
  (* The index just past [needle] in [line]. *)
  let find line needle =
    let n = String.length needle and h = String.length line in
    let rec go i =
      if i + n > h then None
      else if String.sub line i n = needle then Some (i + n)
      else go (i + 1)
    in
    go 0
  in
  let has line key = find line (Printf.sprintf "\"%s\":" key) <> None in
  let field line key =
    Option.map
      (fun j -> String.sub line j (String.index_from line j '"' - j))
      (find line (Printf.sprintf "\"%s\":\"" key))
  in
  List.iter
    (fun line ->
      List.iter
        (fun key -> check_bool (key ^ " present") true (has line key))
        [ "name"; "cat"; "ph"; "ts"; "pid"; "tid" ];
      match field line "ph" with
      | Some ("b" | "e") -> check_bool "span carries an id" true (has line "id")
      | Some "i" -> ()
      | ph -> Alcotest.failf "bad phase %s" (Option.value ph ~default:"none"))
    lines;
  let cats = List.filter_map (fun l -> field l "cat") lines in
  List.iter
    (fun layer -> check_bool (layer ^ " layer traced") true (List.mem layer cats))
    [ "nic"; "emp"; "substrate"; "app" ];
  check_bool "spans, not only instants" true
    (List.exists (fun l -> field l "ph" = Some "b") lines)

let test_trace_overlapping_spans_by_id () =
  (* Two in-flight spans of the same name must keep distinct ids so a
     viewer can pair begin/end correctly. *)
  let sim = Sim.create () in
  let tr = Trace.for_sim sim in
  Trace.enable tr;
  Sim.spawn sim (fun () ->
      let a = Trace.span_begin tr ~layer:Trace.Emp "msg" in
      let b = Trace.span_begin tr ~layer:Trace.Emp "msg" in
      check_bool "distinct ids" true (a <> b);
      Sim.delay sim 10;
      Trace.span_end tr ~layer:Trace.Emp "msg" b;
      Sim.delay sim 10;
      Trace.span_end tr ~layer:Trace.Emp "msg" a);
  ignore (Sim.run sim);
  match Trace.span_totals tr with
  | [ (_, "msg", 2, total) ] -> check_int "total 10+20" 30 total
  | _ -> Alcotest.fail "expected one aggregate over 2 spans"

(* --- Time --- *)

let test_time_units () =
  check_int "us" 5_000 (Time.us 5);
  check_int "ms" 7_000_000 (Time.ms 7)

let test_time_mbps () =
  (* 1250 bytes in 10 us = 1000 Mb/s *)
  Alcotest.(check (float 1e-6)) "mbps" 1000.
    (Time.mbps ~bytes_transferred:1250 ~elapsed:10_000)

(* --- Per-sim registry eviction --- *)

(* In its own function so the sim is unreachable when it returns; the
   weak slots [i] see whether its observers went with it. *)
let[@inline never] make_dead_sim wm wt wi i =
  let sim = Sim.create () in
  let m = Metrics.for_sim sim in
  Stats.Counter.incr (Metrics.counter m "dead.counter");
  Weak.set wm i (Some m);
  Weak.set wt i (Some (Trace.for_sim sim));
  Weak.set wi i (Some (Invariant.for_sim sim))

let test_registry_eviction () =
  let n = 32 in
  let wm = Weak.create n and wt = Weak.create n and wi = Weak.create n in
  for i = 0 to n - 1 do
    make_dead_sim wm wt wi i
  done;
  Gc.full_major ();
  Gc.full_major ();
  let live w = List.length (List.filter (Weak.check w) (List.init n Fun.id)) in
  check_int "metrics entries evicted" 0 (live wm);
  check_int "trace entries evicted" 0 (live wt);
  check_int "invariant entries evicted" 0 (live wi);
  (* while a sim is live its registry must survive collection *)
  let sim = Sim.create () in
  Stats.Counter.incr (Metrics.counter (Metrics.for_sim sim) "keep");
  Gc.full_major ();
  check_int "live sim keeps its registry" 1
    (Metrics.counter_value (Metrics.for_sim sim) "keep")

(* --- Sim heap-vs-wheel dispatch parity --- *)

(* A program with same-time collisions, fiber suspends, a time-limited
   run/resume, and a far-future timer (overflow level under `Wheel).
   The full dispatch log must be byte-identical across schedulers for
   both tie-break policies (the controlled one a seeded random walk). *)
let sim_parity_run ~sched ~tiebreak =
  let sim = Sim.create ~sched () in
  Sim.set_tiebreak sim (tiebreak ());
  let log = Buffer.create 1024 in
  for i = 1 to 8 do
    Sim.spawn sim
      ~name:(Printf.sprintf "f%d" i)
      (fun () ->
        for j = 1 to 40 do
          Sim.delay sim (i * j mod 7);
          Buffer.add_string log (Printf.sprintf "%d.%d@%d;" i j (Sim.now sim))
        done)
  done;
  Sim.at sim 100 (fun () -> Buffer.add_string log "at100;");
  Sim.at sim (1 lsl 42) (fun () -> Buffer.add_string log "far;");
  (match Sim.run ~until:50 sim with
  | `Time_limit -> Buffer.add_string log "limit;"
  | _ -> Alcotest.fail "expected `Time_limit");
  (* schedule below the peeked-ahead horizon, then resume *)
  Sim.at sim (Sim.now sim + 1) (fun () -> Buffer.add_string log "mid;");
  (match Sim.run sim with
  | `Quiescent -> ()
  | _ -> Alcotest.fail "expected `Quiescent");
  (Buffer.contents log, Sim.events_executed sim)

let test_sim_sched_parity () =
  List.iter
    (fun tiebreak ->
      let lh, eh = sim_parity_run ~sched:`Heap ~tiebreak in
      let lw, ew = sim_parity_run ~sched:`Wheel ~tiebreak in
      Alcotest.(check string) "dispatch log identical" lh lw;
      check_int "events executed identical" eh ew)
    [
      (fun () -> `Fifo);
      (fun () ->
        let rng = Rng.create ~seed:42 in
        `Controlled ((fun enabled -> Rng.int rng (Array.length enabled)), ignore));
    ]

(* --- Timer cancellation --- *)

let both_scheds f = List.iter f [ `Heap; `Wheel ]

let test_cancel_never_runs () =
  (* Four events tie at t=10; the second is cancelled. It must not run,
     not count, and not appear in any tie the chooser is offered. The
     cancelled far timer must not hold the clock either: the run ends at
     the last live event. *)
  both_scheds (fun sched ->
      let sim = Sim.create ~sched () in
      let offered = ref [] in
      Sim.set_tiebreak sim
        (`Controlled
          ( (fun seqs ->
              offered := Array.to_list seqs :: !offered;
              0),
            ignore ));
      let log = ref [] in
      let note s () = log := s :: !log in
      let _a = Sim.timer sim 10 (note "a") in
      let b = Sim.timer sim 10 (note "b") in
      Sim.at sim 10 (note "c");
      let _d = Sim.timer sim 10 (note "d") in
      let far = Sim.timer sim (Time.s 2) (note "far") in
      Sim.cancel sim b;
      Sim.cancel sim far;
      (match Sim.run sim with
      | `Quiescent -> ()
      | _ -> Alcotest.fail "expected `Quiescent");
      Alcotest.(check (list string)) "live events in order" [ "a"; "c"; "d" ]
        (List.rev !log);
      check_int "cancelled events not counted" 3 (Sim.events_executed sim);
      check_int "clock at the last live event" 10 (Sim.now sim);
      Alcotest.(check (list (list int)))
        "ties offered without the cancelled seq" [ [ 1; 3; 4 ]; [ 3; 4 ] ]
        (List.rev !offered))

let test_cancel_late_and_stale () =
  both_scheds (fun sched ->
      let sim = Sim.create ~sched () in
      let runs = ref 0 in
      let h = Sim.timer sim 5 (fun () -> incr runs) in
      ignore (Sim.run sim);
      (* after dispatch: a no-op, also when cancelled again *)
      Sim.cancel sim h;
      Sim.cancel sim h;
      Sim.cancel sim (-1);
      (* the next timer takes the freed slot; the stale handle must not
         reach it *)
      let self = ref (-1) in
      let h2 =
        Sim.timer sim 20 (fun () ->
            (* cancelling the running event's own handle: a no-op *)
            Sim.cancel sim !self;
            incr runs)
      in
      self := h2;
      Sim.cancel sim h;
      let h3 = Sim.timer sim 30 (fun () -> incr runs) in
      ignore (Sim.run sim);
      check_int "every live timer ran" 3 !runs;
      check_int "events counted" 3 (Sim.events_executed sim);
      Sim.cancel sim h3;
      let h4 = Sim.timer sim 40 (fun () -> incr runs) in
      Sim.cancel sim h2;
      Sim.cancel sim h3;
      ignore (Sim.run sim);
      check_int "stale handles left the new timer alone" 4 !runs;
      (* the wheel's handle keeps the slot in its low 30 bits *)
      let slot h = h land ((1 lsl 30) - 1) in
      if sched = `Wheel then begin
        check_int "h2 reused h's slot" (slot h) (slot h2);
        check_int "h4 reused h3's slot" (slot h3) (slot h4)
      end)

(* Random timers, cancels (live, already-dispatched and repeated),
   callbacks that arm and cancel more timers, and a time-limited
   run/resume: the dispatch log and event count must be identical on
   both queues, under FIFO and under a seeded controlled walk. *)
let cancel_parity_run ~sched ~tiebreak =
  let sim = Sim.create ~sched () in
  Sim.set_tiebreak sim (tiebreak ());
  let rng = Rng.create ~seed:7 in
  let log = Buffer.create 4096 in
  let handles = Vec.create () in
  let delta () =
    match Rng.int rng 6 with
    | 0 -> 0
    | 1 | 2 -> Rng.int rng 300
    | 3 -> Rng.int rng 100_000
    | 4 -> Rng.int rng (1 lsl 26)
    | _ -> (1 lsl 40) + Rng.int rng 1_000
  in
  let rec arm depth =
    let id = Vec.length handles in
    let h =
      Sim.timer sim (Sim.now sim + delta ()) (fun () ->
          Buffer.add_string log (Printf.sprintf "%d@%d;" id (Sim.now sim));
          if depth < 3 then
            for _ = 1 to Rng.int rng 3 do
              arm (depth + 1)
            done;
          cancel_some ())
    in
    Vec.push handles h
  and cancel_some () =
    for _ = 1 to Rng.int rng 3 do
      Sim.cancel sim (Vec.get handles (Rng.int rng (Vec.length handles)))
    done
  in
  for _ = 1 to 400 do
    arm 0
  done;
  cancel_some ();
  (match Sim.run ~until:50_000 sim with
  | `Time_limit -> Buffer.add_string log "limit;"
  | _ -> Alcotest.fail "expected `Time_limit");
  for _ = 1 to 100 do
    arm 0
  done;
  cancel_some ();
  ignore (Sim.run sim);
  (Buffer.contents log, Sim.events_executed sim, Vec.length handles)

let test_cancel_sched_parity () =
  List.iter
    (fun tiebreak ->
      let lh, eh, _ = cancel_parity_run ~sched:`Heap ~tiebreak in
      let lw, ew, armed = cancel_parity_run ~sched:`Wheel ~tiebreak in
      Alcotest.(check string) "dispatch log identical" lh lw;
      check_int "events executed identical" eh ew;
      check_bool "some timers were cancelled" true (ew < armed))
    [
      (fun () -> `Fifo);
      (fun () ->
        let rng = Rng.create ~seed:42 in
        `Controlled ((fun enabled -> Rng.int rng (Array.length enabled)), ignore));
    ]

let test_cancel_releases_payload () =
  (* A cancelled callback's captures are collectable while the sim and
     the slot the event occupied are still alive: a near timer (the
     wheel's near-future heap after a peek) and a far one (a wheel bag),
     on both queues. *)
  both_scheds (fun sched ->
      let sim = Sim.create ~sched () in
      Sim.at sim 1_000 ignore;
      ignore (Sim.run ~until:10 sim);
      let arm time =
        let payload = Bytes.create 64 in
        let h =
          Sim.timer sim time (fun () -> ignore (Sys.opaque_identity payload))
        in
        Sim.cancel sim h;
        weak_of payload
      in
      let near = arm 20 and far = arm (Time.s 2) in
      Gc.full_major ();
      check_bool "near payload released" false (Weak.check near 0);
      check_bool "far payload released" false (Weak.check far 0);
      ignore (Sim.run sim);
      check_int "only the live event ran" 1 (Sim.events_executed sim))

let test_cond_wake_cancels_timeout () =
  (* A signalled wait_timeout leaves no timer behind: the run ends at
     the signal, not at the timeout. *)
  both_scheds (fun sched ->
      let sim = Sim.create ~sched () in
      let c = Cond.create sim in
      Sim.spawn sim (fun () -> ignore (Cond.wait_timeout c 1_000));
      Sim.spawn sim (fun () ->
          Sim.delay sim 50;
          Cond.signal c);
      ignore (Sim.run sim);
      check_int "quiescent at the wake" 50 (Sim.now sim))

let qsuite = List.map QCheck_alcotest.to_alcotest

let suites =
  [
    ( "engine.vec",
      [
        Alcotest.test_case "push/pop" `Quick test_vec_push_pop;
        Alcotest.test_case "bounds" `Quick test_vec_bounds;
        Alcotest.test_case "pop retention" `Quick test_vec_pop_retention;
      ] );
    ( "engine.heap",
      Alcotest.test_case "ordering" `Quick test_heap_ordering
      :: qsuite [ prop_heap_sorts ] );
    ( "engine.wheel",
      [
        Alcotest.test_case "ordering" `Quick test_wheel_ordering;
        Alcotest.test_case "overflow far-future timers" `Quick
          test_wheel_overflow;
        Alcotest.test_case "late insert after peek" `Quick
          test_wheel_late_insert_after_peek;
        Alcotest.test_case "top-level cross cascades its cursor slot" `Quick
          test_wheel_top_level_cross;
        Alcotest.test_case "coincident multi-level boundary crossing" `Quick
          test_wheel_coincident_boundary;
        Alcotest.test_case "heap parity (fifo)" `Quick test_wheel_parity_fifo;
        Alcotest.test_case "heap parity (shuffled)" `Quick
          test_wheel_parity_shuffled;
      ] );
    ( "engine.sim",
      [
        Alcotest.test_case "delay ordering" `Quick test_sim_delay_ordering;
        Alcotest.test_case "same-time FIFO" `Quick test_sim_same_time_fifo;
        Alcotest.test_case "until" `Quick test_sim_until;
        Alcotest.test_case "stop" `Quick test_sim_stop;
        Alcotest.test_case "fiber failure" `Quick test_sim_fiber_failure;
        Alcotest.test_case "delay on another sim fails" `Quick
          test_sim_delay_other_sim_fails;
        Alcotest.test_case "delay allocates nothing" `Quick
          test_sim_delay_allocates_nothing;
        Alcotest.test_case "no past scheduling" `Quick
          test_sim_past_scheduling_rejected;
        Alcotest.test_case "heap/wheel dispatch parity" `Quick
          test_sim_sched_parity;
        Alcotest.test_case "slab released after spike" `Quick
          test_sim_slab_release;
        Alcotest.test_case "cancelled timer never runs" `Quick
          test_cancel_never_runs;
        Alcotest.test_case "late and stale cancel are no-ops" `Quick
          test_cancel_late_and_stale;
        Alcotest.test_case "heap/wheel parity under cancels" `Quick
          test_cancel_sched_parity;
        Alcotest.test_case "cancel releases the payload" `Quick
          test_cancel_releases_payload;
      ] );
    ( "engine.cond",
      [
        Alcotest.test_case "signal FIFO" `Quick test_cond_signal_fifo;
        Alcotest.test_case "timeout" `Quick test_cond_timeout;
        Alcotest.test_case "signal beats timeout" `Quick
          test_cond_signal_beats_timeout;
        Alcotest.test_case "wake cancels the timeout" `Quick
          test_cond_wake_cancels_timeout;
        Alcotest.test_case "timeout waiter not rewoken" `Quick
          test_cond_timeout_not_double_woken;
      ] );
    ( "engine.mailbox",
      [
        Alcotest.test_case "fifo" `Quick test_mailbox_fifo;
      ] );
    ( "engine.serial",
      [
        Alcotest.test_case "kick while running spawns nothing" `Quick
          test_serial_kick_while_running;
        Alcotest.test_case "kick without work spawns nothing" `Quick
          test_serial_kick_without_work;
        Alcotest.test_case "ordered: head first, one fiber" `Quick
          test_serial_ordered_head_first;
        Alcotest.test_case "ordered: retain" `Quick test_serial_ordered_retain;
      ] );
    ( "engine.resource",
      Alcotest.test_case "fifo serialization" `Quick
        test_resource_fifo_serialization
      :: Alcotest.test_case "idle gap" `Quick test_resource_idle_gap
      :: Alcotest.test_case "completion from an earlier start" `Quick
           test_resource_completion_from
      :: qsuite [ prop_resource_fifo; prop_resource_completion_from ] );
    ( "engine.rng",
      Alcotest.test_case "deterministic" `Quick test_rng_deterministic
      :: Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ
      :: qsuite [ prop_rng_int_bounds; prop_rng_float_unit ] );
    ( "engine.stats",
      Alcotest.test_case "summary basics" `Quick test_summary_basics
      :: Alcotest.test_case "summary equals the boxed summary past 8192" `Quick
           test_summary_matches_boxed
      :: Alcotest.test_case "percentile edge cases" `Quick test_percentile_edges
      :: qsuite [ prop_percentile_bounded ] );
    ( "engine.metrics",
      [
        Alcotest.test_case "counters and gauges" `Quick test_metrics_counters;
        Alcotest.test_case "histogram percentiles" `Quick
          test_metrics_histogram_percentiles;
        Alcotest.test_case "per-sim registry" `Quick
          test_metrics_per_sim_registry;
        Alcotest.test_case "dead-sim registry eviction" `Quick
          test_registry_eviction;
      ] );
    ( "engine.trace-events",
      [
        Alcotest.test_case "event ordering" `Quick test_trace_event_ordering;
        Alcotest.test_case "disabled records nothing" `Quick
          test_trace_disabled_records_nothing;
        Alcotest.test_case "span totals" `Quick test_trace_span_totals;
        Alcotest.test_case "booked interval" `Quick test_trace_interval;
        Alcotest.test_case "chrome json shape" `Quick
          test_trace_chrome_json_shape;
        Alcotest.test_case "pingpong export shape" `Quick
          test_trace_pingpong_export;
        Alcotest.test_case "overlapping span ids" `Quick
          test_trace_overlapping_spans_by_id;
      ] );
    ( "engine.time",
      [
        Alcotest.test_case "units" `Quick test_time_units;
        Alcotest.test_case "mbps" `Quick test_time_mbps;
      ] );
  ]
