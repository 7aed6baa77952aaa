(* Tests for the NIC model: tag matching list semantics and walk
   accounting (both engines), removal and collectability, RSS steering, Tigon
   resources and transmit backpressure. *)
open Uls_engine
open Uls_nic

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let post ml ~src ~tag v = ignore (Match_list.post ml ~src ~tag v)

(* --- Match_list (every semantic test runs under both engines) --- *)

let test_match_basic engine () =
  let ml = Match_list.create ~engine () in
  post ml ~src:1 ~tag:10 "a";
  post ml ~src:1 ~tag:11 "b";
  (match Match_list.take ml ~src:1 ~tag:11 with
  | Some "b", _ -> ()
  | _ -> Alcotest.fail "expected b");
  check_int "one left" 1 (Match_list.length ml);
  match Match_list.take ml ~src:1 ~tag:10 with
  | Some "a", _ -> ()
  | _ -> Alcotest.fail "expected a"

let test_match_walk_accounting () =
  (* Linear engine: probe.walked counts descriptors examined, matched
     one included; no hash lookups. *)
  let ml = Match_list.create ~engine:Match_list.Linear () in
  post ml ~src:1 ~tag:10 "a";
  post ml ~src:1 ~tag:11 "b";
  (match Match_list.take ml ~src:1 ~tag:11 with
  | Some "b", { Match_list.walked; lookups } ->
    check_int "walked past a" 2 walked;
    check_int "no hash lookups" 0 lookups
  | _ -> Alcotest.fail "expected b");
  match Match_list.take ml ~src:1 ~tag:10 with
  | Some "a", { Match_list.walked; _ } -> check_int "head match walks 1" 1 walked
  | _ -> Alcotest.fail "expected a"

let test_hashed_lookup_accounting () =
  (* Hashed engine: cost is hash probes + ring-head comparisons,
     independent of how many other keys hold descriptors. *)
  let ml = Match_list.create ~engine:Match_list.Hashed () in
  for i = 0 to 999 do
    post ml ~src:i ~tag:7 i
  done;
  (match Match_list.take ml ~src:999 ~tag:7 with
  | Some 999, { Match_list.walked; lookups } ->
    check_bool "walked stays O(1)" true (walked <= 4);
    check_bool "few hash probes" true (lookups >= 1 && lookups <= 4)
  | _ -> Alcotest.fail "expected 999");
  (* A miss is cheap too: no full-list walk. *)
  match Match_list.take ml ~src:5000 ~tag:7 with
  | None, { Match_list.walked; _ } -> check_bool "miss is O(1)" true (walked <= 4)
  | Some _, _ -> Alcotest.fail "unexpected match"

let test_match_fifo_same_tag engine () =
  let ml = Match_list.create ~engine () in
  post ml ~src:1 ~tag:5 "first";
  post ml ~src:1 ~tag:5 "second";
  (match Match_list.take ml ~src:1 ~tag:5 with
  | Some "first", _ -> ()
  | _ -> Alcotest.fail "FIFO violated");
  match Match_list.take ml ~src:1 ~tag:5 with
  | Some "second", _ -> ()
  | _ -> Alcotest.fail "second not found at head"

let test_match_src_filter engine () =
  let ml = Match_list.create ~engine () in
  post ml ~src:1 ~tag:5 "from1";
  post ml ~src:2 ~tag:5 "from2";
  (match Match_list.take ml ~src:2 ~tag:5 with
  | Some "from2", _ -> ()
  | _ -> Alcotest.fail "src filter failed");
  check_int "from1 remains" 1 (Match_list.length ml)

let test_match_wildcards engine () =
  let ml = Match_list.create ~engine () in
  post ml ~src:(-1) ~tag:9 "anysrc";
  (match Match_list.take ml ~src:42 ~tag:9 with
  | Some "anysrc", _ -> ()
  | _ -> Alcotest.fail "wildcard src should match");
  post ml ~src:3 ~tag:(-1) "anytag";
  (match Match_list.take ml ~src:3 ~tag:12345 with
  | Some "anytag", _ -> ()
  | _ -> Alcotest.fail "wildcard tag should match");
  post ml ~src:(-1) ~tag:(-1) "anything";
  match Match_list.take ml ~src:7 ~tag:7 with
  | Some "anything", _ -> ()
  | _ -> Alcotest.fail "full wildcard should match"

let test_wildcard_beats_later_exact engine () =
  (* Post order decides between a wildcard and an exact match: the
     earlier post wins, whichever class it is in. *)
  let ml = Match_list.create ~engine () in
  post ml ~src:(-1) ~tag:4 "wild-first";
  post ml ~src:2 ~tag:4 "exact-later";
  (match Match_list.take ml ~src:2 ~tag:4 with
  | Some "wild-first", _ -> ()
  | _ -> Alcotest.fail "earlier wildcard should win");
  match Match_list.take ml ~src:2 ~tag:4 with
  | Some "exact-later", _ -> ()
  | _ -> Alcotest.fail "exact entry should remain"

let test_match_miss_walks_all engine () =
  let ml = Match_list.create ~engine () in
  for i = 0 to 9 do
    post ml ~src:1 ~tag:i i
  done;
  check_bool "no match" true (fst (Match_list.take ml ~src:1 ~tag:99) = None);
  check_int "all still posted" 10 (Match_list.length ml)

let test_unpost engine () =
  let ml = Match_list.create ~engine () in
  for i = 0 to 4 do
    post ml ~src:1 ~tag:i i
  done;
  let removed =
    List.filter_map
      (fun _ -> Match_list.remove_first ml (fun v -> v mod 2 = 0))
      [ 0; 2; 4 ]
  in
  Alcotest.(check (list int)) "evens removed" [ 0; 2; 4 ] removed;
  check_int "two left" 2 (Match_list.length ml);
  let rest =
    List.filter_map
      (fun _ -> fst (Match_list.take ml ~src:(-1) ~tag:(-1)))
      [ 1; 3 ]
  in
  Alcotest.(check (list int)) "rest in order" [ 1; 3 ] rest;
  check_int "empty" 0 (Match_list.length ml)

let test_unposted_never_matches engine () =
  (* An entry unposted through the global list must not surface via
     its key's FIFO later. *)
  let ml = Match_list.create ~engine () in
  post ml ~src:1 ~tag:1 "dead";
  post ml ~src:1 ~tag:1 "live";
  ignore (Match_list.remove_first ml (fun v -> v = "dead"));
  (match Match_list.take ml ~src:1 ~tag:1 with
  | Some "live", _ -> ()
  | _ -> Alcotest.fail "unposted entry leaked");
  check_bool "empty now" true (fst (Match_list.take ml ~src:1 ~tag:1) = None)

let test_removed_not_counted_in_walk () =
  let ml = Match_list.create () in
  for i = 0 to 9 do
    post ml ~src:1 ~tag:i i
  done;
  for i = 0 to 8 do
    ignore (Match_list.remove_first ml (fun v -> v = i))
  done;
  match Match_list.take ml ~src:1 ~tag:9 with
  | Some 9, { Match_list.walked; _ } ->
    check_int "removed entries are never walked" 1 walked
  | _ -> Alcotest.fail "expected 9"

let test_compaction_preserves_order engine () =
  let ml = Match_list.create ~engine () in
  for i = 0 to 99 do
    post ml ~src:1 ~tag:i i
  done;
  (* Remove most entries, then check the rest kept post order. *)
  for i = 0 to 99 do
    if i mod 10 <> 0 then ignore (Match_list.remove_first ml (fun v -> v = i))
  done;
  Alcotest.(check (list int)) "order kept"
    [ 0; 10; 20; 30; 40; 50; 60; 70; 80; 90 ]
    (List.init 10 (fun _ -> Option.get (fst (Match_list.take ml ~src:(-1) ~tag:(-1)))))

let test_churn_10k engine () =
  (* Sustained post/take churn across 10k entries: FIFO-per-key order
     must hold the whole way, with O(1) work per removal. *)
  let ml = Match_list.create ~engine () in
  let next = Array.make 7 0 and posted = Array.make 7 0 in
  let total = 10_000 in
  for i = 0 to total - 1 do
    let key = i mod 7 in
    post ml ~src:key ~tag:key (i / 7);
    posted.(key) <- posted.(key) + 1;
    (* Every third post, drain two entries: constant churn. *)
    if i mod 3 = 2 then
      for _ = 1 to 2 do
        let key = (i / 3) mod 7 in
        if next.(key) < posted.(key) then begin
          match Match_list.take ml ~src:key ~tag:key with
          | Some v, _ ->
            check_int "FIFO within key under churn" next.(key) v;
            next.(key) <- next.(key) + 1
          | None, _ -> Alcotest.fail "posted entry vanished"
        end
      done
  done;
  (* Drain the rest; order must still hold per key. *)
  for key = 0 to 6 do
    while next.(key) < posted.(key) do
      match Match_list.take ml ~src:key ~tag:key with
      | Some v, _ ->
        check_int "FIFO within key at drain" next.(key) v;
        next.(key) <- next.(key) + 1
      | None, _ -> Alcotest.fail "posted entry vanished at drain"
    done
  done;
  check_int "all drained" 0 (Match_list.length ml)

let prop_match_list_vs_model =
  (* Compare against a naive list model under random post/take. *)
  QCheck.Test.make ~name:"match_list equals naive model" ~count:200
    QCheck.(list (pair bool (pair (int_range 0 3) (int_range 0 3))))
    (fun ops ->
      let ml = Match_list.create () in
      let model = ref [] in
      let counter = ref 0 in
      List.for_all
        (fun (is_post, (src, tag)) ->
          if is_post then begin
            incr counter;
            post ml ~src ~tag !counter;
            model := !model @ [ (src, tag, !counter) ];
            true
          end
          else begin
            let expected =
              let rec find = function
                | [] -> None
                | (s, g, v) :: rest ->
                  if (s = -1 || s = src) && (g = -1 || g = tag) then begin
                    model := List.filter (fun (_, _, v') -> v' <> v) !model;
                    Some v
                  end
                  else
                    (match find rest with
                    | some -> some)
              in
              find !model
            in
            match (Match_list.take ml ~src ~tag, expected) with
            | (Some v, _), Some v' -> v = v'
            | (None, _), None -> true
            | _ -> false
          end)
        ops)

(* Hashed-vs-linear parity: randomized posts mixing exact, src-wildcard,
   tag-wildcard and fully-wildcard descriptors, queried with concrete
   and wildcard (src = -1 / tag = -1) lookups; both engines must return
   identical entries in identical (FIFO-within-key, post-order-across-
   key) order. Seeds pinned so every run replays the same histories. *)
let test_engine_parity_seeded () =
  List.iter
    (fun seed ->
      let rng = Random.State.make [| seed |] in
      let lin = Match_list.create ~engine:Match_list.Linear () in
      let hsh = Match_list.create ~engine:Match_list.Hashed () in
      let counter = ref 0 in
      let pick_id () =
        (* -1 (wildcard) sometimes; small ranges force key collisions. *)
        if Random.State.int rng 5 = 0 then -1 else Random.State.int rng 4
      in
      for _ = 1 to 3_000 do
        match Random.State.int rng 5 with
        | 0 | 1 | 2 ->
          incr counter;
          let src = pick_id () and tag = pick_id () in
          post lin ~src ~tag !counter;
          post hsh ~src ~tag !counter
        | 3 ->
          (* Query side: concrete most of the time, wildcard sometimes
             (the hashed engine's documented linear fallback). *)
          let src = pick_id () and tag = pick_id () in
          let l, _ = Match_list.take lin ~src ~tag in
          let h, _ = Match_list.take hsh ~src ~tag in
          if l <> h then
            Alcotest.failf "seed %d: take(%d,%d): linear=%s hashed=%s" seed src
              tag
              (match l with None -> "none" | Some v -> string_of_int v)
              (match h with None -> "none" | Some v -> string_of_int v)
        | _ ->
          let src = pick_id () and tag = pick_id () in
          let l, _ = Match_list.find lin ~src ~tag in
          let h, _ = Match_list.find hsh ~src ~tag in
          if l <> h then Alcotest.failf "seed %d: find mismatch" seed
      done;
      (* Drain both fully with a universal query: remaining order must
         agree entry by entry. *)
      let rec drain () =
        let l, _ = Match_list.take lin ~src:(-1) ~tag:(-1) in
        let h, _ = Match_list.take hsh ~src:(-1) ~tag:(-1) in
        if l <> h then Alcotest.failf "seed %d: drain order diverged" seed;
        if l <> None then drain ()
      in
      drain ())
    [ 7; 42; 1337; 9001; 123456 ]

(* Removed descriptors must not stay reachable from a live list (a
   closed connection's key never sees another frame to reap them).
   Values are boxed so the weak pointers track real heap blocks. *)
let test_removed_values_collectable engine () =
  let ml = Match_list.create ~engine () in
  let n = 8 in
  let w = Weak.create (2 * n) in
  let value i = Option.get (Weak.get w i) in
  (* Slots 0..n-1 on key (1, 7), all unposted; slots n..2n-1 on the
     tag-wildcard key (3, -1), all but the last removed one by one. *)
  for i = 0 to (2 * n) - 1 do
    let v = Bytes.make 16 'v' in
    Weak.set w i (Some v);
    if i < n then post ml ~src:1 ~tag:7 v else post ml ~src:3 ~tag:(-1) v
  done;
  let key1 = List.init n value in
  List.iter
    (fun v -> ignore (Match_list.remove_first ml (fun v' -> v' == v)))
    key1;
  for i = n to (2 * n) - 2 do
    let v = value i in
    ignore (Match_list.remove_first ml (fun v' -> v' == v))
  done;
  check_int "one live descriptor left" 1 (Match_list.length ml);
  Gc.full_major ();
  for i = 0 to (2 * n) - 2 do
    check_bool "removed value collected" false (Weak.check w i)
  done;
  check_bool "live value kept" true (Weak.check w ((2 * n) - 1));
  (* The emptied key works again, in FIFO order, after a re-post. *)
  post ml ~src:1 ~tag:7 (Bytes.of_string "again-1");
  post ml ~src:1 ~tag:7 (Bytes.of_string "again-2");
  List.iter
    (fun want ->
      match Match_list.take ml ~src:1 ~tag:7 with
      | Some v, _ -> Alcotest.(check string) "re-post FIFO" want (Bytes.to_string v)
      | None, _ -> Alcotest.fail "re-posted key did not match")
    [ "again-1"; "again-2" ]

let test_remove_by_handle engine () =
  let ml = Match_list.create ~engine () in
  let a = Match_list.post ml ~src:1 ~tag:1 "a" in
  let b = Match_list.post ml ~src:1 ~tag:1 "b" in
  let c = Match_list.post ml ~src:1 ~tag:1 "c" in
  check_bool "remove middle" true (Match_list.remove ml b);
  check_bool "second remove is a no-op" false (Match_list.remove ml b);
  check_bool "detached handle" false (Match_list.remove ml Match_list.detached);
  (match Match_list.take ml ~src:1 ~tag:1 with
  | Some "a", _ -> ()
  | _ -> Alcotest.fail "expected a");
  check_bool "taken handle no longer removable" false (Match_list.remove ml a);
  check_bool "remove tail" true (Match_list.remove ml c);
  check_int "empty" 0 (Match_list.length ml);
  check_bool "nothing left" true (fst (Match_list.take ml ~src:1 ~tag:1) = None)

(* --- Tigon --- *)

let mk_nic ?match_engine () =
  let sim = Sim.create () in
  let model = Uls_host.Cost_model.paper_testbed in
  let net = Uls_ether.Network.create sim ~stations:2 () in
  (sim, Tigon.create ?match_engine sim model net ~node:0, net)

let test_tigon_resources_serialize () =
  let sim, nic, _ = mk_nic () in
  let done_at = Array.make 2 0 in
  for i = 0 to 1 do
    Sim.spawn sim (fun () ->
        Tigon.tx_work nic 1_000;
        done_at.(i) <- Sim.now sim)
  done;
  ignore (Sim.run sim);
  Alcotest.(check (array int)) "tx core FIFO" [| 1_000; 2_000 |] done_at

let test_tigon_dma_cost () =
  let sim, nic, _ = mk_nic () in
  Sim.spawn sim (fun () -> Tigon.dma nic ~bytes:1_000);
  ignore (Sim.run sim);
  check_int "dma setup + per byte" (1_800 + 1_900) (Sim.now sim)

let test_tigon_backpressure () =
  let sim, nic, _net = mk_nic () in
  (* Blast 20 full frames; the MAC FIFO (~100 us) must throttle the
     transmitting fiber rather than queue 20 frames' wire time. *)
  let sent_all_at = ref 0 in
  Sim.spawn sim (fun () ->
      for _ = 1 to 20 do
        Tigon.transmit nic
          (Uls_ether.Frame.make ~src:0 ~dst:1 ~payload_len:1500 Uls_ether.Frame.Raw)
      done;
      sent_all_at := Sim.now sim);
  ignore (Sim.run sim);
  (* 20 frames x 12.3 us of wire time is ~246 us; with a 100 us FIFO the
     sender must have been stalled until roughly total - fifo. *)
  check_bool "sender throttled" true (!sent_all_at > 100_000);
  check_bool "but not serialized to the last frame" true (!sent_all_at < 246_080)

let test_tigon_rx_dispatch () =
  let sim, nic, net = mk_nic () in
  let nic1 = Tigon.create sim Uls_host.Cost_model.paper_testbed net ~node:1 in
  let got = ref 0 in
  Tigon.set_firmware_rx nic1 (fun ~queue:_ _ -> incr got);
  Sim.spawn sim (fun () ->
      Tigon.transmit nic
        (Uls_ether.Frame.make ~src:0 ~dst:1 ~payload_len:64 Uls_ether.Frame.Raw));
  ignore (Sim.run sim);
  check_int "firmware handler ran" 1 !got;
  check_int "counter" 1 (Tigon.frames_received nic1)

let test_tigon_rss_steering () =
  (* Linear firmware: single receive queue, everything steers to 0.
     Hashed firmware: two queues, steering is a pure function of the
     flow, and the node ids of a small cluster split evenly: clients are
     numbered from 1, so a hash that keeps a weak low bit can put all of
     them on one core. *)
  let _, lin, _ = mk_nic () in
  check_int "linear has 1 rx queue" 1 (Tigon.rx_queues lin);
  for flow = 0 to 31 do
    check_int "all flows on queue 0" 0 (Tigon.steer lin ~flow)
  done;
  let _, hsh, _ = mk_nic ~match_engine:Match_list.Hashed () in
  check_int "hashed has 2 rx queues" 2 (Tigon.rx_queues hsh);
  for flow = 0 to 31 do
    let q = Tigon.steer hsh ~flow in
    check_bool "queue in range" true (q = 0 || q = 1);
    check_int "steering is stable" q (Tigon.steer hsh ~flow)
  done;
  let on_queue_1 n =
    List.length (List.filter (fun flow -> Tigon.steer hsh ~flow = 1)
                   (List.init n (fun i -> i + 1)))
  in
  check_int "nodes 1..4 split 2/2" 2 (on_queue_1 4);
  check_int "nodes 1..8 split 4/4" 4 (on_queue_1 8)

let test_tigon_queue_frames () =
  (* Each delivered frame is counted on the queue that serves it: under
     RSS firmware the one [steer] picks for its source, otherwise 0. *)
  let run ~rss =
    let sim = Sim.create () in
    let net = Uls_ether.Network.create sim ~stations:5 () in
    let nics =
      Array.init 5 (fun node ->
          Tigon.create ~match_engine:Match_list.Hashed sim
            Uls_host.Cost_model.paper_testbed net ~node)
    in
    let rx = nics.(1) in
    let handed = Array.make 2 0 in
    Tigon.set_firmware_rx ~rss rx (fun ~queue _ ->
        handed.(queue) <- handed.(queue) + 1);
    for src = 2 to 4 do
      Sim.spawn sim (fun () ->
          Tigon.transmit nics.(src)
            (Uls_ether.Frame.make ~src ~dst:1 ~payload_len:64
               Uls_ether.Frame.Raw))
    done;
    ignore (Sim.run sim);
    let q0 = Tigon.queue_frames rx ~queue:0
    and q1 = Tigon.queue_frames rx ~queue:1 in
    check_int "queues sum to frames received" (Tigon.frames_received rx)
      (q0 + q1);
    check_int "queue 0 count is what the firmware saw" handed.(0) q0;
    check_int "queue 1 count is what the firmware saw" handed.(1) q1;
    (q0, q1)
  in
  (* Sources 2, 3, 4 steer to 0, 1, 0. *)
  let q0, q1 = run ~rss:true in
  check_int "rss: queue 0" 2 q0;
  check_int "rss: queue 1" 1 q1;
  let q0, q1 = run ~rss:false in
  check_int "no rss: queue 0" 3 q0;
  check_int "no rss: queue 1" 0 q1

let test_tigon_fwd_pending_order () =
  (* Collective frames that arrive before their forward descriptor wait
     in a bounded pending queue: on overflow the oldest is dropped, and a
     descriptor drains the oldest matching entry, leaving the rest in
     arrival order. The frame's length stands in for its tag. *)
  let sim, nic0, net = mk_nic () in
  let nic1 = Tigon.create sim Uls_host.Cost_model.paper_testbed net ~node:1 in
  Tigon.set_coll_classifier nic1 (fun f ->
      Some (f.Uls_ether.Frame.src, f.Uls_ether.Frame.payload_len));
  let sent = 130 and base = 64 in
  let delivered = ref [] in
  let deliver = function
    | Some f -> delivered := f.Uls_ether.Frame.payload_len :: !delivered
    | None -> Alcotest.fail "host signal delivered to a frame descriptor"
  in
  let post ~tag =
    Tigon.post_forward nic1 ~src:(-1) ~tag ~need:1 ~deliver
      ~emit:(fun _ -> []) ()
  in
  Sim.spawn sim (fun () ->
      for i = 0 to sent - 1 do
        Tigon.transmit nic0
          (Uls_ether.Frame.make ~src:0 ~dst:1 ~payload_len:(base + i)
             Uls_ether.Frame.Raw)
      done);
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.ms 10);
      (* Take one entry out of the middle, then drain the rest in order. *)
      post ~tag:(base + 70);
      for _ = 1 to sent - 3 do
        post ~tag:(-1)
      done;
      (* The two oldest frames were shifted out by the overflow. *)
      post ~tag:base;
      post ~tag:(base + 1));
  ignore (Sim.run sim);
  check_int "every frame arrived" sent (Tigon.frames_received nic1);
  let kept =
    List.filter (fun l -> l <> base + 70) (List.init (sent - 2) (fun i -> base + 2 + i))
  in
  Alcotest.(check (list int))
    "middle entry first, then the rest in arrival order"
    ((base + 70) :: kept) (List.rev !delivered)

let engine_cases name f =
  [
    Alcotest.test_case (name ^ " (linear)") `Quick (f Match_list.Linear);
    Alcotest.test_case (name ^ " (hashed)") `Quick (f Match_list.Hashed);
  ]

let suites =
  [
    ( "nic.match_list",
      List.concat
        [
          engine_cases "basic" test_match_basic;
          [ Alcotest.test_case "linear walk accounting" `Quick
              test_match_walk_accounting;
            Alcotest.test_case "hashed lookup accounting" `Quick
              test_hashed_lookup_accounting ];
          engine_cases "FIFO same tag" test_match_fifo_same_tag;
          engine_cases "src filter" test_match_src_filter;
          engine_cases "wildcards" test_match_wildcards;
          engine_cases "wildcard beats later exact"
            test_wildcard_beats_later_exact;
          engine_cases "miss walks all" test_match_miss_walks_all;
          engine_cases "unpost" test_unpost;
          engine_cases "unposted never matches" test_unposted_never_matches;
          [ Alcotest.test_case "tombstones free" `Quick
              test_removed_not_counted_in_walk ];
          engine_cases "compaction order" test_compaction_preserves_order;
          engine_cases "10k churn keeps order" test_churn_10k;
          engine_cases "removed values collectable"
            test_removed_values_collectable;
          engine_cases "remove by handle" test_remove_by_handle;
          [ Alcotest.test_case "engine parity (pinned seeds)" `Quick
              test_engine_parity_seeded ];
          List.map QCheck_alcotest.to_alcotest [ prop_match_list_vs_model ];
        ] );
    ( "nic.tigon",
      [
        Alcotest.test_case "resource FIFO" `Quick test_tigon_resources_serialize;
        Alcotest.test_case "dma cost" `Quick test_tigon_dma_cost;
        Alcotest.test_case "tx backpressure" `Quick test_tigon_backpressure;
        Alcotest.test_case "rx dispatch" `Quick test_tigon_rx_dispatch;
        Alcotest.test_case "rss steering" `Quick test_tigon_rss_steering;
        Alcotest.test_case "per-queue frame counts" `Quick
          test_tigon_queue_frames;
        Alcotest.test_case "forward pending queue order" `Quick
          test_tigon_fwd_pending_order;
      ] );
  ]
