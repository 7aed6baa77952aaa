(* Tests for the EMP protocol: tag-matched delivery, reliability under
   frame loss, the unexpected queue, resource reclamation, and the
   translation cache. *)
open Uls_engine
open Uls_host
module E = Uls_emp.Endpoint

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let two_nodes () =
  let c = Uls_bench.Cluster.create ~n:2 () in
  (c, Uls_bench.Cluster.emp c 0, Uls_bench.Cluster.emp c 1)

let run c = ignore (Uls_bench.Cluster.run c)

let send_string e ~dst ~tag s =
  let region = Memory.of_string s in
  E.post_send e ~dst ~tag region ~off:0 ~len:(String.length s)

let test_basic_delivery () =
  let c, e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  let got = ref "" in
  Sim.spawn sim (fun () ->
      let buf = Memory.alloc 64 in
      let r = E.post_recv e1 ~src:0 ~tag:3 buf ~off:0 ~len:64 in
      let len, src, tag = E.wait_recv e1 r in
      got := Memory.sub_string buf ~off:0 ~len;
      check_int "src" 0 src;
      check_int "tag" 3 tag);
  Sim.spawn sim (fun () ->
      let s = send_string e0 ~dst:1 ~tag:3 "hello EMP" in
      E.wait_send e0 s);
  run c;
  check_str "payload" "hello EMP" !got

let test_tag_separation () =
  let c, e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  let order = ref [] in
  Sim.spawn sim (fun () ->
      let b1 = Memory.alloc 16 and b2 = Memory.alloc 16 in
      let r_b = E.post_recv e1 ~src:0 ~tag:2 b1 ~off:0 ~len:16 in
      let r_a = E.post_recv e1 ~src:0 ~tag:1 b2 ~off:0 ~len:16 in
      (* Wait on tag 1 first even though its descriptor was posted second:
         tag matching must route each message to its own descriptor. *)
      let len, _, _ = E.wait_recv e1 r_a in
      order := Memory.sub_string b2 ~off:0 ~len :: !order;
      let len, _, _ = E.wait_recv e1 r_b in
      order := Memory.sub_string b1 ~off:0 ~len :: !order);
  Sim.spawn sim (fun () ->
      ignore (send_string e0 ~dst:1 ~tag:2 "tag-two");
      ignore (send_string e0 ~dst:1 ~tag:1 "tag-one"));
  run c;
  Alcotest.(check (list string)) "routed by tag" [ "tag-two"; "tag-one" ] !order

let test_multi_frame_integrity () =
  let c, e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  let size = 10_000 in
  let payload = String.init size (fun i -> Char.chr (i mod 251)) in
  let got = ref "" in
  Sim.spawn sim (fun () ->
      let buf = Memory.alloc size in
      let r = E.post_recv e1 ~src:0 ~tag:7 buf ~off:0 ~len:size in
      let len, _, _ = E.wait_recv e1 r in
      got := Memory.sub_string buf ~off:0 ~len);
  Sim.spawn sim (fun () -> E.wait_send e0 (send_string e0 ~dst:1 ~tag:7 payload));
  run c;
  check_bool "multi-frame payload intact" true (String.equal payload !got);
  check_bool "several frames" true ((E.stats e0).E.frames_sent > 6)

let test_zero_length_message () =
  let c, e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  let len_got = ref (-42) in
  Sim.spawn sim (fun () ->
      let buf = Memory.alloc 8 in
      let r = E.post_recv e1 ~src:0 ~tag:1 buf ~off:0 ~len:0 in
      let len, _, _ = E.wait_recv e1 r in
      len_got := len);
  Sim.spawn sim (fun () ->
      let region = Memory.alloc 8 in
      E.wait_send e0 (E.post_send e0 ~dst:1 ~tag:1 region ~off:0 ~len:0));
  run c;
  check_int "zero-length delivered" 0 !len_got

let test_wildcard_src () =
  let c = Uls_bench.Cluster.create ~n:3 () in
  let e0 = Uls_bench.Cluster.emp c 0
  and e1 = Uls_bench.Cluster.emp c 1
  and e2 = Uls_bench.Cluster.emp c 2 in
  let sim = Uls_bench.Cluster.sim c in
  let sources = ref [] in
  Sim.spawn sim (fun () ->
      let buf = Memory.alloc 16 in
      for _ = 1 to 2 do
        let r = E.post_recv e0 ~src:(-1) ~tag:5 buf ~off:0 ~len:16 in
        let _, src, _ = E.wait_recv e0 r in
        sources := src :: !sources
      done);
  Sim.spawn sim (fun () -> ignore (send_string e1 ~dst:0 ~tag:5 "a"));
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 100);
      ignore (send_string e2 ~dst:0 ~tag:5 "b"));
  run c;
  Alcotest.(check (list int)) "both sources matched" [ 2; 1 ] !sources

let test_drop_and_retransmit () =
  let c, e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  (* Drop every 5th frame at the switch. *)
  let n = ref 0 in
  Uls_ether.Network.set_fault_filter (Uls_bench.Cluster.network c) (fun _ ->
      incr n;
      !n mod 5 = 0);
  let size = 50_000 in
  let payload = String.init size (fun i -> Char.chr (i mod 256)) in
  let got = ref "" in
  Sim.spawn sim (fun () ->
      let buf = Memory.alloc size in
      let r = E.post_recv e1 ~src:0 ~tag:9 buf ~off:0 ~len:size in
      let len, _, _ = E.wait_recv e1 r in
      got := Memory.sub_string buf ~off:0 ~len);
  Sim.spawn sim (fun () -> E.wait_send e0 (send_string e0 ~dst:1 ~tag:9 payload));
  run c;
  check_bool "payload intact despite drops" true (String.equal payload !got);
  check_bool "retransmissions happened" true ((E.stats e0).E.frames_retransmitted > 0)

let test_ack_loss_recovery () =
  let c, e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  (* Drop the first two protocol-ack frames. *)
  let dropped = ref 0 in
  Uls_ether.Network.set_fault_filter (Uls_bench.Cluster.network c)
    (fun frame ->
      match frame.Uls_ether.Frame.payload with
      | Uls_emp.Wire.Ack _ when !dropped < 2 ->
        incr dropped;
        true
      | _ -> false);
  let done_ = ref false in
  Sim.spawn sim (fun () ->
      let buf = Memory.alloc 64 in
      let r = E.post_recv e1 ~src:0 ~tag:4 buf ~off:0 ~len:64 in
      ignore (E.wait_recv e1 r));
  Sim.spawn sim (fun () ->
      E.wait_send e0 (send_string e0 ~dst:1 ~tag:4 "needs acks");
      done_ := true);
  run c;
  check_bool "send completed despite ack loss" true !done_;
  check_int "two acks dropped" 2 !dropped

let test_send_failure_no_receiver () =
  let config = { E.default_config with max_retries = 3; rto = Time.us 100 } in
  let c = Uls_bench.Cluster.create ~n:2 () in
  let e0 = Uls_bench.Cluster.emp ~config c 0 in
  ignore (Uls_bench.Cluster.emp c 1);
  let sim = Uls_bench.Cluster.sim c in
  let failed = ref false in
  Sim.spawn sim (fun () ->
      let s = send_string e0 ~dst:1 ~tag:1 "nobody listens" in
      try E.wait_send e0 s
      with E.Send_failed { retries; _ } ->
        failed := true;
        check_bool "gave up after retries" true (retries >= 3));
  run c;
  check_bool "Send_failed raised" true !failed;
  check_bool "receiver dropped frames" true
    ((E.stats (Uls_bench.Cluster.emp c 1)).E.frames_dropped_no_descriptor > 0)

let test_unexpected_queue_hit () =
  let c, e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  E.provision_unexpected e1 ~slots:4 ~size:128;
  let got = ref "" in
  Sim.spawn sim (fun () ->
      (* Send with no descriptor posted: must land in the UQ. *)
      E.wait_send e0 (send_string e0 ~dst:1 ~tag:6 "early bird"));
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.ms 1);
      let buf = Memory.alloc 128 in
      let r = E.post_recv e1 ~src:0 ~tag:6 buf ~off:0 ~len:128 in
      let len, src, _ = E.wait_recv e1 r in
      check_int "src" 0 src;
      got := Memory.sub_string buf ~off:0 ~len);
  run c;
  check_str "uq contents copied out" "early bird" !got;
  check_int "uq hit counted" 1 (E.stats e1).E.unexpected_queue_hits;
  check_int "nothing dropped" 0 (E.stats e1).E.frames_dropped_no_descriptor

let test_unexpected_queue_size_limit () =
  let c, e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  E.provision_unexpected e1 ~slots:2 ~size:16;
  Sim.spawn sim (fun () ->
      (* Too big for any UQ slot: dropped, sender eventually fails. *)
      let s = send_string e0 ~dst:1 ~tag:6 (String.make 64 'x') in
      try E.wait_send e0 s with E.Send_failed _ -> ());
  ignore (Sim.run ~until:(Time.ms 400) (Uls_bench.Cluster.sim c));
  ignore sim;
  check_int "no uq hit for oversized message" 0 (E.stats e1).E.unexpected_queue_hits;
  check_bool "frames dropped" true ((E.stats e1).E.frames_dropped_no_descriptor > 0)

let test_uq_evicts_stale_arrivals () =
  (* Two slots, three unexpected messages spaced beyond the staleness
     horizon: the third must evict the oldest arrival instead of being
     dropped (otherwise unclaimed arrivals pin the queue forever — the
     failure mode behind credit-ack starvation on connection churn). *)
  let c, e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  E.provision_unexpected e1 ~slots:2 ~size:64;
  Sim.spawn sim (fun () ->
      for tag = 1 to 3 do
        E.wait_send e0 (send_string e0 ~dst:1 ~tag (Printf.sprintf "msg%d" tag));
        Sim.delay sim (Time.ms 10)
      done);
  run c;
  check_bool "oldest arrival evicted" true
    (not (E.uq_has_match e1 ~src:0 ~tag:1));
  check_bool "newest arrivals kept" true
    (E.uq_has_match e1 ~src:0 ~tag:2 && E.uq_has_match e1 ~src:0 ~tag:3);
  check_int "third message was not dropped" 0
    (E.stats e1).E.frames_dropped_no_descriptor

let test_unpost_recv () =
  let c, _e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  let cancelled_len = ref 0 in
  Sim.spawn sim (fun () ->
      let buf = Memory.alloc 16 in
      let r = E.post_recv e1 ~src:0 ~tag:1 buf ~off:0 ~len:16 in
      check_int "posted" 1 (E.posted_descriptors e1);
      Sim.spawn sim (fun () ->
          let len, _, _ = E.wait_recv e1 r in
          cancelled_len := len);
      Sim.delay sim (Time.us 10);
      check_bool "unposted" true (E.unpost_recv e1 r);
      check_int "descriptor reclaimed" 0 (E.posted_descriptors e1));
  run c;
  check_int "waiter unblocked with sentinel" (-1) !cancelled_len

let test_reset_clears_descriptors () =
  let c, _e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  Sim.spawn sim (fun () ->
      let buf = Memory.alloc 16 in
      for tag = 1 to 5 do
        ignore (E.post_recv e1 ~src:0 ~tag buf ~off:0 ~len:16)
      done;
      check_int "five posted" 5 (E.posted_descriptors e1);
      E.reset e1;
      check_int "reset reclaims all" 0 (E.posted_descriptors e1));
  run c

let test_translation_cache_reuse () =
  let c, e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  let region = Memory.of_string (String.make 256 'a') in
  Sim.spawn sim (fun () ->
      let buf = Memory.alloc 256 in
      for _ = 1 to 3 do
        let r = E.post_recv e1 ~src:0 ~tag:2 buf ~off:0 ~len:256 in
        ignore (E.wait_recv e1 r)
      done);
  Sim.spawn sim (fun () ->
      for _ = 1 to 3 do
        E.wait_send e0 (E.post_send e0 ~dst:1 ~tag:2 region ~off:0 ~len:256)
      done);
  run c;
  let os = Node.os (Uls_bench.Cluster.node c 0) in
  check_int "one miss for the reused buffer" 1 (Os.translation_cache_misses os);
  check_int "two hits" 2 (Os.translation_cache_hits os)

let test_protocol_ack_window () =
  let c, e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  let size = 30 * Uls_emp.Wire.max_data_per_frame in
  Sim.spawn sim (fun () ->
      let buf = Memory.alloc size in
      let r = E.post_recv e1 ~src:0 ~tag:2 buf ~off:0 ~len:size in
      ignore (E.wait_recv e1 r));
  Sim.spawn sim (fun () ->
      E.wait_send e0 (send_string e0 ~dst:1 ~tag:2 (String.make size 'q')));
  run c;
  (* 30 frames, ack window 4: acks at 4,8,...,28 and at completion. *)
  check_int "acks per window" 8 (E.stats e1).E.protocol_acks_sent

let nack_recovery_time ~use_nacks =
  let config = { E.default_config with use_nacks } in
  let c = Uls_bench.Cluster.create ~n:2 () in
  let e0 = Uls_bench.Cluster.emp ~config c 0 in
  let e1 = Uls_bench.Cluster.emp ~config c 1 in
  let sim = Uls_bench.Cluster.sim c in
  (* Drop exactly one mid-message data frame. *)
  let dropped = ref false in
  Uls_ether.Network.set_fault_filter (Uls_bench.Cluster.network c)
    (fun frame ->
      match frame.Uls_ether.Frame.payload with
      | Uls_emp.Wire.Data d when d.Uls_emp.Wire.frame_idx = 5 && not !dropped ->
        dropped := true;
        true
      | _ -> false);
  let size = 20 * Uls_emp.Wire.max_data_per_frame in
  let finished = ref 0 in
  Sim.spawn sim (fun () ->
      let buf = Memory.alloc size in
      let r = E.post_recv e1 ~src:0 ~tag:2 buf ~off:0 ~len:size in
      ignore (E.wait_recv e1 r);
      finished := Sim.now sim);
  Sim.spawn sim (fun () ->
      E.wait_send e0 (send_string e0 ~dst:1 ~tag:2 (String.make size 'n')));
  run c;
  let registry =
    Metrics.counter_value (Metrics.for_sim sim) ~node:0
      "emp.frames_retransmitted"
  in
  (!finished, (E.stats e1).E.nacks_sent,
   (registry, (E.stats e0).E.frames_retransmitted))

let test_nack_fast_recovery () =
  let with_nacks, nacks, (registry, retransmitted) =
    nack_recovery_time ~use_nacks:true
  in
  let without, no_nacks, _ = nack_recovery_time ~use_nacks:false in
  check_bool "nack was sent" true (nacks >= 1);
  (* The NACK rewind resends frames; the registry counts them too. *)
  check_bool "nack rewind retransmitted" true (retransmitted > 0);
  check_int "registry counts the nack retransmits" retransmitted registry;
  check_int "no nacks when disabled" 0 no_nacks;
  (* RTO is 2 ms; NACK recovery should complete well before that. *)
  check_bool "nack recovers before the RTO horizon" true
    (with_nacks < Time.ms 2);
  check_bool "without nacks the RTO pays the bill" true (without > with_nacks)

let test_bidirectional_concurrent () =
  let c, e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  let ok = ref 0 in
  let pair (a, b) tag =
    Sim.spawn sim (fun () ->
        let buf = Memory.alloc 5_000 in
        let r = E.post_recv a ~src:(E.node_id b) ~tag buf ~off:0 ~len:5_000 in
        E.wait_send a (send_string a ~dst:(E.node_id b) ~tag (String.make 5_000 'm'));
        let len, _, _ = E.wait_recv a r in
        if len = 5_000 then incr ok)
  in
  pair (e0, e1) 11;
  pair (e1, e0) 11;
  run c;
  check_int "both directions complete" 2 !ok

let prop_random_sizes_intact =
  QCheck.Test.make ~name:"emp delivers random-size payloads intact" ~count:25
    QCheck.(int_range 1 20_000)
    (fun size ->
      let c, e0, e1 = two_nodes () in
      let sim = Uls_bench.Cluster.sim c in
      let payload = String.init size (fun i -> Char.chr ((i * 31) mod 256)) in
      let ok = ref false in
      Sim.spawn sim (fun () ->
          let buf = Memory.alloc size in
          let r = E.post_recv e1 ~src:0 ~tag:1 buf ~off:0 ~len:size in
          let len, _, _ = E.wait_recv e1 r in
          ok := String.equal (Memory.sub_string buf ~off:0 ~len) payload);
      Sim.spawn sim (fun () -> E.wait_send e0 (send_string e0 ~dst:1 ~tag:1 payload));
      run c;
      !ok)

(* --- Low-water mark: the finished table is bounded ------------------- *)

let test_finished_table_bounded () =
  (* Rounds of [window] concurrent messages, each round posted only once
     the previous one is fully acknowledged. Every frame carries the
     sender's low-water mark, so the receiver forgets each round as the
     next arrives: it never remembers more messages than the sender can
     have outstanding. *)
  let c, e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  let window = 4 and rounds = 16 in
  let worst = ref 0 and got = ref 0 in
  Sim.spawn sim (fun () ->
      for k = 0 to (window * rounds) - 1 do
        let buf = Memory.alloc 3_000 in
        let r = E.post_recv e1 ~src:0 ~tag:k buf ~off:0 ~len:3_000 in
        Sim.spawn sim (fun () ->
            let len, _, _ = E.wait_recv e1 r in
            if Memory.sub_string buf ~off:0 ~len = String.make 3_000 (Char.chr k)
            then incr got)
      done);
  Sim.spawn sim (fun () ->
      for round = 0 to rounds - 1 do
        let sends =
          List.init window (fun i ->
              let k = (round * window) + i in
              send_string e0 ~dst:1 ~tag:k (String.make 3_000 (Char.chr k)))
        in
        List.iter (E.wait_send e0) sends;
        worst := max !worst (E.stats e1).E.finished_retained
      done);
  run c;
  check_int "all delivered intact" (window * rounds) !got;
  check_int "messages received" (window * rounds) (E.stats e1).E.messages_received;
  check_bool "finished table within the outstanding window" true
    (!worst <= window);
  check_bool "finished table in use" true (!worst > 0)

let test_stale_duplicate_below_mark () =
  (* A captured frame of message 1 is replayed after message 2 has moved
     the receiver's mark past it: the receiver has already forgotten
     message 1, re-acks the stale copy, and leaves a posted wildcard
     descriptor alone. *)
  let c, e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  let net = Uls_bench.Cluster.network c in
  let captured = ref None in
  Uls_ether.Network.set_fault_filter net (fun frame ->
      (match frame.Uls_ether.Frame.payload with
      | Uls_emp.Wire.Data d when d.Uls_emp.Wire.key.Uls_emp.Wire.msg_id = 1 ->
        if !captured = None then captured := Some frame
      | _ -> ());
      false);
  let spare = ref None and before = ref (E.stats e1) in
  Sim.spawn sim (fun () ->
      let b1 = Memory.alloc 64 and b2 = Memory.alloc 64 in
      let r1 = E.post_recv e1 ~src:0 ~tag:1 b1 ~off:0 ~len:64 in
      let r2 = E.post_recv e1 ~src:0 ~tag:2 b2 ~off:0 ~len:64 in
      ignore (E.wait_recv e1 r1);
      ignore (E.wait_recv e1 r2);
      spare := Some (E.post_recv e1 ~src:(-1) ~tag:(-1) (Memory.alloc 64) ~off:0 ~len:64));
  Sim.spawn sim (fun () ->
      E.wait_send e0 (send_string e0 ~dst:1 ~tag:1 "first");
      E.wait_send e0 (send_string e0 ~dst:1 ~tag:2 "second");
      Sim.delay sim (Time.us 100);
      before := E.stats e1;
      match !captured with
      | Some frame -> Uls_ether.Network.send net frame
      | None -> ());
  run c;
  let after = E.stats e1 in
  check_bool "a frame of message 1 was captured" true (!captured <> None);
  check_int "message 1 already forgotten" 1 !before.E.finished_retained;
  check_int "stale copy re-acked" (!before.E.protocol_acks_sent + 1)
    after.E.protocol_acks_sent;
  check_int "no message delivered twice" 2 after.E.messages_received;
  check_int "nothing dropped" 0 after.E.frames_dropped_no_descriptor;
  (match !spare with
  | Some r -> check_bool "spare descriptor untouched" false (E.recv_done r)
  | None -> Alcotest.fail "spare never posted");
  check_int "spare still posted" 1 (E.posted_descriptors e1)

let test_dup_reorder_byte_exact () =
  (* Half the data frames from node 0 are duplicated and a quarter are
     delayed by up to 400 us, past the next message's frames. Delivery stays byte-exact, duplicates of
     settled messages never reach a descriptor (a trailing wildcard
     stays posted), and the finished table stays bounded. *)
  let c, e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  let fault = Fault.create ~seed:7 sim in
  Fault.set_link_plan fault ~link:"uplink-0"
    { Fault.clean with dup_p = 0.5; delay_p = 0.5; delay_max = Time.us 400 };
  Uls_ether.Network.set_fault (Uls_bench.Cluster.network c) fault;
  let n = 24 and size = 6_000 in
  let payload k = String.init size (fun i -> Char.chr ((i + (k * 7)) mod 256)) in
  let got = ref [] and spare = ref None in
  Sim.spawn sim (fun () ->
      for k = 0 to n - 1 do
        let buf = Memory.alloc size in
        let r = E.post_recv e1 ~src:0 ~tag:k buf ~off:0 ~len:size in
        let len, _, _ = E.wait_recv e1 r in
        got := Memory.sub_string buf ~off:0 ~len :: !got
      done;
      spare := Some (E.post_recv e1 ~src:(-1) ~tag:(-1) (Memory.alloc size) ~off:0 ~len:size));
  Sim.spawn sim (fun () ->
      for k = 0 to n - 1 do
        E.wait_send e0 (send_string e0 ~dst:1 ~tag:k (payload k))
      done);
  run c;
  Alcotest.(check (list string)) "byte-exact, once each" (List.init n payload)
    (List.rev !got);
  check_bool "duplicates were injected" true (Fault.faults_injected fault > 0);
  check_int "message count not inflated" n (E.stats e1).E.messages_received;
  check_int "no duplicate reached the matcher" 0
    (E.stats e1).E.frames_dropped_no_descriptor;
  (match !spare with
  | Some r -> check_bool "spare descriptor untouched" false (E.recv_done r)
  | None -> Alcotest.fail "spare never posted");
  check_bool "finished table bounded" true ((E.stats e1).E.finished_retained <= 1)

let test_batch_with_bad_spec_posts_nothing () =
  (* A batch whose second spec is out of range is refused before the
     first is charged, pinned or posted: nothing is left matchable
     without a handle, and no virtual time passes. *)
  let c, e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  let os0 = Node.os (Uls_bench.Cluster.node c 0) in
  let os1 = Node.os (Uls_bench.Cluster.node c 1) in
  let specs =
    [
      (0, 1, Memory.alloc 64, 0, 64, None);
      (0, 2, Memory.alloc 64, 32, 64, None);
      (0, 3, Memory.alloc 64, 0, 64, None);
    ]
  in
  Sim.spawn sim (fun () ->
      let posted = E.posted_descriptors e1 and pinned = Os.pinned_regions os1 in
      let t0 = Sim.now sim in
      (match E.post_recv_batch e1 specs with
      | _ -> Alcotest.fail "post_recv_batch accepted a bad range"
      | exception Invalid_argument _ -> ());
      check_int "no descriptor posted" posted (E.posted_descriptors e1);
      check_int "no region pinned" pinned (Os.pinned_regions os1);
      check_int "no time charged" t0 (Sim.now sim);
      let sent = (E.stats e0).E.messages_sent
      and pinned = Os.pinned_regions os0 in
      (match E.post_sendv e0 (List.map (fun (_, t, r, o, l, _) -> (1, t, r, o, l)) specs) with
      | _ -> Alcotest.fail "post_sendv accepted a bad range"
      | exception Invalid_argument _ -> ());
      check_int "no send submitted" sent (E.stats e0).E.messages_sent;
      check_int "no send region pinned" pinned (Os.pinned_regions os0);
      check_int "no time charged for the sends" t0 (Sim.now sim));
  run c

let suites =
  [
    ( "emp.delivery",
      Alcotest.test_case "basic" `Quick test_basic_delivery
      :: Alcotest.test_case "tag separation" `Quick test_tag_separation
      :: Alcotest.test_case "multi-frame integrity" `Quick
           test_multi_frame_integrity
      :: Alcotest.test_case "zero length" `Quick test_zero_length_message
      :: Alcotest.test_case "wildcard src" `Quick test_wildcard_src
      :: Alcotest.test_case "bidirectional" `Quick test_bidirectional_concurrent
      :: List.map QCheck_alcotest.to_alcotest [ prop_random_sizes_intact ] );
    ( "emp.reliability",
      [
        Alcotest.test_case "drop+retransmit" `Quick test_drop_and_retransmit;
        Alcotest.test_case "ack loss" `Quick test_ack_loss_recovery;
        Alcotest.test_case "send failure" `Quick test_send_failure_no_receiver;
        Alcotest.test_case "ack window" `Quick test_protocol_ack_window;
        Alcotest.test_case "nack fast recovery" `Quick test_nack_fast_recovery;
      ] );
    ( "emp.low_water_mark",
      [
        Alcotest.test_case "finished table bounded" `Quick
          test_finished_table_bounded;
        Alcotest.test_case "stale duplicate below mark" `Quick
          test_stale_duplicate_below_mark;
        Alcotest.test_case "dup+reorder byte-exact" `Quick
          test_dup_reorder_byte_exact;
      ] );
    ( "emp.unexpected_queue",
      [
        Alcotest.test_case "uq hit" `Quick test_unexpected_queue_hit;
        Alcotest.test_case "uq size limit" `Quick test_unexpected_queue_size_limit;
        Alcotest.test_case "uq evicts stale" `Quick test_uq_evicts_stale_arrivals;
      ] );
    ( "emp.resources",
      [
        Alcotest.test_case "unpost" `Quick test_unpost_recv;
        Alcotest.test_case "reset" `Quick test_reset_clears_descriptors;
        Alcotest.test_case "translation cache" `Quick test_translation_cache_reuse;
        Alcotest.test_case "batch with a bad spec posts nothing" `Quick
          test_batch_with_bad_spec_posts_nothing;
      ] );
  ]
