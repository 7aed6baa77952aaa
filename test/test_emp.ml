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

let test_unpost_during_match_charge () =
  (* The owner unposts a descriptor while the NIC is still charging the
     match that took it: the descriptor is already claimed, so the unpost
     must fail and the message be delivered and acked, not dropped and
     left to the sender's RTO. Decoys ahead of it on the linear match
     list stretch the charge to ~110 us; the unpost lands 20 us after
     the frame reaches the NIC, past the 4 us classify. *)
  let c, e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  let nic1 = E.nic e1 in
  let unposted = ref true and got = ref "" and acked = ref false in
  Sim.spawn sim (fun () ->
      let decoy = Memory.alloc 16 in
      for tag = 100 to 299 do
        ignore (E.post_recv e1 ~src:0 ~tag decoy ~off:0 ~len:16)
      done;
      let buf = Memory.alloc 64 in
      let r = E.post_recv e1 ~src:0 ~tag:7 buf ~off:0 ~len:64 in
      (* Let the receive core finish fetching the posted descriptors. *)
      Sim.delay sim (Time.ms 5);
      let before = Uls_nic.Tigon.frames_received nic1 in
      Sim.spawn sim (fun () ->
          try
            E.wait_send e0 (send_string e0 ~dst:1 ~tag:7 "claimed");
            acked := true
          with E.Send_failed _ -> ());
      while Uls_nic.Tigon.frames_received nic1 = before do
        Sim.delay sim (Time.us 1)
      done;
      Sim.delay sim (Time.us 20);
      unposted := E.unpost_recv e1 r;
      let len, _, _ = E.wait_recv e1 r in
      if len >= 0 then got := Memory.sub_string buf ~off:0 ~len);
  run c;
  check_bool "unpost finds the descriptor already matched" false !unposted;
  check_str "message delivered" "claimed" !got;
  check_bool "send acked" true !acked;
  check_int "nothing dropped" 0 (E.stats e1).E.frames_dropped_no_descriptor;
  check_int "nothing retransmitted" 0 (E.stats e0).E.frames_retransmitted

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
  check_int "acks per window" 8 (E.stats e1).E.ack_frames_sent

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
  check_int "stale copy re-acked" (!before.E.ack_frames_sent + 1)
    after.E.ack_frames_sent;
  check_int "no message delivered twice" 2 after.E.messages_received;
  check_int "nothing dropped" 0 after.E.frames_dropped_no_descriptor;
  (match !spare with
  | Some r -> check_bool "spare descriptor untouched" false (E.recv_done r)
  | None -> Alcotest.fail "spare never posted");
  check_int "spare still posted" 1 (E.posted_descriptors e1)

let test_dup_reorder_byte_exact () =
  (* On every hop, in both directions, half the frames are duplicated
     and half are delayed by up to 400 us, past the next message's
     frames. Delivery stays byte-exact, duplicates of
     settled messages never reach a descriptor (a trailing wildcard
     stays posted), and the finished table stays bounded. *)
  let c, e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  let fault = Fault.create ~seed:7 sim in
  Fault.set_plan fault
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

(* --- the fill ring: busy queues need no doorbell ---------------------- *)

(* What node 1 saw in one run: when each of its two messages completed
   (tags 1 and 2, sent back to back by node 0), its NIC's doorbell and
   mailbox-fetch counts, and its receive core's busy time. Decoys ahead
   of both descriptors on the linear match list stretch each frame's
   match to ~110 us, so the second frame queues behind the first.
   [post], when given, runs on node 1 once the first frame has reached
   the NIC, while the receive queue serves it; [idle_post] runs 1 ms
   before any traffic. Both post after the descriptors for tags 1 and
   2, so no frame walks past what they post. *)
type fill_run = {
  done_at : (int * Time.ns) list;
  doorbells : int;
  fetches : int;
  rx_busy : Time.ns;
}

let fill_ring_run ?post ?idle_post firmware =
  let c = Uls_bench.Cluster.create ~n:2 () in
  let e0 = Uls_bench.Cluster.emp c 0
  and e1 = Uls_bench.Cluster.emp ~firmware c 1 in
  let sim = Uls_bench.Cluster.sim c in
  let nic1 = E.nic e1 in
  let done_at = ref [] in
  Sim.spawn sim (fun () ->
      let decoy = Memory.alloc 16 in
      for tag = 1000 to 1199 do
        ignore (E.post_recv e1 ~src:0 ~tag decoy ~off:0 ~len:16)
      done;
      List.iter
        (fun tag ->
          ignore
            (E.post_recv e1 ~src:0 ~tag
               ~on_complete:(fun _ _ -> done_at := (tag, Sim.now sim) :: !done_at)
               (Memory.alloc 64) ~off:0 ~len:64))
        [ 1; 2 ];
      Option.iter (fun f -> f e1) idle_post;
      Sim.delay sim (Time.ms 1);
      let before = Uls_nic.Tigon.frames_received nic1 in
      ignore (send_string e0 ~dst:1 ~tag:1 "first");
      ignore (send_string e0 ~dst:1 ~tag:2 "second");
      match post with
      | None -> ()
      | Some f ->
        while Uls_nic.Tigon.frames_received nic1 = before do
          Sim.delay sim 100
        done;
        f e1);
  run c;
  let m = Metrics.for_sim sim in
  {
    done_at = List.sort compare !done_at;
    doorbells = Metrics.counter_value m ~node:1 "nic.doorbells";
    fetches = Metrics.counter_value m ~node:1 "nic.mailbox_fetches";
    rx_busy = Resource.busy_time (Uls_nic.Tigon.rx_cpu nic1);
  }

(* Descriptors for tags the run never sends, their regions pinned
   beforehand so a post charges only the post itself. *)
let spare_region e =
  let region = Memory.alloc 64 in
  Os.pin_region (Node.os (E.node e)) region ~off:0 ~len:64;
  region

let post_spare e =
  ignore (E.post_recv e ~src:0 ~tag:100 (spare_region e) ~off:0 ~len:64)

let post_spare_batch e =
  ignore
    (E.post_recv_batch e
       (List.map (fun tag -> (0, tag, spare_region e, 0, 64, None)) [ 100; 101; 102 ]))

let model = Cost_model.paper_testbed

let test_busy_queue_takes_posts_without_doorbell () =
  (* A [Ring] endpoint's post to a queue serving a frame rings no
     doorbell and reserves nothing: the frame in service completes when
     it would have without the post, and the slot's fetch runs after
     it, ahead of the frame queued behind, which completes exactly one
     [nic_ring_slot_fetch] later. *)
  let base = fill_ring_run E.Ring in
  let one = fill_ring_run ~post:post_spare E.Ring in
  let first run = List.assoc 1 run.done_at
  and second run = List.assoc 2 run.done_at in
  check_int "no doorbell" base.doorbells one.doorbells;
  check_int "no mailbox fetch" base.fetches one.fetches;
  check_int "one slot fetch of receive-core time" model.Cost_model.nic_ring_slot_fetch
    (one.rx_busy - base.rx_busy);
  check_int "the frame in service is not delayed" (first base) (first one);
  check_int "the fetch runs before the queued frame"
    (second base + model.Cost_model.nic_ring_slot_fetch)
    (second one);
  let three = fill_ring_run ~post:post_spare_batch E.Ring in
  check_int "batch: no doorbell" base.doorbells three.doorbells;
  check_int "batch: no mailbox fetch" base.fetches three.fetches;
  check_int "batch: k slot fetches, no batch doorbell fetch"
    (3 * model.Cost_model.nic_ring_slot_fetch)
    (three.rx_busy - base.rx_busy);
  check_int "batch: the frame in service is not delayed" (first base)
    (first three);
  check_int "batch: the queued frame waits for the three fetches"
    (second base + (3 * model.Cost_model.nic_ring_slot_fetch))
    (second three)

let test_idle_queue_rings_as_before () =
  (* An idle queue is woken exactly as the per-call path always did: a
     doorbell, a mailbox fetch and its charge on the receive core (the
     descriptor's own for one post, the batch doorbell's plus one slot
     fetch each for a batch). A [Paper] endpoint rings even a busy
     queue's doorbell. *)
  let base = fill_ring_run E.Ring in
  let check_woken what run charge =
    check_int (what ^ ": one doorbell") (base.doorbells + 1) run.doorbells;
    check_int (what ^ ": one mailbox fetch") (base.fetches + 1) run.fetches;
    check_int (what ^ ": receive-core charge") charge (run.rx_busy - base.rx_busy)
  in
  check_woken "idle post"
    (fill_ring_run ~idle_post:post_spare E.Ring)
    model.Cost_model.nic_mailbox_fetch;
  check_woken "idle batch"
    (fill_ring_run ~idle_post:post_spare_batch E.Ring)
    (model.Cost_model.nic_doorbell_batch + (3 * model.Cost_model.nic_ring_slot_fetch));
  let paper = fill_ring_run E.Paper in
  let busy_paper = fill_ring_run ~post:post_spare E.Paper in
  check_int "paper: busy post rings" (paper.doorbells + 1) busy_paper.doorbells;
  check_int "paper: and is fetched" (paper.fetches + 1) busy_paper.fetches;
  check_int "paper: mailbox fetch charge" model.Cost_model.nic_mailbox_fetch
    (busy_paper.rx_busy - paper.rx_busy)

(* --- wildcard posts: any busy queue takes them ------------------------ *)

(* Under the hashed engine node 1's frames land on receive queue 1 of
   node 0's NIC, as a listener's backlog requests do from a client that
   RSS steers there. What node 0, a [Ring] endpoint with one wildcard
   descriptor already posted (a standing backlog slot, so every run's
   match pays the wildcard class's hash probe), saw while node 1 sent
   it one message: its doorbell and mailbox-fetch counts, and each
   receive core's busy time. [post], when given, runs on node 0 once
   the frame has reached the NIC, while queue 1 serves it; [idle_post]
   runs before any traffic. Each gets three regions pinned beforehand,
   so a post charges only the post itself. *)
type queue_run = {
  q_doorbells : int;
  q_fetches : int;
  q_busy : Time.ns array;
}

let wildcard_run ?post ?idle_post () =
  let c =
    Uls_bench.Cluster.create ~match_engine:Uls_nic.Match_list.Hashed ~n:2 ()
  in
  let e0 = Uls_bench.Cluster.emp ~firmware:E.Ring c 0
  and e1 = Uls_bench.Cluster.emp c 1 in
  let sim = Uls_bench.Cluster.sim c in
  let nic0 = E.nic e0 in
  check_int "node 1 is steered to queue 1" 1 (Uls_nic.Tigon.steer nic0 ~flow:1);
  Sim.spawn sim (fun () ->
      let regions = List.init 3 (fun _ -> spare_region e0) in
      ignore (E.post_recv e0 ~src:(-1) ~tag:99 (spare_region e0) ~off:0 ~len:64);
      ignore (E.post_recv e0 ~src:1 ~tag:1 (Memory.alloc 64) ~off:0 ~len:64);
      Option.iter (fun f -> f e0 regions) idle_post;
      Sim.delay sim (Time.ms 1);
      let before = Uls_nic.Tigon.frames_received nic0 in
      ignore (send_string e1 ~dst:0 ~tag:1 "request");
      match post with
      | None -> ()
      | Some f ->
        while Uls_nic.Tigon.frames_received nic0 = before do
          Sim.delay sim 100
        done;
        f e0 regions);
  run c;
  let m = Metrics.for_sim sim in
  {
    q_doorbells = Metrics.counter_value m ~node:0 "nic.doorbells";
    q_fetches = Metrics.counter_value m ~node:0 "nic.mailbox_fetches";
    q_busy =
      Array.init 2 (fun queue ->
          Resource.busy_time (Uls_nic.Tigon.rx_cpu ~queue nic0));
  }

let post_wildcard e regions =
  ignore (E.post_recv e ~src:(-1) ~tag:100 (List.hd regions) ~off:0 ~len:64)

let post_wildcard_batch e regions =
  ignore
    (E.post_recv_batch e
       (List.mapi (fun i region -> (-1, 100 + i, region, 0, 64, None)) regions))

let test_wildcard_post_joins_busy_queue () =
  (* A wildcard descriptor, such as a listener's backlog slot, sits on
     the fill ring that every receive queue reads. Posted while queue 1
     serves a frame and queue 0 idles, it rings no doorbell: queue 1
     fetches it between frames, and queue 0's core does nothing. *)
  let base = wildcard_run () in
  let check what run slots =
    check_int (what ^ ": no doorbell") base.q_doorbells run.q_doorbells;
    check_int (what ^ ": no mailbox fetch") base.q_fetches run.q_fetches;
    check_int (what ^ ": queue 0 untouched") base.q_busy.(0) run.q_busy.(0);
    check_int (what ^ ": queue 1 fetches the slots")
      (slots * model.Cost_model.nic_ring_slot_fetch)
      (run.q_busy.(1) - base.q_busy.(1))
  in
  check "one post" (wildcard_run ~post:post_wildcard ()) 1;
  check "a batch of three" (wildcard_run ~post:post_wildcard_batch ()) 3

let test_wildcard_post_idle_rings_queue0 () =
  (* With every queue idle, queue 0 is woken exactly as before. *)
  let base = wildcard_run () in
  let run = wildcard_run ~idle_post:post_wildcard () in
  check_int "one doorbell" (base.q_doorbells + 1) run.q_doorbells;
  check_int "one mailbox fetch" (base.q_fetches + 1) run.q_fetches;
  check_int "queue 0 fetches the mailbox" model.Cost_model.nic_mailbox_fetch
    (run.q_busy.(0) - base.q_busy.(0));
  check_int "queue 1 untouched" base.q_busy.(1) run.q_busy.(1)

(* --- held acks: the ring firmware's delayed, piggybacked EMP acks ------ *)

(* The holdoff the ring firmware holds a completing ack for (DESIGN
   §16). *)
let holdoff = Time.us 40

(* Node 0 sends [msgs] one-frame messages back to back to node 1, whose
   endpoint runs [firmware]; [reply], when given, has node 1 send one
   message back, from a region pinned beforehand, that long after the
   first has arrived. Returns the ack frames that
   reached the switch from node 1 (their arrival time and the acks each
   held), each message's completion time at node 1, when node 0's first
   send completed, and node 1's stats. *)
let ack_run ?reply ~msgs firmware =
  let c = Uls_bench.Cluster.create ~n:2 () in
  let e0 = Uls_bench.Cluster.emp c 0
  and e1 = Uls_bench.Cluster.emp ~firmware c 1 in
  let sim = Uls_bench.Cluster.sim c in
  let ack_frames = ref [] and completed = ref [] and first_sent = ref 0 in
  Uls_ether.Network.set_fault_filter (Uls_bench.Cluster.network c) (fun f ->
      (match f.Uls_ether.Frame.payload with
      | Uls_emp.Wire.Ack acks when f.Uls_ether.Frame.src = 1 ->
        ack_frames := (Sim.now sim, List.length acks) :: !ack_frames
      | _ -> ());
      false);
  Sim.spawn sim (fun () ->
      for tag = 1 to msgs do
        ignore
          (E.post_recv e1 ~src:0 ~tag
             ~on_complete:(fun _ _ -> completed := Sim.now sim :: !completed)
             (Memory.alloc 64) ~off:0 ~len:64)
      done;
      ignore (E.post_recv e0 ~src:1 ~tag:9 (Memory.alloc 64) ~off:0 ~len:64);
      let region = spare_region e1 in
      match reply with
      | None -> ()
      | Some after ->
        while !completed = [] do
          Sim.delay sim 100
        done;
        Sim.delay sim after;
        ignore (E.post_send e1 ~dst:0 ~tag:9 region ~off:0 ~len:5));
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 100);
      let sends =
        List.init msgs (fun i -> send_string e0 ~dst:1 ~tag:(i + 1) "request")
      in
      E.wait_send e0 (List.hd sends);
      first_sent := Sim.now sim;
      List.iter (E.wait_send e0) sends);
  run c;
  (List.rev !ack_frames, List.rev !completed, !first_sent, E.stats e1)

let test_paper_acks_each_message () =
  (* The paper firmware acks every message in its own frame, at once. *)
  let frames, _, _, st = ack_run ~msgs:2 E.Paper in
  check_int "two ack frames" 2 st.E.ack_frames_sent;
  check_int "none carried" 0 st.E.acks_piggybacked;
  Alcotest.(check (list int)) "one ack each" [ 1; 1 ] (List.map snd frames)

let test_ring_coalesces_at_holdoff () =
  (* With no frame back to node 0, the ring firmware holds both acks and
     sends them in one frame when the first has waited the holdoff:
     built on the receive core ([nic_ack_gen]), its 84 wire bytes (64 B
     minimum frame, preamble and gap) then cross the uplink. *)
  let frames, completed, sent, st = ack_run ~msgs:2 E.Ring in
  check_int "one ack frame" 1 st.E.ack_frames_sent;
  check_int "none carried" 0 st.E.acks_piggybacked;
  let first = List.hd completed in
  let m = model in
  let wire = int_of_float (float_of_int (84 * 8) /. m.Cost_model.link_bits_per_ns) in
  Alcotest.(check (list (pair int int)))
    "both acks, at the holdoff after the first completion"
    [ (first + holdoff + m.Cost_model.nic_ack_gen + wire
       + m.Cost_model.link_propagation, 2) ]
    frames;
  check_bool "the sender completes after the holdoff" true (sent > first + holdoff)

let test_ring_piggybacks_on_reverse_data () =
  (* A message back to node 0 inside the holdoff carries the held ack:
     no ack frame leaves node 1, and node 0's send completes once that
     message has arrived. *)
  let frames, completed, sent, st =
    ack_run ~reply:(Time.us 10) ~msgs:1 E.Ring
  in
  check_int "no ack frame" 0 st.E.ack_frames_sent;
  check_int "one ack carried" 1 st.E.acks_piggybacked;
  check_int "nothing on the wire as an ack" 0 (List.length frames);
  check_bool "the sender completes inside the holdoff" true
    (sent < List.hd completed + holdoff)

let test_ring_window_acks_stay_immediate () =
  (* A 30-frame message to a ring endpoint: the window acks (every 4
     frames) keep the transfer moving and leave at once; only the one
     that completes it is held, then flushed at the holdoff. *)
  let c = Uls_bench.Cluster.create ~n:2 () in
  let e0 = Uls_bench.Cluster.emp c 0
  and e1 = Uls_bench.Cluster.emp ~firmware:E.Ring c 1 in
  let sim = Uls_bench.Cluster.sim c in
  let size = 30 * Uls_emp.Wire.max_data_per_frame in
  Sim.spawn sim (fun () ->
      let r = E.post_recv e1 ~src:0 ~tag:2 (Memory.alloc size) ~off:0 ~len:size in
      ignore (E.wait_recv e1 r));
  Sim.spawn sim (fun () ->
      E.wait_send e0 (send_string e0 ~dst:1 ~tag:2 (String.make size 'q')));
  run c;
  check_int "seven window acks and one flush" 8 (E.stats e1).E.ack_frames_sent;
  check_int "no retransmission" 0 (E.stats e0).E.frames_retransmitted

(* --- cut-through receive: the ring firmware's early classify ---------- *)

(* The wire time of [frame]'s bytes behind EMP's fixed header (DESIGN
   §17): the preamble, the Ethernet header and EMP's 24 bytes arrive
   first. *)
let tail_ns (frame : Uls_ether.Frame.t) =
  let bytes =
    Uls_ether.Frame.wire_bytes frame - (8 + 14 + Uls_emp.Wire.header_bytes)
  in
  int_of_float (float_of_int (bytes * 8) /. model.Cost_model.link_bits_per_ns)

(* Node 0 sends node 1, whose endpoint runs [firmware], one message per
   entry of [payloads], back to back, each to its own descriptor; with
   [decoys] node 1 first posts 200 descriptors for other tags, which the
   linear match walks for each frame (~110 us), so the second frame
   queues behind the first. Monitors on. Returns each frame node 1
   received (the frame and its delivery: its switch ingress plus
   forwarding, its serialization on the idle egress and propagation),
   node 1's classify spans (its [nic.rx_work] spans of one
   [nic_rx_classify]), when each message completed there, node 1's
   receive-core busy time and the monitors' violations. *)
type cut_run = {
  frames : (Uls_ether.Frame.t * Time.ns) list;
  classify : (Time.ns * Time.ns) list;
  completed : Time.ns list;
  busy : Time.ns;
  violations : Invariant.violation list;
}

let cut_run ?(decoys = false) ~payloads firmware =
  let c = Uls_bench.Cluster.create ~n:2 () in
  let e0 = Uls_bench.Cluster.emp c 0
  and e1 = Uls_bench.Cluster.emp ~firmware c 1 in
  let sim = Uls_bench.Cluster.sim c in
  let m = model in
  let tr = Trace.for_sim sim and inv = Invariant.for_sim sim in
  Trace.enable tr;
  Invariant.enable inv;
  let frames = ref [] and completed = ref [] in
  Uls_ether.Network.set_fault_filter (Uls_bench.Cluster.network c) (fun f ->
      if f.Uls_ether.Frame.dst = 1 then begin
        let wire =
          int_of_float
            (float_of_int (Uls_ether.Frame.wire_bytes f * 8)
            /. m.Cost_model.link_bits_per_ns)
        in
        let delivered =
          Sim.now sim + m.Cost_model.switch_fwd_latency + wire
          + m.Cost_model.link_propagation
        in
        frames := (f, delivered) :: !frames
      end;
      false);
  Sim.spawn sim (fun () ->
      if decoys then begin
        let decoy = Memory.alloc 16 in
        for tag = 1000 to 1199 do
          ignore (E.post_recv e1 ~src:0 ~tag decoy ~off:0 ~len:16)
        done
      end;
      List.iteri
        (fun i p ->
          ignore
            (E.post_recv e1 ~src:0 ~tag:(i + 1)
               ~on_complete:(fun _ _ -> completed := Sim.now sim :: !completed)
               (Memory.alloc (String.length p)) ~off:0 ~len:(String.length p)))
        payloads;
      Sim.delay sim (Time.ms 1);
      List.iteri (fun i p -> ignore (send_string e0 ~dst:1 ~tag:(i + 1) p)) payloads);
  run c;
  let opened = Hashtbl.create 8 and classify = ref [] in
  List.iter
    (fun (e : Trace.event) ->
      if e.ev_node = 1 && e.ev_name = "nic.rx_work" then
        match e.ev_kind with
        | Trace.Span_begin id -> Hashtbl.replace opened id e.ev_time
        | Trace.Span_end id ->
          let start = Hashtbl.find opened id in
          if e.ev_time - start = m.Cost_model.nic_rx_classify then
            classify := (start, e.ev_time) :: !classify
        | Trace.Instant -> ())
    (Trace.events tr);
  {
    frames = List.rev !frames;
    classify = List.sort compare !classify;
    completed = List.rev !completed;
    busy = Resource.busy_time (Uls_nic.Tigon.rx_cpu (E.nic e1));
    violations = Invariant.violations inv;
  }

let test_classify_from_the_header () =
  (* To an idle queue and core, a ring endpoint's classify starts when
     EMP's header has arrived: 38 wire bytes (304 ns) before the last
     byte of a minimum-size frame. The paper firmware's starts at the
     last byte. *)
  let classify = model.Cost_model.nic_rx_classify in
  let ring = cut_run ~payloads:[ "first" ] E.Ring in
  let frame, delivered = List.hd ring.frames in
  check_int "a minimum frame's tail: 38 bytes" 304 (tail_ns frame);
  Alcotest.(check (list (pair int int)))
    "ring: from the header" [ (delivered - 304, delivered - 304 + classify) ]
    ring.classify;
  let paper = cut_run ~payloads:[ "first" ] E.Paper in
  Alcotest.(check (list (pair int int)))
    "paper: from the last byte" [ (delivered, delivered + classify) ]
    paper.classify;
  check_bool "monitors clean" true (ring.violations = [])

let test_tail_outlasts_classify () =
  (* A 1 KB frame's tail (8.3 us) outlasts the 4 us classify, which ends
     while the payload still arrives: the dispatcher resumes at the
     frame's last byte, no event needed (test_substrate's 1 KB echo
     saves a whole classify each way). *)
  let classify = model.Cost_model.nic_rx_classify in
  let payload = String.make 1024 'k' in
  let ring = cut_run ~payloads:[ payload ] E.Ring in
  let frame, delivered = List.hd ring.frames in
  let tail = tail_ns frame in
  check_int "1 KB: 1040 bytes behind the header" (1040 * 8) tail;
  Alcotest.(check (list (pair int int)))
    "hidden under the tail" [ (delivered - tail, delivered - tail + classify) ]
    ring.classify;
  check_bool "over before the last byte" true (delivered - tail + classify < delivered);
  check_bool "monitors clean" true (ring.violations = [])

let test_queued_frame_starts_late () =
  (* The second frame arrives while the first walks 200 decoys: its
     header came long before, but its classify starts only when the
     dispatcher returns from the first frame, the instant that frame's
     message completed. The first's 256 B payload DMA (2.286 us)
     outlasts the core's 2 us of per-frame work, so the core is free
     286 ns before that: the dispatcher, not the core, holds the
     classify back. *)
  let classify = model.Cost_model.nic_rx_classify in
  let ring =
    cut_run ~decoys:true ~payloads:[ String.make 256 'f'; "second" ] E.Ring
  in
  let core_done =
    Cost_model.dma_cost model 256 - model.Cost_model.nic_rx_per_frame
  in
  match (ring.frames, ring.completed, ring.classify) with
  | [ (f1, d1); (_, d2) ], [ done1; _ ], [ c1; c2 ] ->
    Alcotest.(check (pair int int))
      "the first: from its header" (d1 - tail_ns f1, d1 - tail_ns f1 + classify) c1;
    check_bool "the second arrived while the first was served" true
      (d2 < done1);
    check_int "the core idles 286 ns before the dispatcher returns" 286
      core_done;
    Alcotest.(check (pair int int))
      "the second: when the dispatcher returns" (done1, done1 + classify) c2;
    check_bool "monitors clean" true (ring.violations = [])
  | _ -> Alcotest.fail "two frames, two completions, two classifies"

let test_classify_busy_unchanged () =
  (* The core is charged the whole classify whenever it starts: a ring
     endpoint's receive core is as busy as a paper one's over the same
     two messages, less the one ack build its held acks save (one ack
     frame for both at the holdoff, DESIGN §16). *)
  let payloads = [ "first"; String.make 1024 'k' ] in
  let ring = cut_run ~payloads E.Ring and paper = cut_run ~payloads E.Paper in
  check_int "two classifies each" 2 (List.length ring.classify);
  check_int "paper less one ack build"
    (paper.busy - model.Cost_model.nic_ack_gen)
    ring.busy

(* --- one-slot sends: the fetch and the header build are one job ----- *)

let test_one_slot_fetch_and_header_one_job () =
  (* A [Ring] endpoint posts two one-slot sends back to back, so the
     second's doorbell comes 1.65 us (host charge and PIO write) after
     the first's, inside the first's 2.6 us descriptor fetch. The send
     core books each fetch with its header build as one job, and the
     payload DMA starts once the fetch ends: the first frame leaves at
     its post + fetch + max(header, DMA), and the second's job waits
     behind the whole first one. The core is busy as long as before. *)
  let c = Uls_bench.Cluster.create ~n:2 () in
  let e0 = Uls_bench.Cluster.emp ~firmware:E.Ring c 0
  and e1 = Uls_bench.Cluster.emp c 1 in
  let sim = Uls_bench.Cluster.sim c in
  let left = ref [] and posted = ref [] in
  (* The switch sees a frame once it has crossed the uplink: it left
     the NIC its wire time and the propagation delay before. *)
  Uls_ether.Network.set_fault_filter (Uls_bench.Cluster.network c) (fun f ->
      (match f.Uls_ether.Frame.payload with
      | Uls_emp.Wire.Data _ when f.Uls_ether.Frame.src = 0 ->
        let wire =
          int_of_float
            (float_of_int (Uls_ether.Frame.wire_bytes f * 8)
            /. model.Cost_model.link_bits_per_ns)
        in
        left :=
          (Sim.now sim - wire - model.Cost_model.link_propagation) :: !left
      | _ -> ());
      false);
  let payloads = [ "first"; "second" ] in
  Sim.spawn sim (fun () ->
      List.iteri
        (fun i p ->
          let len = String.length p in
          ignore (E.post_recv e1 ~src:0 ~tag:(i + 1) (Memory.alloc len) ~off:0 ~len))
        payloads;
      Sim.delay sim (Time.ms 1);
      (* One region, pinned by the first post only. *)
      let region = Memory.of_string (String.concat "" payloads) in
      ignore
        (List.fold_left
           (fun (i, off) p ->
             let len = String.length p in
             ignore (E.post_send e0 ~dst:1 ~tag:(i + 1) region ~off ~len);
             posted := Sim.now sim :: !posted;
             (i + 1, off + len))
           (0, 0) payloads));
  run c;
  let fetch = model.Cost_model.nic_doorbell_batch + model.Cost_model.nic_ring_slot_fetch
  and header = model.Cost_model.nic_tx_per_frame in
  match (List.rev !posted, List.rev !left) with
  | [ p1; p2 ], [ l1; l2 ] ->
    check_int "posted 1.65 us apart"
      (model.Cost_model.emp_host_post + model.Cost_model.ring_slot_post
     + model.Cost_model.pio_write)
      (p2 - p1);
    check_int "first: post + fetch + max(header, DMA)"
      (p1 + fetch + max header (Cost_model.dma_cost model 5))
      l1;
    check_int "second: behind the first job"
      (p1 + fetch + header + fetch + max header (Cost_model.dma_cost model 6))
      l2;
    check_int "send core busy as before" (2 * (fetch + header))
      (Resource.busy_time (Uls_nic.Tigon.tx_cpu (E.nic e0)))
  | _ -> Alcotest.fail "two posts, two data frames"

let test_uq_message_delivered_once () =
  (* One 4096-byte unexpected message, whose host copy takes 7.4 us,
     and two descriptors for it posted 800 ns apart (their regions
     pinned beforehand, so each post charges only [emp_host_post]): the
     first takes the message, and the second must find the slot
     claimed, not take the same message while the copy runs. *)
  let c, e0, e1 = two_nodes () in
  let sim = Uls_bench.Cluster.sim c in
  E.provision_unexpected e1 ~slots:4 ~size:4096;
  let payload = String.init 4096 (fun i -> Char.chr (i mod 251)) in
  let got = ref "" and second = ref None in
  Sim.spawn sim (fun () -> E.wait_send e0 (send_string e0 ~dst:1 ~tag:6 payload));
  Sim.spawn sim (fun () ->
      let os = Node.os (Uls_bench.Cluster.node c 1) in
      let a = Memory.alloc 4096 and b = Memory.alloc 4096 in
      Os.pin_region os a ~off:0 ~len:4096;
      Os.pin_region os b ~off:0 ~len:4096;
      Sim.delay sim (Time.ms 1);
      check_bool "the message waits in the unexpected queue" true
        (E.uq_has_match e1 ~src:0 ~tag:6);
      let ra = E.post_recv e1 ~src:0 ~tag:6 a ~off:0 ~len:4096 in
      let rb = E.post_recv e1 ~src:0 ~tag:6 b ~off:0 ~len:4096 in
      second := Some rb;
      let len, _, _ = E.wait_recv e1 ra in
      got := Memory.sub_string a ~off:0 ~len);
  run c;
  check_bool "payload copied out" true (String.equal payload !got);
  check_bool "second descriptor still posted" false
    (E.recv_done (Option.get !second));
  check_int "one uq hit" 1 (E.stats e1).E.unexpected_queue_hits;
  check_bool "the message is gone from the unexpected queue" false
    (E.uq_has_match e1 ~src:0 ~tag:6)

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
        Alcotest.test_case "uq message delivered once" `Quick
          test_uq_message_delivered_once;
      ] );
    ( "emp.fill_ring",
      [
        Alcotest.test_case "busy queue: no doorbell, fetched between frames"
          `Quick test_busy_queue_takes_posts_without_doorbell;
        Alcotest.test_case "idle queue and paper firmware: as before" `Quick
          test_idle_queue_rings_as_before;
        Alcotest.test_case "wildcard post: a busy queue 1 takes it, no doorbell"
          `Quick test_wildcard_post_joins_busy_queue;
        Alcotest.test_case "wildcard post: every queue idle, queue 0 rings"
          `Quick test_wildcard_post_idle_rings_queue0;
      ] );
    ( "emp.cut_through",
      [
        Alcotest.test_case "idle queue: classify from the header" `Quick
          test_classify_from_the_header;
        Alcotest.test_case "1 KB: the tail hides the classify" `Quick
          test_tail_outlasts_classify;
        Alcotest.test_case "queued frame: no early start" `Quick
          test_queued_frame_starts_late;
        Alcotest.test_case "core busy time unchanged" `Quick
          test_classify_busy_unchanged;
      ] );
    ( "emp.one_slot_send",
      [
        Alcotest.test_case "fetch and header build: one job" `Quick
          test_one_slot_fetch_and_header_one_job;
      ] );
    ( "emp.held_acks",
      [
        Alcotest.test_case "paper: one ack frame per message" `Quick
          test_paper_acks_each_message;
        Alcotest.test_case "ring: one coalesced frame at the holdoff" `Quick
          test_ring_coalesces_at_holdoff;
        Alcotest.test_case "ring: reverse data carries the ack" `Quick
          test_ring_piggybacks_on_reverse_data;
        Alcotest.test_case "ring: window acks stay immediate" `Quick
          test_ring_window_acks_stay_immediate;
      ] );
    ( "emp.resources",
      [
        Alcotest.test_case "unpost" `Quick test_unpost_recv;
        Alcotest.test_case "unpost during the match charge" `Quick
          test_unpost_during_match_charge;
        Alcotest.test_case "translation cache" `Quick test_translation_cache_reuse;
        Alcotest.test_case "batch with a bad spec posts nothing" `Quick
          test_batch_with_bad_spec_posts_nothing;
      ] );
  ]
