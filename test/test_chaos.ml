(* Fault injection and recovery: the fault engine's determinism, EMP's
   loss recovery mechanics (NACK fast-retransmit, RTO rewind, duplicate
   suppression), the substrate's failure surface (refused vs timed-out
   connects, resets when the transport gives up), and end-to-end chaos
   soaks that stream checksummed data through seeded loss. *)
open Uls_engine
open Uls_host
open Uls_api.Sockets_api
module E = Uls_emp.Endpoint
module Opt = Uls_substrate.Options
module Sub = Uls_substrate.Substrate
module Mb = Uls_bench.Microbench
module Cluster = Uls_bench.Cluster
module Group = Uls_collective.Group

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let seed = 42
let ds = Opt.data_streaming_enhanced

(* --- Fault engine ------------------------------------------------------ *)

let verdicts ?(n = 200) ?(link = "uplink-0") fault =
  List.init n (fun i -> Fault.decide fault ~link ~src:0 ~dst:(i mod 3))

let lossy = { Fault.clean with drop_p = 0.2; dup_p = 0.1; corrupt_p = 0.1 }

let test_fault_deterministic () =
  let run () =
    let f = Fault.create ~seed (Sim.create ()) in
    Fault.set_plan f lossy;
    verdicts f
  in
  check_bool "same seed, same verdicts" true (run () = run ());
  let other =
    let f = Fault.create ~seed:(seed + 1) (Sim.create ()) in
    Fault.set_plan f lossy;
    verdicts f
  in
  check_bool "different seed, different verdicts" false (run () = other)

let test_fault_inactive_is_free () =
  let f = Fault.create ~seed (Sim.create ()) in
  List.iter
    (fun v -> check_bool "short-circuits to deliver" true (v = Fault.Deliver))
    (verdicts f);
  check_int "nothing injected" 0 (Fault.faults_injected f)

let test_fault_links_independent () =
  (* Each link owns its random stream: traffic on one link must not
     shift the fault pattern another link sees. *)
  let make () =
    let f = Fault.create ~seed (Sim.create ()) in
    Fault.set_plan f lossy;
    f
  in
  let quiet = make () in
  let busy = make () in
  ignore (verdicts ~link:"uplink-0" busy);
  check_bool "uplink-1 pattern unaffected by uplink-0 traffic" true
    (verdicts ~link:"uplink-1" quiet = verdicts ~link:"uplink-1" busy);
  check_bool "distinct links, distinct patterns" false
    (verdicts ~link:"uplink-0" quiet = verdicts ~link:"uplink-1" quiet)

let test_fault_link_down_window () =
  let sim = Sim.create () in
  let f = Fault.create ~seed sim in
  Fault.set_plan f { Fault.clean with down = [ (Time.us 10, Time.us 20) ] };
  let at t = Sim.spawn_at sim t in
  let got = ref [] in
  let probe () = got := Fault.decide f ~link:"uplink-0" ~src:0 ~dst:1 :: !got in
  at (Time.us 5) probe;
  at (Time.us 15) probe;
  at (Time.us 25) probe;
  ignore (Sim.run sim);
  check_bool "dropped only inside the window" true
    (List.rev !got = [ Fault.Deliver; Fault.Drop "down"; Fault.Deliver ]);
  check_int "cause accounted" 1
    (Metrics.counter_value (Metrics.for_sim sim) "fault.drop.down")

let test_fault_node_pause () =
  let sim = Sim.create () in
  let f = Fault.create ~seed sim in
  Fault.pause_node f ~node:2 ~from:0 ~until:(Time.us 10);
  let d ~src ~dst = Fault.decide f ~link:"x" ~src ~dst in
  check_bool "to the paused node" true (d ~src:0 ~dst:2 = Fault.Drop "pause");
  check_bool "from the paused node" true (d ~src:2 ~dst:1 = Fault.Drop "pause");
  check_bool "bystanders unaffected" true (d ~src:0 ~dst:1 = Fault.Deliver)

(* --- Switch drop accounting -------------------------------------------- *)

let test_switch_drop_causes () =
  let sim = Sim.create () in
  (* Tiny egress queue so convergent traffic overflows deterministically. *)
  let net = Uls_ether.Network.create sim ~queue_limit:4_000 ~stations:4 () in
  for i = 0 to 3 do
    Uls_ether.Network.attach net ~station:i (fun _ -> ())
  done;
  let m = Metrics.for_sim sim in
  let count cause = Metrics.counter_value m ("switch.drop." ^ cause) in
  let frame ~src ~dst =
    Uls_ether.Frame.make ~src ~dst ~payload_len:1500 Uls_ether.Frame.Raw
  in
  (* MAC-table miss. *)
  Uls_ether.Network.send net (frame ~src:0 ~dst:9);
  ignore (Sim.run sim);
  check_int "unknown_dst" 1 (count "unknown_dst");
  (* Two stations flood one egress at 2x its drain rate. *)
  for _ = 1 to 6 do
    Uls_ether.Network.send net (frame ~src:0 ~dst:1);
    Uls_ether.Network.send net (frame ~src:2 ~dst:1)
  done;
  ignore (Sim.run sim);
  check_bool "queue_full" true (count "queue_full" > 0);
  (* Injected fault at switch ingress. *)
  let f = Fault.create ~seed sim in
  Fault.set_plan f (Fault.uniform_loss 1.0);
  Uls_ether.Switch.set_fault (Uls_ether.Network.switch net) f;
  Uls_ether.Network.send net (frame ~src:0 ~dst:1);
  ignore (Sim.run sim);
  check_int "fault" 1 (count "fault");
  check_int "engine agrees" 1 (Metrics.counter_value m "fault.drop.loss");
  (* Legacy boolean filter keeps its own cause. *)
  Uls_ether.Network.set_fault_filter net (fun _ -> true);
  Uls_ether.Network.send net (frame ~src:0 ~dst:1);
  ignore (Sim.run sim);
  check_int "filter" 1 (count "filter")

(* --- EMP loss recovery -------------------------------------------------- *)

let two_nodes ?config () =
  let c = Cluster.create ~n:2 () in
  let e0 = Cluster.emp ?config c 0 in
  let e1 = Cluster.emp ?config c 1 in
  (c, e0, e1)

let send_string e ~dst ~tag s =
  let region = Memory.of_string s in
  E.post_send e ~dst ~tag region ~off:0 ~len:(String.length s)

let test_single_drop_one_nack () =
  (* One lost data frame: the receiver NACKs the gap exactly once and
     the sender rewinds immediately — well before its 2 ms RTO. *)
  let c, e0, e1 = two_nodes () in
  let sim = Cluster.sim c in
  let n = ref 0 in
  Uls_ether.Network.set_fault_filter (Cluster.network c) (fun frame ->
      match frame.Uls_ether.Frame.payload with
      | Uls_emp.Wire.Data _ ->
        incr n;
        !n = 3
      | _ -> false);
  let size = 50_000 in
  let payload = String.init size (fun i -> Char.chr (i mod 251)) in
  let got = ref "" in
  let t_done = ref max_int in
  Sim.spawn sim (fun () ->
      let buf = Memory.alloc size in
      let r = E.post_recv e1 ~src:0 ~tag:5 buf ~off:0 ~len:size in
      let len, _, _ = E.wait_recv e1 r in
      got := Memory.sub_string buf ~off:0 ~len);
  Sim.spawn sim (fun () ->
      E.wait_send e0 (send_string e0 ~dst:1 ~tag:5 payload);
      t_done := Sim.now sim);
  ignore (Cluster.run c);
  check_bool "payload intact" true (String.equal payload !got);
  check_int "exactly one nack" 1 (E.stats e1).E.nacks_sent;
  check_bool "frames retransmitted" true
    ((E.stats e0).E.frames_retransmitted > 0);
  check_bool "fast retransmit beat the RTO" true
    (!t_done < (E.config e0).E.rto)

let test_ack_loss_rto_rewind () =
  (* Every early ack is lost: only the RTO rewind can recover, and since
     the receiver holds a complete prefix it never NACKs. *)
  let c, e0, e1 = two_nodes () in
  let sim = Cluster.sim c in
  let dropped = ref 0 in
  Uls_ether.Network.set_fault_filter (Cluster.network c) (fun frame ->
      match frame.Uls_ether.Frame.payload with
      | Uls_emp.Wire.Ack _ when !dropped < 3 ->
        incr dropped;
        true
      | _ -> false);
  let payload = String.init 8_000 (fun i -> Char.chr (i mod 256)) in
  let got = ref "" in
  Sim.spawn sim (fun () ->
      let buf = Memory.alloc 8_000 in
      let r = E.post_recv e1 ~src:0 ~tag:6 buf ~off:0 ~len:8_000 in
      let len, _, _ = E.wait_recv e1 r in
      got := Memory.sub_string buf ~off:0 ~len);
  Sim.spawn sim (fun () -> E.wait_send e0 (send_string e0 ~dst:1 ~tag:6 payload));
  ignore (Cluster.run c);
  check_bool "payload intact" true (String.equal payload !got);
  check_bool "rewind retransmitted" true
    ((E.stats e0).E.frames_retransmitted > 0);
  check_int "no gap, no nack" 0 (E.stats e1).E.nacks_sent;
  check_bool "acks were lost" true (!dropped >= 2)

let test_duplicates_never_double_count () =
  (* Every frame duplicated on every hop, acks included: payloads must
     arrive once each, and message accounting must not inflate. *)
  let c, e0, e1 = two_nodes () in
  let sim = Cluster.sim c in
  let fault = Fault.create ~seed sim in
  Fault.set_plan fault { Fault.clean with dup_p = 1.0 };
  Uls_ether.Network.set_fault (Cluster.network c) fault;
  let payloads =
    List.init 3 (fun k -> String.init 10_000 (fun i -> Char.chr ((i + k) mod 256)))
  in
  let got = ref [] in
  Sim.spawn sim (fun () ->
      List.iteri
        (fun k p ->
          let buf = Memory.alloc (String.length p) in
          let r =
            E.post_recv e1 ~src:0 ~tag:(10 + k) buf ~off:0
              ~len:(String.length p)
          in
          let len, _, _ = E.wait_recv e1 r in
          got := Memory.sub_string buf ~off:0 ~len :: !got)
        payloads);
  Sim.spawn sim (fun () ->
      List.iteri
        (fun k p -> E.wait_send e0 (send_string e0 ~dst:1 ~tag:(10 + k) p))
        payloads);
  ignore (Cluster.run c);
  Alcotest.(check (list string)) "each payload delivered once" payloads
    (List.rev !got);
  check_int "message count not inflated" 3 (E.stats e1).E.messages_received;
  check_bool "duplicates were injected" true (Fault.faults_injected fault > 0)

let test_corruption_crc_dropped_and_recovered () =
  (* Corrupted frames reach the NIC, fail its CRC check and are dropped
     there; EMP retransmission heals the stream. *)
  let c, e0, e1 = two_nodes () in
  let sim = Cluster.sim c in
  let fault = Fault.create ~seed sim in
  Fault.set_plan fault { Fault.clean with corrupt_p = 0.05 };
  Uls_ether.Network.set_fault (Cluster.network c) fault;
  let size = 100_000 in
  let payload = String.init size (fun i -> Char.chr (i mod 253)) in
  let got = ref "" in
  Sim.spawn sim (fun () ->
      let buf = Memory.alloc size in
      let r = E.post_recv e1 ~src:0 ~tag:2 buf ~off:0 ~len:size in
      let len, _, _ = E.wait_recv e1 r in
      got := Memory.sub_string buf ~off:0 ~len);
  Sim.spawn sim (fun () -> E.wait_send e0 (send_string e0 ~dst:1 ~tag:2 payload));
  ignore (Cluster.run c);
  check_bool "payload intact" true (String.equal payload !got);
  let crc_drops =
    Metrics.counter_value (Metrics.for_sim sim) ~node:1 "nic.rx_crc_drop"
  in
  check_bool "NIC counted CRC drops" true (crc_drops > 0)

(* --- Substrate failure surface ------------------------------------------ *)

let test_connect_refused_releases_connection () =
  (* UQ on: the server's refusal scanner answers requests for dead ports,
     so the client learns immediately and tears its half-connection down. *)
  let opts = { ds with Opt.connect_timeout = Time.ms 5 } in
  let c = Cluster.create ~n:2 () in
  let api = Cluster.substrate_api ~opts c in
  let sim = Cluster.sim c in
  let refused = ref false in
  Sim.spawn sim (fun () ->
      try ignore (api.connect ~node:0 { node = 1; port = 99 })
      with Connection_refused _ -> refused := true);
  ignore (Cluster.run c);
  check_bool "refused" true !refused;
  check_int "no leaked connection" 0
    (Sub.active_connections (Cluster.substrate c 0));
  check_bool "server sent the refusal" true
    (Metrics.counter_value (Metrics.for_sim sim) ~node:1 "sub.refusals_sent"
    > 0)

let test_connect_timeout_after_retries () =
  (* UQ off: nothing on the server can answer, so the client resends
     with backoff and finally raises the retryable timeout. *)
  let opts =
    {
      Opt.data_streaming with
      Opt.connect_timeout = Time.ms 2;
      connect_attempts = 3;
    }
  in
  let c = Cluster.create ~n:2 () in
  let api = Cluster.substrate_api ~opts c in
  let sim = Cluster.sim c in
  let timed_out = ref false in
  Sim.spawn sim (fun () ->
      try ignore (api.connect ~node:0 { node = 1; port = 99 })
      with Connection_timeout _ -> timed_out := true);
  ignore (Cluster.run c);
  check_bool "timed out" true !timed_out;
  check_int "no leaked connection" 0
    (Sub.active_connections (Cluster.substrate c 0));
  check_int "request was retried" 2
    (Metrics.counter_value (Metrics.for_sim sim) ~node:0 "sub.connect_retries")

let test_link_down_resets_connection () =
  (* The wire goes dark mid-stream: EMP exhausts its retries, the
     substrate maps the failure to the connection, and the blocked
     writer unwinds with Connection_reset instead of hanging. *)
  let config = { E.default_config with E.max_retries = 3; rto = Time.us 200 } in
  let c = Cluster.create ~n:2 () in
  let e0 = Cluster.emp ~config c 0 in
  ignore (Cluster.emp ~config c 1);
  let opts = { ds with Opt.credits = 2; buffer_size = 4_096 } in
  let api = Cluster.substrate_api ~opts c in
  let sim = Cluster.sim c in
  let fault = Fault.create ~seed sim in
  Fault.set_plan fault { Fault.clean with down = [ (Time.ms 1, Time.s 50) ] };
  Uls_ether.Network.set_fault (Cluster.network c) fault;
  let reset = ref false in
  let descriptors_after = ref (-1) in
  Sim.spawn sim (fun () ->
      let l = api.listen ~node:1 ~port:80 ~backlog:1 in
      let s, _ = l.accept () in
      (* Consume continuously so the writer streams — and therefore has
         frames in flight — at the moment the link dies. *)
      try
        while true do
          ignore (s.recv 4_096)
        done
      with
      (* The server may learn of the dead peer through its own failing
         credit-ack sends, so its side can reset as well. *)
      | Connection_closed | Connection_reset -> ());
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 10);
      let s = api.connect ~node:0 { node = 1; port = 80 } in
      let chunk = String.make 2_000 'z' in
      (try
         for _ = 1 to 1_000 do
           s.send chunk
         done
       with Connection_reset ->
         reset := true;
         descriptors_after := E.posted_descriptors e0);
      s.close ());
  let outcome = Cluster.run ~until:(Time.s 60) c in
  check_bool "writer unwound with reset" true !reset;
  check_bool "sim quiesced (no hung fiber)" true (outcome = `Quiescent);
  check_int "reset counted" 1
    (Metrics.counter_value (Metrics.for_sim sim) ~node:0 "sub.resets");
  check_int "descriptors reclaimed" 0 !descriptors_after;
  check_int "no leaked connection" 0
    (Sub.active_connections (Cluster.substrate c 0))

(* --- End-to-end chaos soaks --------------------------------------------- *)

let test_stream_integrity kind () =
  List.iter
    (fun loss ->
      let r = Mb.stream ~kind ~seed ~loss ~total:262_144 ~msg:8_192 () in
      let label =
        Printf.sprintf "%s at %.1f%% loss" (Cluster.stack_name kind)
          (loss *. 100.)
      in
      check_bool (label ^ ": finished in bounded time") true r.Mb.completed;
      check_bool (label ^ ": bytes intact") true r.Mb.intact;
      if loss > 0. then begin
        check_bool (label ^ ": faults were injected") true
          (r.Mb.faults_injected > 0);
        check_bool (label ^ ": recovery work happened") true
          (r.Mb.retransmits > 0)
      end
      else
        check_int (label ^ ": clean run needs no retransmits") 0
          r.Mb.retransmits)
    Mb.loss_rates

let test_chaos_deterministic () =
  let kind = `Sub ds in
  let run () = Mb.stream ~kind ~seed ~loss:0.02 ~total:131_072 ~msg:4_096 () in
  let a = run () and b = run () in
  check_int "same faults" a.Mb.faults_injected b.Mb.faults_injected;
  check_int "same retransmits" a.Mb.retransmits b.Mb.retransmits;
  check_int "same nacks" a.Mb.nacks b.Mb.nacks;
  check_bool "same virtual elapsed" true (a.Mb.elapsed_ms = b.Mb.elapsed_ms)

let test_pingpong_under_chaos () =
  (* Mixed faults — loss, duplication, delay/reordering — under a strict
     request/reply pattern: every reply must match its request. *)
  let c = Cluster.create ~n:2 () in
  let api = Cluster.substrate_api ~opts:ds c in
  let sim = Cluster.sim c in
  let fault = Fault.create ~seed sim in
  Fault.set_plan fault
    {
      Fault.clean with
      drop_p = 0.02;
      dup_p = 0.005;
      delay_p = 0.01;
      delay_max = Time.us 50;
    };
  Uls_ether.Network.set_fault (Cluster.network c) fault;
  let rounds = 50 in
  let ok = ref 0 in
  Sim.spawn sim (fun () ->
      let l = api.listen ~node:1 ~port:80 ~backlog:1 in
      let s, _ = l.accept () in
      (try
         while true do
           s.send (recv_exact s 64)
         done
       with Connection_closed -> ());
      s.close ());
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 20);
      let s = api.connect ~node:0 { node = 1; port = 80 } in
      for i = 1 to rounds do
        let msg = Printf.sprintf "%064d" i in
        s.send msg;
        if String.equal (recv_exact s 64) msg then incr ok
      done;
      s.close ());
  let outcome = Cluster.run ~until:(Time.s 60) c in
  check_bool "liveness" true (outcome = `Quiescent);
  check_int "every round echoed exactly" rounds !ok;
  check_bool "chaos actually ran" true (Fault.faults_injected fault > 0)

let test_datagram_rendezvous_under_loss () =
  (* Datagram mode straddling eager_max: small messages go eager, large
     ones rendezvous, all under loss, all boundary-exact. *)
  let sizes = [ 512; 24_000; 1_024; 40_000; 100 ] in
  let c = Cluster.create ~n:2 () in
  let api = Cluster.substrate_api ~opts:Opt.datagram c in
  let sim = Cluster.sim c in
  let fault = Fault.create ~seed sim in
  Fault.set_plan fault (Fault.uniform_loss 0.02);
  Uls_ether.Network.set_fault (Cluster.network c) fault;
  let payload k n = String.init n (fun i -> Char.chr ((i + (7 * k)) mod 256)) in
  let bad = ref 0 in
  Sim.spawn sim (fun () ->
      let l = api.listen ~node:1 ~port:80 ~backlog:1 in
      let s, _ = l.accept () in
      List.iteri
        (fun k n -> if not (String.equal (s.recv n) (payload k n)) then incr bad)
        sizes;
      s.close ());
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 10);
      let s = api.connect ~node:0 { node = 1; port = 80 } in
      List.iteri (fun k n -> s.send (payload k n)) sizes;
      s.close ());
  let outcome = Cluster.run ~until:(Time.s 60) c in
  check_bool "liveness" true (outcome = `Quiescent);
  check_int "every datagram boundary-exact" 0 !bad

let pack_float v =
  let b = Bytes.create 8 in
  Bytes.set_int64_le b 0 (Int64.bits_of_float v);
  Bytes.to_string b

let unpack_float s = Int64.float_of_bits (Bytes.get_int64_le (Bytes.of_string s) 0)

let test_collectives_under_loss () =
  (* Barrier and allreduce on the reliable binomial tree, under loss:
     EMP retransmission must keep every round exact. *)
  let n = 4 in
  let c = Cluster.create ~n () in
  let sim = Cluster.sim c in
  let fault = Fault.create ~seed sim in
  Fault.set_plan fault (Fault.uniform_loss 0.02);
  Uls_ether.Network.set_fault (Cluster.network c) fault;
  let eps = Array.init n (fun i -> Cluster.emp c i) in
  let sums = Array.make n [] in
  for r = 0 to n - 1 do
    Sim.spawn sim (fun () ->
        let g = Uls_collective.Emp_group.create ~nic:false eps ~rank:r in
        for round = 1 to 3 do
          Group.barrier ~alg:Group.Binomial_tree g;
          let v = pack_float (float_of_int ((r + 1) * round)) in
          let s =
            Group.allreduce ~alg:Group.Binomial_tree g ~op:Group.float_sum
              ~max:8 v
          in
          sums.(r) <- unpack_float s :: sums.(r)
        done)
  done;
  let outcome = Cluster.run ~until:(Time.s 60) c in
  check_bool "liveness" true (outcome = `Quiescent);
  (* Sum over ranks of (r+1)*round = 10 * round. *)
  Array.iteri
    (fun r got ->
      Alcotest.(check (list (float 1e-9)))
        (Printf.sprintf "rank %d allreduce results" r)
        [ 30.0; 20.0; 10.0 ] got)
    sums;
  check_bool "loss was injected" true (Fault.faults_injected fault > 0)

let suites =
  [
    ( "fault",
      [
        Alcotest.test_case "deterministic" `Quick test_fault_deterministic;
        Alcotest.test_case "inactive is free" `Quick test_fault_inactive_is_free;
        Alcotest.test_case "links independent" `Quick
          test_fault_links_independent;
        Alcotest.test_case "link down window" `Quick test_fault_link_down_window;
        Alcotest.test_case "node pause" `Quick test_fault_node_pause;
        Alcotest.test_case "switch drop causes" `Quick test_switch_drop_causes;
      ] );
    ( "emp-recovery",
      [
        Alcotest.test_case "single drop, one nack" `Quick
          test_single_drop_one_nack;
        Alcotest.test_case "ack loss, rto rewind" `Quick
          test_ack_loss_rto_rewind;
        Alcotest.test_case "duplicates not double-counted" `Quick
          test_duplicates_never_double_count;
        Alcotest.test_case "corruption crc-dropped, recovered" `Quick
          test_corruption_crc_dropped_and_recovered;
      ] );
    ( "substrate-failures",
      [
        Alcotest.test_case "refused releases connection" `Quick
          test_connect_refused_releases_connection;
        Alcotest.test_case "timeout after retries" `Quick
          test_connect_timeout_after_retries;
        Alcotest.test_case "link down resets connection" `Quick
          test_link_down_resets_connection;
      ] );
    ( "chaos",
      [
        Alcotest.test_case "substrate stream loss sweep" `Slow
          (test_stream_integrity (`Sub ds));
        Alcotest.test_case "tcp stream loss sweep" `Slow
          (test_stream_integrity (`Tcp Uls_tcp.Config.default));
        Alcotest.test_case "deterministic sweep" `Quick
          test_chaos_deterministic;
        Alcotest.test_case "pingpong under chaos" `Quick
          test_pingpong_under_chaos;
        Alcotest.test_case "datagram rendezvous under loss" `Quick
          test_datagram_rendezvous_under_loss;
        Alcotest.test_case "collectives under loss" `Quick
          test_collectives_under_loss;
      ] );
  ]
