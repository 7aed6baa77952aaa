(* Lifecycle and bookkeeping paths: listener close on both stacks, RST
   accounting, IP reassembly eviction, engine counters. *)
open Uls_engine
open Uls_api.Sockets_api

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let test_engine_counters () =
  let sim = Sim.create () in
  check_int "no fibers yet" 0 (Sim.live_fibers sim);
  Sim.spawn_at sim ~name:"late" 500 (fun () -> Sim.delay sim 10);
  Sim.spawn sim (fun () -> ());
  check_int "two spawned" 2 (Sim.live_fibers sim);
  ignore (Sim.run sim);
  check_int "all finished" 0 (Sim.live_fibers sim);
  check_int "clock at last event" 510 (Sim.now sim);
  check_bool "events counted" true (Sim.events_executed sim >= 3)

let test_tcp_listener_close_refuses () =
  let c = Uls_bench.Cluster.create ~n:2 () in
  let api = Uls_bench.Cluster.tcp_api c in
  let sim = Uls_bench.Cluster.sim c in
  let refused = ref false in
  Sim.spawn sim (fun () ->
      let l = api.listen ~node:1 ~port:80 ~backlog:2 in
      Sim.delay sim (Time.us 100);
      l.close_listener ();
      (* Port is free again: rebinding must succeed. *)
      let l2 = api.listen ~node:1 ~port:80 ~backlog:2 in
      Sim.delay sim (Time.ms 50);
      l2.close_listener ());
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.ms 30);
      (* The second listener exists but nobody accepts; connection still
         completes the handshake and queues. Now target a dead port. *)
      try ignore (api.connect ~node:0 { node = 1; port = 99 })
      with Connection_refused _ -> refused := true);
  ignore (Uls_bench.Cluster.run c);
  check_bool "dead port refused" true !refused;
  check_bool "RSTs were sent" true
    (Uls_tcp.Kernel.rsts_sent (Uls_tcp.Tcp_stack.kernel (Uls_bench.Cluster.tcp c) 1)
    > 0)

let test_substrate_listener_close_reclaims () =
  let c = Uls_bench.Cluster.create ~n:2 () in
  let api = Uls_bench.Cluster.substrate_api c in
  let sim = Uls_bench.Cluster.sim c in
  let emp1 = Uls_bench.Cluster.emp c 1 in
  let before = ref 0 and after = ref 0 in
  Sim.spawn sim (fun () ->
      before := Uls_emp.Endpoint.posted_descriptors emp1;
      let l = api.listen ~node:1 ~port:80 ~backlog:5 in
      check_int "backlog descriptors posted" (!before + 5)
        (Uls_emp.Endpoint.posted_descriptors emp1);
      l.close_listener ();
      after := Uls_emp.Endpoint.posted_descriptors emp1);
  ignore (Uls_bench.Cluster.run c);
  check_int "backlog descriptors reclaimed" !before !after

let test_ip_reassembly_eviction () =
  (* Lose the head fragment of many datagrams: the partial entries must
     be evicted (counted as drops) instead of accumulating forever. *)
  let c = Uls_bench.Cluster.create ~n:2 () in
  let stack = Uls_bench.Cluster.tcp c in
  let sim = Uls_bench.Cluster.sim c in
  let k0 = Uls_tcp.Tcp_stack.kernel stack 0
  and k1 = Uls_tcp.Tcp_stack.kernel stack 1 in
  (* Drop every first fragment (Ip_first) of large datagrams. *)
  Uls_ether.Network.set_fault_filter (Uls_bench.Cluster.network c)
    (fun frame ->
      match frame.Uls_ether.Frame.payload with
      | Uls_tcp.Segment.Ip_first { total_bytes; _ } -> total_bytes > 2_000
      | _ -> false);
  Sim.spawn sim (fun () ->
      let sock = Uls_tcp.Kernel.udp_bind k0 ~port:1000 in
      for _ = 1 to 80 do
        Uls_tcp.Kernel.udp_sendto k0 sock ~dst:{ node = 1; port = 53 }
          (String.make 4_000 'e');
        Sim.delay sim (Time.ms 3)
      done;
      Uls_tcp.Kernel.udp_close k0 sock);
  Sim.spawn sim (fun () ->
      let sock = Uls_tcp.Kernel.udp_bind k1 ~port:53 in
      Sim.delay sim (Time.ms 400);
      Uls_tcp.Kernel.udp_close k1 sock);
  ignore (Uls_bench.Cluster.run c);
  let ip1 = Uls_tcp.Kernel.ip k1 in
  check_int "nothing delivered" 0 (Uls_tcp.Ip.datagrams_delivered ip1);
  check_bool "stale partials evicted" true (Uls_tcp.Ip.datagrams_dropped ip1 > 0)

let test_switch_counters_after_traffic () =
  let c = Uls_bench.Cluster.create ~n:2 () in
  let api = Uls_bench.Cluster.substrate_api c in
  let sim = Uls_bench.Cluster.sim c in
  Sim.spawn sim (fun () ->
      let l = api.listen ~node:1 ~port:80 ~backlog:1 in
      let s, _ = l.accept () in
      ignore (recv_exact s 10_000);
      s.close ());
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 10);
      let s = api.connect ~node:0 { node = 1; port = 80 } in
      s.send (String.make 10_000 'w');
      s.close ());
  ignore (Uls_bench.Cluster.run c);
  let sw = Uls_ether.Network.switch (Uls_bench.Cluster.network c) in
  check_bool "frames forwarded" true (Uls_ether.Switch.frames_forwarded sw > 10);
  check_int "no drops on a clean run" 0 (Uls_ether.Switch.frames_dropped sw)

(* --- nothing a connection owns outlives it (paper 5.3) ------------------ *)

let control_fibers = [ "sub-req"; "sub-grant"; "sub-close" ]

let names_in report =
  List.map (fun (p : Sim.parked) -> p.Sim.fiber) report

let test_idle_conn_parks_no_control_fibers () =
  (* The rendezvous-request, grant and close descriptors complete into
     handler fibers: an idle open connection has none parked on them. *)
  let c = Uls_bench.Cluster.create ~n:2 () in
  let api = Uls_bench.Cluster.substrate_api c in
  let sim = Uls_bench.Cluster.sim c in
  let parked = ref [] in
  Sim.spawn sim (fun () ->
      let l = api.listen ~node:1 ~port:80 ~backlog:1 in
      let s, _ = l.accept () in
      ignore (s.recv 16);
      s.close ());
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 10);
      let s = api.connect ~node:0 { node = 1; port = 80 } in
      Sim.delay sim (Time.ms 1);
      parked := names_in (Sim.blocked_report sim);
      s.close ());
  ignore (Uls_bench.Cluster.run c);
  check_bool "both ends' rx fibers parked" true
    (List.length (List.filter (( = ) "sub-rx") !parked) >= 2);
  List.iter
    (fun name ->
      check_bool (name ^ " not parked") false (List.mem name !parked))
    control_fibers

let test_cycles_restore_live_fibers () =
  (* N connect/echo/close cycles leave the fiber count where it was
     before the first connect, and no per-connection fiber parked (the
     node's listener and refusal scanner stay). *)
  let c = Uls_bench.Cluster.create ~n:2 () in
  let api = Uls_bench.Cluster.substrate_api c in
  let sim = Uls_bench.Cluster.sim c in
  let before = ref (-1) and after = ref (-1) and parked = ref [] in
  Sim.spawn sim ~daemon:true (fun () ->
      let l = api.listen ~node:1 ~port:80 ~backlog:4 in
      let rec serve () =
        let s, _ = l.accept () in
        s.send (recv_exact s 4);
        while s.recv 16 <> "" do
          ()
        done;
        s.close ();
        serve ()
      in
      serve ());
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 10);
      before := Sim.live_fibers sim;
      for _ = 1 to 8 do
        let s = api.connect ~node:0 { node = 1; port = 80 } in
        s.send "ping";
        check_string "echo" "ping" (recv_exact s 4);
        s.close ();
        Sim.delay sim (Time.us 200)
      done;
      Sim.delay sim (Time.ms 1);
      after := Sim.live_fibers sim;
      parked := names_in (Sim.blocked_report sim));
  ignore (Uls_bench.Cluster.run c);
  check_int "live fibers back at the pre-connect count" !before !after;
  List.iter
    (fun name ->
      check_bool (name ^ " not parked") false (List.mem name !parked))
    ([ "sub-rx"; "sub-ack"; "sub-uq-ack"; "sub-close-notify" ] @ control_fibers)

let test_echo_close_quiesces_promptly () =
  (* One echo through the event-driven server, then close, run to
     quiescence: the run ends with the last live event. Before timers
     were cancellable, the server's 2 s embryo timer and the EMP 2 ms
     retransmission timers of acknowledged sends kept the queue busy
     that long after the close. *)
  let c = Uls_bench.Cluster.create ~n:2 () in
  let sim = Uls_bench.Cluster.sim c in
  let api =
    Uls_bench.Cluster.substrate_api ~opts:Uls_substrate.Options.server c
  in
  let closed_at = ref (-1) in
  Sim.spawn sim (fun () ->
      let l = api.listen ~node:0 ~port:80 ~backlog:8 in
      ignore
        (Uls_server.Sched.start sim ~node:0 ~listener:l
           ~handler:(fun _ data ->
             { Uls_server.Sched.replies = [ data ]; close = false })
           ()));
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 10);
      let s = api.connect ~node:1 { node = 0; port = 80 } in
      s.send "x";
      check_string "echoed" "x" (recv_exact s 1);
      s.close ();
      closed_at := Sim.now sim);
  (match Uls_bench.Cluster.run c with
  | `Quiescent -> ()
  | _ -> Alcotest.fail "expected a quiescent run");
  check_bool "client closed" true (!closed_at > 0);
  check_bool "quiescent within 1 ms of the close" true
    (Sim.now sim - !closed_at < Time.ms 1)

let suites =
  [
    ( "lifecycle",
      [
        Alcotest.test_case "engine counters" `Quick test_engine_counters;
        Alcotest.test_case "tcp listener close + RST" `Quick
          test_tcp_listener_close_refuses;
        Alcotest.test_case "substrate listener reclaim" `Quick
          test_substrate_listener_close_reclaims;
        Alcotest.test_case "ip reassembly eviction" `Quick
          test_ip_reassembly_eviction;
        Alcotest.test_case "switch counters" `Quick
          test_switch_counters_after_traffic;
        Alcotest.test_case "idle conn parks no control fibers" `Quick
          test_idle_conn_parks_no_control_fibers;
        Alcotest.test_case "connect/close cycles restore fibers" `Quick
          test_cycles_restore_live_fibers;
        Alcotest.test_case "echo then close quiesces promptly" `Quick
          test_echo_close_quiesces_promptly;
      ] );
  ]
