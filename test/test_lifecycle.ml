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
    (Metrics.counter_value (Metrics.for_sim sim) ~node:1 "tcp.rsts_sent" > 0)

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
      done);
  Sim.spawn sim (fun () -> ignore (Uls_tcp.Kernel.udp_bind k1 ~port:53));
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

let control_fibers =
  [ "sub-rx"; "sub-listen"; "sub-ack"; "sub-uq-ack"; "sub-req"; "sub-grant";
    "sub-close"; "sub-refuse" ]

let names_in report =
  List.map (fun (p : Sim.parked) -> p.Sim.fiber) report

(* Each lifecycle check runs under the default preset (credit acks
   through the unexpected queue) and under plain data streaming, whose
   N credit-ack descriptors per connection are pre-posted. *)
let presets =
  [
    ("", Uls_substrate.Options.data_streaming_enhanced);
    (" (pre-posted acks)", Uls_substrate.Options.data_streaming);
  ]

let test_idle_conn_parks_no_control_fibers opts () =
  (* Every descriptor a connection or a listener posts, and the
     unexpected queue's credit acks and orphan connection requests,
     completes into a serial handler: an idle open connection and its
     listener have no fiber parked on them. *)
  let c = Uls_bench.Cluster.create ~n:2 () in
  let api = Uls_bench.Cluster.substrate_api ~opts c in
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
  List.iter
    (fun name ->
      check_bool (name ^ " not parked") false (List.mem name !parked))
    control_fibers

let test_cycles_restore_live_fibers opts () =
  (* N connect/echo/close cycles leave the fiber count where it was
     before the first connect, and no per-connection or listener fiber
     parked. *)
  let c = Uls_bench.Cluster.create ~n:2 () in
  let api = Uls_bench.Cluster.substrate_api ~opts c in
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
    ("sub-close-notify" :: control_fibers)

let test_idle_conns_own_no_fiber () =
  (* 64 open connections, each idle after one echo, and their listener:
     once the run is quiescent no substrate fiber is left at all. *)
  let c = Uls_bench.Cluster.create ~n:2 () in
  let api = Uls_bench.Cluster.substrate_api c in
  let sim = Uls_bench.Cluster.sim c in
  let conns = 64 in
  let held = ref [] in
  Sim.spawn sim (fun () ->
      let l = api.listen ~node:1 ~port:80 ~backlog:8 in
      for _ = 1 to conns do
        let s, _ = l.accept () in
        s.send (recv_exact s 4);
        held := s :: !held
      done);
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 10);
      for _ = 1 to conns do
        let s = api.connect ~node:0 { node = 1; port = 80 } in
        s.send "ping";
        check_string "echo" "ping" (recv_exact s 4);
        held := s :: !held
      done);
  (match Uls_bench.Cluster.run c with
  | `Quiescent -> ()
  | _ -> Alcotest.fail "expected a quiescent run");
  check_int "every connection open at both ends" (2 * conns) (List.length !held);
  let substrate =
    List.filter (String.starts_with ~prefix:"sub-")
      (names_in (Sim.blocked_report sim))
  in
  Alcotest.(check (list string)) "no sub-* fiber parked" [] substrate

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

let test_close_with_full_buffers_ends_rx () =
  (* The server closes while every credit buffer holds unread data: no
     receive descriptor is left posted for teardown to cancel, and no rx
     fiber may be left waiting for one. *)
  let c = Uls_bench.Cluster.create ~n:2 () in
  let api = Uls_bench.Cluster.substrate_api c in
  let sim = Uls_bench.Cluster.sim c in
  Sim.spawn sim (fun () ->
      let l = api.listen ~node:1 ~port:80 ~backlog:1 in
      let s, _ = l.accept () in
      Sim.delay sim (Time.ms 1);
      s.close ();
      l.close_listener ());
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 10);
      let s = api.connect ~node:0 { node = 1; port = 80 } in
      (try
         for _ = 1 to 64 do
           s.send "x"
         done
       with Connection_closed -> ());
      s.close ());
  (match Uls_bench.Cluster.run c with
  | `Quiescent -> ()
  | _ -> Alcotest.fail "expected a quiescent run");
  check_bool "no rx fiber parked" false
    (List.mem "sub-rx" (names_in (Sim.blocked_report sim)))

(* A 100 000 B datagram write goes by rendezvous (§5.2): request, grant,
   then the data straight into the reader's posted buffer. Either side
   closing in between, or a reset, must end the server's read. Each
   case runs under the paper DG preset and on the ring firmware, where
   the read's descriptor is a ring-path one. *)
let rdvz_size = 100_000

let rdvz_presets =
  let dg = Uls_substrate.Options.datagram in
  [ ("", dg); (" (ring)", { dg with Uls_substrate.Options.rx_ring = true }) ]

let rdvz_run opts ~client ~server =
  let c = Uls_bench.Cluster.create ~n:2 () in
  let api = Uls_bench.Cluster.substrate_api ~opts c in
  let sim = Uls_bench.Cluster.sim c in
  let emp1 = Uls_bench.Cluster.emp c 1 in
  let before = Uls_emp.Endpoint.posted_descriptors emp1 in
  let got = ref "(still reading)" in
  let read s =
    got :=
      try Printf.sprintf "%S" (s.recv rdvz_size) with
      | Connection_closed -> "Connection_closed"
      | Connection_reset -> "Connection_reset"
  in
  Sim.spawn sim (fun () ->
      let l = api.listen ~node:1 ~port:80 ~backlog:1 in
      let s, _ = l.accept () in
      server c s read;
      l.close_listener ());
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 10);
      client c (api.connect ~node:0 { node = 1; port = 80 }));
  (match Uls_bench.Cluster.run c with
  | `Quiescent -> ()
  | _ -> Alcotest.fail "expected a quiescent run");
  (!got, Uls_emp.Endpoint.posted_descriptors emp1 - before)

let write_big s =
  try s.send (String.make rdvz_size 'r')
  with Connection_closed | Connection_reset -> ()

let test_rdvz_writer_close_ends_read opts () =
  (* A second client fiber closes the stream 1 us into the write, so
     the writer abandons the message before posting its data. The
     close names that message's sequence number, and the server's
     read, whether already granted or not, ends in EOF. *)
  let got, posted =
    rdvz_run opts
      ~client:(fun c s ->
        let sim = Uls_bench.Cluster.sim c in
        Sim.spawn sim (fun () -> write_big s);
        Sim.delay sim (Time.us 1);
        s.close ())
      ~server:(fun _ s read ->
        read s;
        s.close ())
  in
  check_string "the read ends in EOF" "\"\"" got;
  check_int "no descriptor left posted on the server" 0 posted

let test_rdvz_local_close_ends_read opts () =
  (* The server closes its own stream 120 us in, after the grant went
     out: teardown cancels the read's descriptor with the others, and
     the reader sees the close. *)
  let got, posted =
    rdvz_run opts
      ~client:(fun _ s ->
        write_big s;
        s.close ())
      ~server:(fun c s read ->
        let sim = Uls_bench.Cluster.sim c in
        Sim.spawn sim (fun () -> read s);
        Sim.delay sim (Time.us 120);
        s.close ())
  in
  check_string "the read raises" "Connection_closed" got;
  check_int "no descriptor left posted on the server" 0 posted

let test_rdvz_reset_ends_read opts () =
  (* The transport gives up on the server's connection 120 us in, after
     the grant went out: the reset cancels the read's descriptor with
     the others, and the reader sees the reset. *)
  let got, posted =
    rdvz_run opts
      ~client:(fun _ s ->
        write_big s;
        s.close ())
      ~server:(fun c s read ->
        let sim = Uls_bench.Cluster.sim c in
        Sim.spawn sim (fun () -> read s);
        Sim.delay sim (Time.us 120);
        List.iter Uls_substrate.Conn.mark_reset
          (Uls_substrate.Substrate.conns (Uls_bench.Cluster.substrate c 1));
        s.close ())
  in
  check_string "the read raises" "Connection_reset" got;
  check_int "no descriptor left posted on the server" 0 posted

let test_close_during_read_reposts_nothing () =
  (* A reader that has taken a message pays its copy, then reposts the
     message's slot. A close from another fiber in that window must not
     leave the slot posted on the dead connection: the close scan below
     crosses the copy of one 8000 B message. *)
  let leaked_at delay =
    let c = Uls_bench.Cluster.create ~n:2 () in
    let api = Uls_bench.Cluster.substrate_api c in
    let sim = Uls_bench.Cluster.sim c in
    let emp1 = Uls_bench.Cluster.emp c 1 in
    let before = Uls_emp.Endpoint.posted_descriptors emp1 in
    Sim.spawn sim (fun () ->
        let l = api.listen ~node:1 ~port:80 ~backlog:1 in
        let s, _ = l.accept () in
        l.close_listener ();
        Sim.spawn sim (fun () ->
            try ignore (s.recv 100_000) with Connection_closed -> ());
        Sim.delay sim delay;
        s.close ());
    Sim.spawn sim (fun () ->
        Sim.delay sim (Time.us 10);
        let s = api.connect ~node:0 { node = 1; port = 80 } in
        (try s.send (String.make 8000 'x') with Connection_closed -> ());
        Sim.delay sim (Time.ms 1);
        s.close ());
    ignore (Uls_bench.Cluster.run c);
    Uls_emp.Endpoint.posted_descriptors emp1 - before
  in
  let leaks =
    List.filter (fun us -> leaked_at (Time.us us) <> 0) (List.init 401 Fun.id)
  in
  Alcotest.(check (list int)) "close times that leave a descriptor" [] leaks

let test_close_during_comm_thread_sync () =
  (* The communication thread pays its sync cost before reposting a
     spare descriptor; a close landing in that window must not leave
     the spare posted on the dead connection. *)
  let c = Uls_bench.Cluster.create ~n:2 () in
  let opts =
    { Uls_substrate.Options.data_streaming_enhanced with
      scheme = Uls_substrate.Options.Comm_thread }
  in
  let api = Uls_bench.Cluster.substrate_api ~opts c in
  let sim = Uls_bench.Cluster.sim c in
  let emp1 = Uls_bench.Cluster.emp c 1 in
  let before = Uls_emp.Endpoint.posted_descriptors emp1 in
  Sim.spawn sim (fun () ->
      let l = api.listen ~node:1 ~port:80 ~backlog:1 in
      let s, _ = l.accept () in
      ignore (s.recv 1);
      s.close ();
      l.close_listener ());
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 10);
      let s = api.connect ~node:0 { node = 1; port = 80 } in
      (try
         s.send "a";
         s.send "b"
       with Connection_closed -> ());
      Sim.delay sim (Time.ms 1);
      s.close ());
  ignore (Uls_bench.Cluster.run c);
  check_int "no descriptor left posted" before
    (Uls_emp.Endpoint.posted_descriptors emp1)

let test_comm_thread_close_reclaims_spares () =
  (* Under the comm-thread scheme every arrival posts a spare slot. Once
     posted, a spare must still be found by close: the one the receive
     fiber waits on used to stay posted, with the fiber parked on it. *)
  let c = Uls_bench.Cluster.create ~n:2 () in
  let opts =
    { Uls_substrate.Options.data_streaming_enhanced with
      scheme = Uls_substrate.Options.Comm_thread;
      credits = 4 }
  in
  let api = Uls_bench.Cluster.substrate_api ~opts c in
  let sim = Uls_bench.Cluster.sim c in
  let emp1 = Uls_bench.Cluster.emp c 1 in
  let before = Uls_emp.Endpoint.posted_descriptors emp1 in
  Sim.spawn sim (fun () ->
      let l = api.listen ~node:1 ~port:80 ~backlog:1 in
      let s, _ = l.accept () in
      ignore (recv_exact s 10);
      Sim.delay sim (Time.ms 1);
      s.close ();
      l.close_listener ());
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 10);
      let s = api.connect ~node:0 { node = 1; port = 80 } in
      for _ = 1 to 10 do
        s.send "a";
        Sim.delay sim (Time.us 50)
      done;
      Sim.delay sim (Time.ms 3);
      s.close ());
  ignore (Uls_bench.Cluster.run c);
  check_int "no descriptor left posted" before
    (Uls_emp.Endpoint.posted_descriptors emp1);
  check_bool "no sub-rx parked" false
    (List.mem "sub-rx" (names_in (Sim.blocked_report sim)))

let test_close_cost_independent_of_idle_conns () =
  (* Closing one connection dispatches the same events however many
     idle connections stay open on the node: under the default preset
     their credit acks come through the unexpected queue, and nothing
     node-wide wakes a per-connection fiber for them. *)
  let events_for_close idle =
    let c = Uls_bench.Cluster.create ~n:2 () in
    let api = Uls_bench.Cluster.substrate_api c in
    let sim = Uls_bench.Cluster.sim c in
    let spent = ref (-1) in
    Sim.spawn sim ~daemon:true (fun () ->
        let l = api.listen ~node:1 ~port:80 ~backlog:8 in
        let rec hold () =
          ignore (l.accept ());
          hold ()
        in
        hold ());
    Sim.spawn sim (fun () ->
        Sim.delay sim (Time.us 10);
        let conns =
          List.init (idle + 1) (fun _ ->
              api.connect ~node:0 { node = 1; port = 80 })
        in
        Sim.delay sim (Time.ms 1);
        let before = Sim.events_executed sim in
        (List.hd conns).close ();
        Sim.delay sim (Time.ms 1);
        spent := Sim.events_executed sim - before);
    ignore (Uls_bench.Cluster.run c);
    !spent
  in
  let small = events_for_close 2 in
  check_bool "the close dispatched events" true (small > 0);
  check_int "events of one close, 2 vs 32 idle conns" small
    (events_for_close 32)

let test_uq_request_refused_on_listener_close () =
  (* Two requests reach a one-descriptor backlog close together: the
     second waits in the unexpected queue until the listener reposts.
     Closing the listener in that window leaves it without a listener,
     and it is refused at once, not after its client's next retry. The
     other request was already taken by the backlog descriptor; it is
     refused at the close too, so neither client waits out a connect
     timeout. The clients sit on nodes the server's NIC steers to
     different receive queues; a scan over the second one's start finds
     the window. *)
  let request = Uls_substrate.Tags.make Uls_substrate.Tags.Conn_request 80 in
  let clients =
    let c =
      Uls_bench.Cluster.create ~match_engine:Uls_nic.Match_list.Hashed ~n:5 ()
    in
    let queue node =
      Uls_nic.Tigon.steer (Uls_bench.Cluster.nic c 1) ~flow:node
    in
    let on q = List.find (fun node -> queue node = q) [ 0; 2; 3; 4 ] in
    let clients = [ on 0; on 1 ] in
    check_bool "clients on different receive queues" true
      (queue (List.nth clients 0) <> queue (List.nth clients 1));
    clients
  in
  let run skew =
    let c =
      Uls_bench.Cluster.create ~match_engine:Uls_nic.Match_list.Hashed ~n:5 ()
    in
    let api = Uls_bench.Cluster.substrate_api c in
    let sim = Uls_bench.Cluster.sim c in
    let emp1 = Uls_bench.Cluster.emp c 1 in
    let closed_at = ref (-1) and refused_at = ref [] in
    Sim.spawn sim (fun () ->
        let l = api.listen ~node:1 ~port:80 ~backlog:1 in
        let rec poll () =
          if Uls_emp.Endpoint.uq_has_match emp1 ~src:(-1) ~tag:request then begin
            closed_at := Sim.now sim;
            l.close_listener ()
          end
          else if Sim.now sim < Time.ms 1 then begin
            Sim.delay sim 100;
            poll ()
          end
        in
        poll ());
    List.iteri
      (fun i node ->
        Sim.spawn sim (fun () ->
            Sim.delay sim (Time.us 10 + (i * skew));
            try ignore (api.connect ~node { node = 1; port = 80 })
            with Connection_refused _ ->
              refused_at := Sim.now sim :: !refused_at))
      clients;
    ignore (Uls_bench.Cluster.run c);
    let m = Metrics.for_sim sim in
    let retries node = Metrics.counter_value m ~node "sub.connect_retries" in
    if !closed_at >= 0 then
      Some
        ( !closed_at,
          !refused_at,
          List.map retries clients,
          Metrics.counter_value m ~node:1 "sub.refusals_sent" )
    else None
  in
  let rec scan skew =
    if skew > Time.us 10 then Alcotest.fail "no request waited in the UQ"
    else match run skew with Some r -> r | None -> scan (skew + 500)
  in
  let closed_at, refused_at, retries, refusals = scan 0 in
  check_int "both clients refused" 2 (List.length refused_at);
  check_int "both refusals counted" 2 refusals;
  check_bool "neither client retried" true (List.for_all (( = ) 0) retries);
  check_bool "both refused within 100 us of the close" true
    (List.for_all (fun at -> at - closed_at < Time.us 100) refused_at)

(* --- batched set-up under the server preset --------------------------- *)

module Sub = Uls_substrate.Substrate
module Conn = Uls_substrate.Conn

let outcome_of f =
  match f () with
  | () -> "connected"
  | exception Connection_closed -> "closed"
  | exception Connection_reset -> "reset"
  | exception Connection_refused _ -> "refused"

(* Node state a finished run must be back to: posted descriptors and
   pinned regions, per node. *)
let node_state c nodes =
  List.map
    (fun i ->
      ( Uls_emp.Endpoint.posted_descriptors (Uls_bench.Cluster.emp c i),
        Uls_host.Os.pinned_regions
          (Uls_host.Node.os (Uls_bench.Cluster.node c i)) ))
    nodes

let test_kill_during_batched_connect () =
  (* Under the server preset a connection joins its node's
     active-socket table, sends its handshake frame, and then posts its
     descriptors (and the client its connect reply slot) through the
     fill ring in one batch: a kill landing inside the batch has the
     batch taken back, and fails a client's connect at once. A close
     or reset landing anywhere in the connect, on either
     side, leaves no descriptor posted, every pin dropped, and the
     connect either connected or failed with a typed error; a client
     killed while its connect waits for the reply fails with its own
     close or reset. *)
  let run ~victim ~kill at =
    let c =
      Uls_bench.Cluster.create ~match_engine:Uls_nic.Match_list.Hashed ~n:2 ()
    in
    let sim = Uls_bench.Cluster.sim c in
    let sub i = Uls_bench.Cluster.substrate ~opts:Uls_substrate.Options.server c i in
    let client = sub 0 and server = sub 1 in
    let before = node_state c [ 0; 1 ] in
    let killed = ref [] and outcome = ref "unfinished" in
    Sim.spawn sim (fun () ->
        let l = Sub.listen server ~port:80 ~backlog:2 in
        Sim.spawn sim (fun () ->
            try
              let conn, _ = Sub.accept server l in
              Sim.delay sim (Time.us 300);
              Conn.close conn
            with Connection_closed -> ());
        Sim.delay sim (Time.ms 2);
        Sub.close_listener server l);
    Sim.spawn sim (fun () ->
        Sim.delay sim (Time.us 10);
        outcome :=
          outcome_of (fun () ->
              let conn = Sub.connect client { node = 1; port = 80 } in
              Sim.delay sim (Time.us 300);
              Conn.close conn));
    Sim.spawn_at sim at (fun () ->
        List.iter
          (fun conn ->
            killed := conn :: !killed;
            kill conn)
          (Sub.conns (if victim = 0 then client else server)));
    let stop = Uls_bench.Cluster.run c in
    let where = Printf.sprintf "kill node %d at %d ns" victim at in
    check_bool (where ^ ": quiescent") true (stop = `Quiescent);
    List.iter
      (fun conn -> check_int (where ^ ": leaked slots") 0 (Conn.leaked_slots conn))
      !killed;
    check_bool (where ^ ": descriptors and pins back") true
      (node_state c [ 0; 1 ] = before);
    !outcome
  in
  let scan ~victim ~kill =
    List.init 100 (fun i -> run ~victim ~kill (Time.us 10 + (i * 500)))
  in
  List.iter
    (fun (name, kill, typed) ->
      let client = scan ~victim:0 ~kill and server = scan ~victim:1 ~kill in
      List.iter
        (fun o ->
          check_bool ("typed outcome: " ^ o) true
            (List.mem o [ "connected"; "refused"; typed ]))
        (client @ server);
      check_bool (name ^ " of a connecting client fails its connect") true
        (List.mem typed client))
    [ ("close", Conn.close, "closed"); ("reset", Conn.mark_reset, "reset") ]

let test_close_before_connect_reply () =
  (* A client whose connection is closed while its connect waits for
     the reply does not know the server's connection yet, so its close
     could not tell the server. It tells it once the reply names it:
     the server's reader sees end of stream, and the connect fails
     with [Connection_closed] instead of returning a closed
     connection. *)
  let c = Uls_bench.Cluster.create ~n:2 () in
  let sim = Uls_bench.Cluster.sim c in
  let sub i = Uls_bench.Cluster.substrate ~opts:Uls_substrate.Options.server c i in
  let client = sub 0 and server = sub 1 in
  let before = node_state c [ 0; 1 ] in
  let served = ref "unfinished" and outcome = ref "unfinished" in
  Sim.spawn sim (fun () ->
      let l = Sub.listen server ~port:80 ~backlog:1 in
      let conn, _ = Sub.accept server l in
      served := Printf.sprintf "read %S" (Conn.read conn 10);
      Conn.close conn;
      Sub.close_listener server l);
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 10);
      outcome :=
        outcome_of (fun () ->
            ignore (Sub.connect client { node = 1; port = 80 })));
  Sim.spawn_at sim (Time.us 30) (fun () ->
      check_int "the client connection is up" 1 (List.length (Sub.conns client));
      List.iter Conn.close (Sub.conns client));
  check_bool "quiescent" true (Uls_bench.Cluster.run c = `Quiescent);
  check_string "connect" "closed" !outcome;
  check_string "the server's reader" "read \"\"" !served;
  check_bool "descriptors and pins back" true (node_state c [ 0; 1 ] = before)

let test_connects_racing_batched_listen () =
  (* A listener is reachable only once [listen] returns, so what can
     race its batched backlog post is a request. Two clients on
     different nodes connect with their requests landing before,
     across and after the post (a request needs ~22 us to arrive):
     each is either taken by a backlog descriptor (connected) or, if
     it landed before the port was bound, refused. Every connection
     closes without a leaked descriptor or pin. *)
  let run at =
    let c =
      Uls_bench.Cluster.create ~match_engine:Uls_nic.Match_list.Hashed ~n:3 ()
    in
    let sim = Uls_bench.Cluster.sim c in
    let sub i = Uls_bench.Cluster.substrate ~opts:Uls_substrate.Options.server c i in
    List.iter (fun i -> ignore (sub i)) [ 0; 1; 2 ];
    let before = node_state c [ 0; 1; 2 ] in
    let conns = ref [] and outcomes = ref [] in
    Sim.spawn sim (fun () ->
        Sim.delay sim (Time.us 40);
        let l = Sub.listen (sub 1) ~port:80 ~backlog:32 in
        Sim.spawn sim (fun () ->
            try
              while true do
                let conn, _ = Sub.accept (sub 1) l in
                conns := conn :: !conns;
                Sim.spawn sim (fun () ->
                    Sim.delay sim (Time.us 100);
                    Conn.close conn)
              done
            with Connection_closed -> ());
        Sim.delay sim (Time.ms 200);
        Sub.close_listener (sub 1) l);
    List.iter
      (fun node ->
        Sim.spawn_at sim at (fun () ->
            outcomes :=
              outcome_of (fun () ->
                  let conn = Sub.connect (sub node) { node = 1; port = 80 } in
                  conns := conn :: !conns;
                  Sim.delay sim (Time.us 50);
                  Conn.close conn)
              :: !outcomes))
      [ 0; 2 ];
    let stop = Uls_bench.Cluster.run c in
    let where = Printf.sprintf "connect at %d ns" at in
    check_bool (where ^ ": quiescent") true (stop = `Quiescent);
    List.iter
      (fun conn -> check_int (where ^ ": leaked slots") 0 (Conn.leaked_slots conn))
      !conns;
    check_bool (where ^ ": descriptors and pins back") true
      (node_state c [ 0; 1; 2 ] = before);
    !outcomes
  in
  let outcomes = List.concat (List.init 120 (fun i -> run (Time.us 5 + (i * 250)))) in
  List.iter
    (fun o ->
      check_bool ("typed outcome: " ^ o) true (List.mem o [ "connected"; "refused" ]))
    outcomes;
  check_bool "some request raced the post and was refused" true
    (List.mem "refused" outcomes);
  check_bool "some request was taken by the backlog" true
    (List.mem "connected" outcomes)

(* --- the server preset's stash of consumed receive slots --------------- *)

let test_read_only_consumer_drains ~watched () =
  (* Under the server preset a read leaves its consumed slot on the
     connection's stash. A reader that never writes returns it when it
     is about to block, or, woken by a readiness watcher and reading
     only what is ready ([watched]), once the stash reaches the ack
     threshold. Either way a writer streaming 64 messages one way never
     waits for a credit longer than a round trip, and no message finds
     its slot unposted. *)
  let c = Uls_bench.Cluster.create ~n:2 () in
  let sim = Uls_bench.Cluster.sim c in
  let sub i = Uls_bench.Cluster.substrate ~opts:Uls_substrate.Options.server c i in
  let writer = sub 0 and reader = sub 1 in
  let count = 64 and size = 200 in
  let msg i = String.make size (Char.chr (Char.code 'a' + (i mod 26))) in
  let got = ref 0 and in_order = ref true and longest_write = ref 0 in
  Sim.spawn sim (fun () ->
      let l = Sub.listen reader ~port:80 ~backlog:1 in
      let conn, _ = Sub.accept reader l in
      let woken = Mailbox.create ~label:"test:readable" sim in
      if watched then Conn.add_watcher conn (fun () -> Mailbox.send woken ());
      while !got < count do
        if watched && not (Conn.readable conn) then Mailbox.recv woken
        else begin
          if Conn.read conn size <> msg !got then in_order := false;
          incr got
        end
      done;
      check_string "end of stream" "" (Conn.read conn 1);
      Conn.close conn;
      Sub.close_listener reader l);
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 10);
      let conn = Sub.connect writer { node = 1; port = 80 } in
      for i = 0 to count - 1 do
        let t0 = Sim.now sim in
        Conn.write conn (msg i);
        longest_write := max !longest_write (Sim.now sim - t0)
      done;
      Conn.close conn);
  check_bool "quiescent" true (Uls_bench.Cluster.run c = `Quiescent);
  check_int "every message read" count !got;
  check_bool "in order" true !in_order;
  let m = Metrics.for_sim sim in
  List.iter
    (fun node ->
      check_int
        (Printf.sprintf "node %d: no frame found its slot unposted" node)
        0
        (Metrics.counter_value m ~node "emp.drops_no_descriptor"))
    [ 0; 1 ];
  (* A credit comes back within about one message round trip (~60 us);
     an unreturned stash would stall the writer for good, a frame sent
     into an unposted slot for a 2 ms retransmission timeout. *)
  check_bool
    (Printf.sprintf "longest write %d ns under 150 us" !longest_write)
    true
    (!longest_write < Time.us 150)

let test_close_or_reset_drops_the_stash () =
  (* A read under the server preset leaves its consumed slot unposted
     until the connection writes, blocks or acks: one fewer descriptor
     posted right after the read. A close or reset then drops the stash
     without posting it: nothing is left posted or pinned, and the slot
     is never reposted. *)
  List.iter
    (fun (name, kill) ->
      let c = Uls_bench.Cluster.create ~n:2 () in
      let sim = Uls_bench.Cluster.sim c in
      let sub i =
        Uls_bench.Cluster.substrate ~opts:Uls_substrate.Options.server c i
      in
      let client = sub 0 and server = sub 1 in
      let before = node_state c [ 0; 1 ] in
      let posted () = Uls_emp.Endpoint.posted_descriptors (Uls_bench.Cluster.emp c 1) in
      let killed = ref None in
      Sim.spawn sim (fun () ->
          let l = Sub.listen server ~port:80 ~backlog:1 in
          let conn, _ = Sub.accept server l in
          killed := Some conn;
          let idle = posted () in
          Conn.read conn 3 |> check_string (name ^ ": read") "one";
          check_int (name ^ ": the consumed slot waits on the stash") (idle - 1)
            (posted ());
          kill conn;
          Sub.close_listener server l);
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let conn = Sub.connect client { node = 1; port = 80 } in
          Conn.write conn "one";
          Sim.delay sim (Time.us 300);
          Conn.close conn);
      check_bool (name ^ ": quiescent") true
        (Uls_bench.Cluster.run c = `Quiescent);
      Option.iter
        (fun conn -> check_int (name ^ ": leaked slots") 0 (Conn.leaked_slots conn))
        !killed;
      check_bool (name ^ ": descriptors and pins back") true
        (node_state c [ 0; 1 ] = before))
    [ ("close", Conn.close); ("reset", Conn.mark_reset) ]

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
      ]
      @ List.concat_map
          (fun (suffix, opts) ->
            [
              Alcotest.test_case
                ("idle conn parks no control fibers" ^ suffix)
                `Quick
                (test_idle_conn_parks_no_control_fibers opts);
              Alcotest.test_case
                ("connect/close cycles restore fibers" ^ suffix)
                `Quick
                (test_cycles_restore_live_fibers opts);
            ])
          presets
      @ [
        Alcotest.test_case "echo then close quiesces promptly" `Quick
          test_echo_close_quiesces_promptly;
        Alcotest.test_case "64 idle conns own no fiber" `Quick
          test_idle_conns_own_no_fiber;
        Alcotest.test_case "close with full buffers ends rx fiber" `Quick
          test_close_with_full_buffers_ends_rx;
      ]
      @ List.concat_map
          (fun (suffix, opts) ->
            [
              Alcotest.test_case
                ("rendezvous read ends at writer close" ^ suffix)
                `Quick
                (test_rdvz_writer_close_ends_read opts);
              Alcotest.test_case
                ("rendezvous read ends at local close" ^ suffix)
                `Quick
                (test_rdvz_local_close_ends_read opts);
              Alcotest.test_case
                ("rendezvous read ends at a reset" ^ suffix)
                `Quick
                (test_rdvz_reset_ends_read opts);
            ])
          rdvz_presets
      @ [
        Alcotest.test_case "close during a read reposts nothing" `Quick
          test_close_during_read_reposts_nothing;
        Alcotest.test_case "close during comm-thread sync" `Quick
          test_close_during_comm_thread_sync;
        Alcotest.test_case "comm-thread close reclaims posted spares" `Quick
          test_comm_thread_close_reclaims_spares;
        Alcotest.test_case "close cost independent of idle conns" `Quick
          test_close_cost_independent_of_idle_conns;
        Alcotest.test_case "uq request refused on listener close" `Quick
          test_uq_request_refused_on_listener_close;
        Alcotest.test_case "close or reset during a batched connect" `Quick
          test_kill_during_batched_connect;
        Alcotest.test_case "close before the connect reply" `Quick
          test_close_before_connect_reply;
        Alcotest.test_case "connects racing a batched listen" `Quick
          test_connects_racing_batched_listen;
        Alcotest.test_case "stash: a blocking read-only consumer drains"
          `Quick
          (test_read_only_consumer_drains ~watched:false);
        Alcotest.test_case "stash: a watcher-driven read-only consumer drains"
          `Quick
          (test_read_only_consumer_drains ~watched:true);
        Alcotest.test_case "stash: close or reset drops it" `Quick
          test_close_or_reset_drops_the_stash;
      ] );
  ]
