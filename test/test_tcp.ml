(* Tests for the kernel TCP/IP stack: byte-stream semantics, handshake,
   flow control, retransmission, teardown, UDP, IP fragmentation. *)
open Uls_engine
open Uls_api.Sockets_api
module Bytebuf = Uls_tcp.Bytebuf

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- Bytebuf --- *)

let test_bytebuf_basics () =
  let b = Bytebuf.create ~capacity:8 in
  check_int "accepts up to capacity" 8 (Bytebuf.write b "0123456789" ~off:0 ~len:10);
  check_int "full" 0 (Bytebuf.free_space b);
  check_str "peek" "234" (Bytebuf.peek b ~off:2 ~len:3);
  check_str "read" "0123" (Bytebuf.read b 4);
  check_int "free after read" 4 (Bytebuf.free_space b);
  (* wrap-around *)
  check_int "wraps" 4 (Bytebuf.write b "abcd" ~off:0 ~len:4);
  check_str "wrapped contents" "4567abcd" (Bytebuf.peek b ~off:0 ~len:8)

let test_bytebuf_drop_bounds () =
  let b = Bytebuf.create ~capacity:4 in
  ignore (Bytebuf.write b "ab" ~off:0 ~len:2);
  Alcotest.check_raises "drop too much" (Invalid_argument "Bytebuf.drop")
    (fun () -> Bytebuf.drop b 3);
  Bytebuf.drop b 2;
  check_int "empty" 0 (Bytebuf.available b)

let prop_bytebuf_model =
  (* Random writes/reads against a reference string-queue model. *)
  QCheck.Test.make ~name:"bytebuf behaves as a byte FIFO" ~count:200
    QCheck.(list (pair bool (int_range 1 30)))
    (fun ops ->
      let b = Bytebuf.create ~capacity:64 in
      let model = Buffer.create 64 in
      let seq = ref 0 in
      let consumed = ref 0 in
      List.for_all
        (fun (is_write, n) ->
          if is_write then begin
            let s = String.init n (fun i -> Char.chr ((!seq + i) mod 256)) in
            let accepted = Bytebuf.write b s ~off:0 ~len:n in
            Buffer.add_string model (String.sub s 0 accepted);
            seq := !seq + accepted;
            true
          end
          else begin
            let got = Bytebuf.read b n in
            let expect_len =
              min n (Buffer.length model - !consumed)
            in
            let expected = Buffer.sub model !consumed expect_len in
            consumed := !consumed + expect_len;
            String.equal got expected
          end)
        ops)

(* --- stack-level helpers --- *)

let with_cluster ~n f =
  let c = Uls_bench.Cluster.create ~n () in
  let api = Uls_bench.Cluster.tcp_api c in
  f c api (Uls_bench.Cluster.sim c)

let test_connect_and_exchange () =
  with_cluster ~n:2 (fun c api sim ->
      let got = ref "" in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:4 in
          let s, peer = l.accept () in
          check_int "peer node" 0 peer.node;
          got := recv_exact s 5;
          s.send "world";
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          s.send "hello";
          check_str "reply" "world" (recv_exact s 5);
          check_str "eof after close" "" (s.recv 10);
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      check_str "request" "hello" !got)

let test_connection_refused () =
  with_cluster ~n:2 (fun c api sim ->
      let refused = ref false in
      Sim.spawn sim (fun () ->
          try ignore (api.connect ~node:0 { node = 1; port = 81 })
          with Connection_refused _ -> refused := true);
      ignore (Uls_bench.Cluster.run c);
      check_bool "refused" true !refused)

let test_stream_integrity_random_chunks () =
  with_cluster ~n:2 (fun c api sim ->
      let total = 200_000 in
      let payload = String.init total (fun i -> Char.chr ((i * 7) mod 256)) in
      let received = Buffer.create total in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          let rng = Rng.create ~seed:5 in
          let rec pull () =
            let chunk = s.recv (1 + Rng.int rng 9_000) in
            if chunk <> "" then begin
              Buffer.add_string received chunk;
              pull ()
            end
          in
          pull ();
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          let rng = Rng.create ~seed:6 in
          let rec push off =
            if off < total then begin
              let n = min (1 + Rng.int rng 20_000) (total - off) in
              s.send (String.sub payload off n);
              push (off + n)
            end
          in
          push 0;
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      check_bool "byte stream preserved" true
        (String.equal payload (Buffer.contents received)))

let test_flow_control_blocks_writer () =
  with_cluster ~n:2 (fun c api sim ->
      (* 16 KB buffers, 200 KB write, receiver sleeps 5 ms first: the
         writer cannot complete before the reader drains. *)
      let writer_done = ref 0 in
      let reader_started = ref 0 in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          Sim.delay sim (Time.ms 5);
          reader_started := Sim.now sim;
          let rec drain got =
            if got < 200_000 then drain (got + String.length (s.recv 65_536))
          in
          drain 0;
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          s.send (String.make 200_000 'x');
          writer_done := Sim.now sim;
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      check_bool "writer blocked until reader drained" true
        (!writer_done > !reader_started))

let test_retransmission_under_loss () =
  with_cluster ~n:2 (fun c api sim ->
      (* Aperiodic (seeded) loss: a fixed-period drop pattern can phase-
         lock with the congestion-recovery cycle and starve one segment
         forever. *)
      let rng = Rng.create ~seed:97 in
      Uls_ether.Network.set_fault_filter (Uls_bench.Cluster.network c) (fun _ ->
          Rng.int rng 13 = 0);
      let total = 300_000 in
      let payload = String.init total (fun i -> Char.chr ((i * 11) mod 256)) in
      let received = Buffer.create total in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          let rec pull () =
            let chunk = s.recv 32_768 in
            if chunk <> "" then begin
              Buffer.add_string received chunk;
              pull ()
            end
          in
          pull ();
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          s.send payload;
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      check_bool "stream intact under 8% loss" true
        (String.equal payload (Buffer.contents received)))

let test_backlog_overflow_retries () =
  with_cluster ~n:4 (fun c api sim ->
      (* backlog 1, three concurrent clients: SYNs beyond the backlog are
         dropped and recovered by SYN retransmission. *)
      let served = ref 0 in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:0 ~port:80 ~backlog:1 in
          for _ = 1 to 3 do
            let s, _ = l.accept () in
            ignore (recv_exact s 2);
            s.send "ok";
            s.close ()
          done);
      for client = 1 to 3 do
        Sim.spawn sim (fun () ->
            Sim.delay sim (Time.us 10);
            let s = api.connect ~node:client { node = 0; port = 80 } in
            s.send "hi";
            ignore (recv_exact s 2);
            incr served;
            s.close ())
      done;
      ignore (Uls_bench.Cluster.run c);
      check_int "all clients served" 3 !served)

(* One connection carries [phases] in turn: the client sends each
   phase's bytes and waits for the server's one-byte reply before the
   next. Returns each phase's round trip, from the client's first send
   to the reply. A one-byte phase is the connection's small-message
   round trip, which no window limits. *)
let phase_times phases =
  let c = Uls_bench.Cluster.create ~n:2 () in
  let api = Uls_bench.Cluster.tcp_api c in
  let sim = Uls_bench.Cluster.sim c in
  let times = Array.make (List.length phases) 0 in
  Sim.spawn sim (fun () ->
      let l = api.listen ~node:1 ~port:80 ~backlog:1 in
      let s, _ = l.accept () in
      List.iter
        (fun bytes ->
          let rec drain got =
            if got < bytes then drain (got + String.length (s.recv 65_536))
          in
          drain 0;
          s.send "k")
        phases;
      s.close ());
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 10);
      let s = api.connect ~node:0 { node = 1; port = 80 } in
      List.iteri
        (fun i bytes ->
          let t0 = Sim.now sim in
          s.send (String.make bytes 's');
          ignore (recv_exact s 1);
          times.(i) <- Sim.now sim - t0)
        phases;
      s.close ());
  ignore (Uls_bench.Cluster.run c);
  Array.to_list times

(* Wire time of [bytes] of payload on the 1 Gb/s link. *)
let wire_ns bytes = float_of_int (8 * bytes)

(* With an open window, [bytes] take one round trip per advertised
   window ([rcvbuf]) plus that window's wire time. *)
let open_window_ns ~rtt bytes =
  let window = Uls_tcp.Config.default.rcvbuf in
  float_of_int bytes /. float_of_int window
  *. (float_of_int rtt +. wire_ns window)

let test_slow_start_penalises_short_transfers () =
  (* 8 KB fits the 16 KB advertised window, so an open window moves it
     in one round trip plus its wire time. From the initial cwnd of 2
     segments, slow start needs at least one round trip more. *)
  match phase_times [ 8_192; 1 ] with
  | [ cold; rtt ] ->
    check_bool "slow start costs round trips" true
      (float_of_int cold > float_of_int (2 * rtt) +. wire_ns 8_192)
  | _ -> Alcotest.fail "two phases"

let test_congestion_window_opens_up () =
  (* On a long transfer the window grows past slow start to the
     advertised window, and the transfer runs within 15% of the time an
     open window takes. A window stuck below [rcvbuf] needs more round
     trips. *)
  match phase_times [ 1_000_000; 1 ] with
  | [ cold; rtt ] ->
    check_bool "long transfers converge" true
      (float_of_int cold < 1.15 *. open_window_ns ~rtt 1_000_000)
  | _ -> Alcotest.fail "two phases"

let test_simultaneous_close () =
  with_cluster ~n:2 (fun c api sim ->
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          ignore (recv_exact s 1);
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          s.send "x";
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      (* Both kernels should have forgotten the connection (TIME_WAIT
         expired during the run-to-quiescence). *)
      check_bool "quiescent" true (Sim.events_executed sim > 0))

let test_send_after_close_raises () =
  with_cluster ~n:2 (fun c api sim ->
      let raised = ref false in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          s.close ();
          try s.send "nope" with Connection_closed -> raised := true);
      ignore (Uls_bench.Cluster.run c);
      check_bool "send after close" true !raised)

let test_select_tcp () =
  with_cluster ~n:3 (fun c api sim ->
      let woke_on = ref [] in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:0 ~port:80 ~backlog:2 in
          let s1, _ = l.accept () in
          let s2, _ = l.accept () in
          (* Wait for whichever becomes readable first. *)
          for _ = 1 to 2 do
            let ready = api.select ~node:0 [ s1; s2 ] in
            List.iter
              (fun s ->
                let msg = s.recv 16 in
                if msg <> "" then woke_on := msg :: !woke_on)
              ready
          done);
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:1 { node = 0; port = 80 } in
          Sim.delay sim (Time.ms 2);
          s.send "one";
          Sim.delay sim (Time.ms 5);
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 20);
          let s = api.connect ~node:2 { node = 0; port = 80 } in
          Sim.delay sim (Time.ms 4);
          s.send "two";
          Sim.delay sim (Time.ms 5);
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      Alcotest.(check (list string)) "select order" [ "two"; "one" ] !woke_on)

(* --- UDP --- *)

let test_udp_roundtrip () =
  let c = Uls_bench.Cluster.create ~n:2 () in
  let stack = Uls_bench.Cluster.tcp c in
  let sim = Uls_bench.Cluster.sim c in
  let k0 = Uls_tcp.Tcp_stack.kernel stack 0
  and k1 = Uls_tcp.Tcp_stack.kernel stack 1 in
  let got = ref [] in
  Sim.spawn sim (fun () ->
      let sock = Uls_tcp.Kernel.udp_bind k1 ~port:53 in
      for _ = 1 to 2 do
        let from, data = Uls_tcp.Kernel.udp_recvfrom k1 sock in
        got := (from.node, data) :: !got
      done);
  Sim.spawn sim (fun () ->
      let sock = Uls_tcp.Kernel.udp_bind k0 ~port:1000 in
      Uls_tcp.Kernel.udp_sendto k0 sock ~dst:{ node = 1; port = 53 } "ping";
      Uls_tcp.Kernel.udp_sendto k0 sock ~dst:{ node = 1; port = 53 } "pong");
  ignore (Uls_bench.Cluster.run c);
  Alcotest.(check (list (pair int string)))
    "datagrams in order" [ (0, "ping"); (0, "pong") ] (List.rev !got)

let test_udp_fragmentation () =
  let c = Uls_bench.Cluster.create ~n:2 () in
  let stack = Uls_bench.Cluster.tcp c in
  let sim = Uls_bench.Cluster.sim c in
  let k0 = Uls_tcp.Tcp_stack.kernel stack 0
  and k1 = Uls_tcp.Tcp_stack.kernel stack 1 in
  let big = String.init 9_000 (fun i -> Char.chr (i mod 256)) in
  let got = ref "" in
  Sim.spawn sim (fun () ->
      let sock = Uls_tcp.Kernel.udp_bind k1 ~port:53 in
      let _, data = Uls_tcp.Kernel.udp_recvfrom k1 sock in
      got := data);
  Sim.spawn sim (fun () ->
      let sock = Uls_tcp.Kernel.udp_bind k0 ~port:1000 in
      Uls_tcp.Kernel.udp_sendto k0 sock ~dst:{ node = 1; port = 53 } big);
  ignore (Uls_bench.Cluster.run c);
  check_bool "9KB datagram reassembled" true (String.equal big !got)

let test_udp_fragment_loss_drops_datagram () =
  let c = Uls_bench.Cluster.create ~n:2 () in
  let stack = Uls_bench.Cluster.tcp c in
  let sim = Uls_bench.Cluster.sim c in
  let k0 = Uls_tcp.Tcp_stack.kernel stack 0
  and k1 = Uls_tcp.Tcp_stack.kernel stack 1 in
  (* Drop exactly one frame: the 2nd fragment of the first datagram. *)
  let n = ref 0 in
  Uls_ether.Network.set_fault_filter (Uls_bench.Cluster.network c) (fun _ ->
      incr n;
      !n = 2);
  let got = ref [] in
  Sim.spawn sim (fun () ->
      let sock = Uls_tcp.Kernel.udp_bind k1 ~port:53 in
      let _, data = Uls_tcp.Kernel.udp_recvfrom k1 sock in
      got := data :: !got);
  Sim.spawn sim (fun () ->
      let sock = Uls_tcp.Kernel.udp_bind k0 ~port:1000 in
      Uls_tcp.Kernel.udp_sendto k0 sock ~dst:{ node = 1; port = 53 }
        (String.make 4_000 'L');
      Sim.delay sim (Time.ms 1);
      Uls_tcp.Kernel.udp_sendto k0 sock ~dst:{ node = 1; port = 53 } "survivor");
  ignore (Uls_bench.Cluster.run c);
  Alcotest.(check (list string))
    "lossy datagram gone, next one delivered" [ "survivor" ] !got

let suites =
  [
    ( "tcp.bytebuf",
      Alcotest.test_case "basics" `Quick test_bytebuf_basics
      :: Alcotest.test_case "drop bounds" `Quick test_bytebuf_drop_bounds
      :: List.map QCheck_alcotest.to_alcotest [ prop_bytebuf_model ] );
    ( "tcp.stream",
      [
        Alcotest.test_case "connect+exchange" `Quick test_connect_and_exchange;
        Alcotest.test_case "refused" `Quick test_connection_refused;
        Alcotest.test_case "random chunk integrity" `Quick
          test_stream_integrity_random_chunks;
        Alcotest.test_case "flow control blocks writer" `Quick
          test_flow_control_blocks_writer;
        Alcotest.test_case "retransmission under loss" `Quick
          test_retransmission_under_loss;
        Alcotest.test_case "backlog overflow" `Quick test_backlog_overflow_retries;
        Alcotest.test_case "slow start penalty" `Quick
          test_slow_start_penalises_short_transfers;
        Alcotest.test_case "cwnd opens up" `Quick test_congestion_window_opens_up;
        Alcotest.test_case "simultaneous close" `Quick test_simultaneous_close;
        Alcotest.test_case "send after close" `Quick test_send_after_close_raises;
        Alcotest.test_case "select" `Quick test_select_tcp;
      ] );
    ( "tcp.udp",
      [
        Alcotest.test_case "roundtrip" `Quick test_udp_roundtrip;
        Alcotest.test_case "fragmentation" `Quick test_udp_fragmentation;
        Alcotest.test_case "fragment loss" `Quick
          test_udp_fragment_loss_drops_datagram;
      ] );
  ]
