(* Tests for the sockets-over-EMP substrate: connection management,
   streaming vs datagram semantics, credit flow control, rendezvous
   (including the Figure 7 deadlock), enhancement options, resource
   reclamation, select. *)
open Uls_engine
open Uls_api.Sockets_api
module Opt = Uls_substrate.Options
module Sub = Uls_substrate.Substrate
module E = Uls_emp.Endpoint

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let ds = Opt.data_streaming_enhanced
let dg = Opt.datagram

(* A preset on the ring firmware ([rx_ring]): the rendezvous tests run
   under each preset as given and under this. *)
let on_rings opts = { opts with Opt.rx_ring = true }

let rendezvous_cases name test opts =
  [
    Alcotest.test_case name `Quick (test opts);
    Alcotest.test_case (name ^ " (ring)") `Quick (test (on_rings opts));
  ]

let with_cluster ?(opts = ds) ~n f =
  let c = Uls_bench.Cluster.create ~n () in
  let api = Uls_bench.Cluster.substrate_api ~opts c in
  f c api (Uls_bench.Cluster.sim c)

let test_connect_exchange () =
  with_cluster ~n:2 (fun c api sim ->
      let got = ref "" in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:4 in
          let s, peer = l.accept () in
          check_int "client node" 0 peer.node;
          got := recv_exact s 5;
          s.send "world";
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          s.send "hello";
          check_str "reply" "world" (recv_exact s 5);
          check_str "eof" "" (s.recv 4);
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      check_str "request" "hello" !got)

let test_connection_refused () =
  let opts = { ds with Opt.connect_timeout = Time.ms 5 } in
  with_cluster ~opts ~n:2 (fun c api sim ->
      let refused = ref false in
      Sim.spawn sim (fun () ->
          try ignore (api.connect ~node:0 { node = 1; port = 99 })
          with Connection_refused _ -> refused := true);
      ignore (Uls_bench.Cluster.run c);
      check_bool "refused" true !refused)

let test_streaming_partial_reads () =
  (* The paper's §5.2 example: send 10 bytes, read them as 2 x 5. *)
  with_cluster ~n:2 (fun c api sim ->
      let parts = ref [] in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          let first = recv_exact s 5 in
          let second = recv_exact s 5 in
          parts := [ first; second ];
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          s.send "0123456789";
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      Alcotest.(check (list string)) "split read" [ "01234"; "56789" ] !parts)

let test_streaming_coalesced_reads () =
  (* Two writes read back in one recv (boundaries are not preserved). *)
  with_cluster ~n:2 (fun c api sim ->
      let got = ref "" in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          Sim.delay sim (Time.ms 1);
          (* both messages have arrived by now *)
          got := recv_exact s 8;
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          s.send "aaaa";
          s.send "bbbb";
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      check_str "coalesced" "aaaabbbb" !got)

let test_datagram_boundaries () =
  with_cluster ~opts:dg ~n:2 (fun c api sim ->
      let reads = ref [] in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          for _ = 1 to 3 do
            reads := s.recv 100 :: !reads
          done;
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          s.send "first";
          s.send "second";
          s.send "third";
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      Alcotest.(check (list string))
        "one message per recv" [ "first"; "second"; "third" ] (List.rev !reads))

let test_datagram_truncation () =
  with_cluster ~opts:dg ~n:2 (fun c api sim ->
      let reads = ref [] in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          let first = s.recv 3 in
          let second = s.recv 10 in
          reads := [ first; second ];
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          s.send "truncate-me";
          s.send "next";
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      Alcotest.(check (list string))
        "short read truncates the datagram" [ "tru"; "next" ] !reads)

let test_large_transfer_integrity_ds () =
  with_cluster ~n:2 (fun c api sim ->
      let total = 1_000_000 in
      let payload = String.init total (fun i -> Char.chr ((i * 13) mod 256)) in
      let received = Buffer.create total in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          let rec pull () =
            let chunk = s.recv 48_000 in
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
      check_bool "1MB stream intact" true
        (String.equal payload (Buffer.contents received)))

let test_rendezvous_large_datagram opts () =
  with_cluster ~opts ~n:2 (fun c api sim ->
      (* Over eager_max: travels via the rendezvous zero-copy path. *)
      let size = 100_000 in
      let payload = String.init size (fun i -> Char.chr ((i * 3) mod 256)) in
      let got = ref "" in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          got := s.recv size;
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          s.send payload;
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      check_bool "rendezvous payload intact" true (String.equal payload !got))

let test_rendezvous_interleaves_with_eager_in_order () =
  with_cluster ~opts:dg ~n:2 (fun c api sim ->
      let big = String.make 50_000 'B' in
      let reads = ref [] in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          for _ = 1 to 3 do
            reads := String.length (s.recv 60_000) :: !reads
          done;
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          s.send "small1";
          s.send big;
          s.send "small2";
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      Alcotest.(check (list int))
        "arrival order preserved across paths" [ 6; 50_000; 6 ] (List.rev !reads))

let test_credit_exhaustion_blocks_writer () =
  let opts = { ds with Opt.credits = 4; buffer_size = 4_096 } in
  with_cluster ~opts ~n:2 (fun c api sim ->
      let writer_done = ref 0 and reader_started = ref 0 in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          Sim.delay sim (Time.ms 10);
          reader_started := Sim.now sim;
          let rec drain got =
            if got < 100_000 then drain (got + String.length (s.recv 8_192))
          in
          drain 0;
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          (* 100 KB through 4 x 4 KB credits: must stall until reads. *)
          s.send (String.make 100_000 'c');
          writer_done := Sim.now sim;
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      check_bool "writer waited for credits" true (!writer_done > !reader_started))

let test_eager_tolerates_crossing_writes () =
  (* Figure 9: up to N outstanding writes before the matching reads. *)
  with_cluster ~n:2 (fun c api sim ->
      let completed = ref 0 in
      let payload = String.make 4_096 'x' in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          s.send payload;
          ignore (recv_exact s 4_096);
          incr completed;
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          s.send payload;
          ignore (recv_exact s 4_096);
          incr completed;
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      check_int "both sides completed" 2 !completed)

let test_rendezvous_deadlock_figure7 opts () =
  with_cluster ~opts ~n:2 (fun c api sim ->
      let completed = ref 0 in
      let payload = String.make 4_096 'x' in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          s.send payload;
          ignore (recv_exact s 4_096);
          incr completed);
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          s.send payload;
          ignore (recv_exact s 4_096);
          incr completed);
      (match Uls_bench.Cluster.run ~until:(Time.ms 200) c with
      | `Time_limit | `Quiescent | `Stopped -> ());
      check_int "neither side progressed" 0 !completed;
      check_bool "writers parked" true (Sim.blocked_fibers sim >= 2))

let test_close_reclaims_descriptors () =
  with_cluster ~n:2 (fun c api sim ->
      let emp1 = Uls_bench.Cluster.emp c 1 in
      let baseline = ref 0 and during = ref 0 and after = ref 0 in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:2 in
          baseline := E.posted_descriptors emp1;
          let s, _ = l.accept () in
          during := E.posted_descriptors emp1;
          ignore (recv_exact s 3);
          s.close ();
          Sim.delay sim (Time.ms 1);
          after := E.posted_descriptors emp1);
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          s.send "bye";
          Sim.delay sim (Time.ms 30);
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      check_bool "connection posted descriptors" true (!during > !baseline);
      check_int "close unposted them all" !baseline !after)

let test_close_message_preserves_tail_data () =
  (* Writer sends a multi-frame message and closes immediately; the
     reader must still get every byte before EOF (close carries a
     sequence number so it cannot overtake data). *)
  with_cluster ~n:2 (fun c api sim ->
      let got = ref 0 in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          let rec drain () =
            let chunk = s.recv 65_536 in
            if chunk <> "" then begin
              got := !got + String.length chunk;
              drain ()
            end
          in
          drain ();
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          s.send (String.make 50_000 't');
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      check_int "all bytes before EOF" 50_000 !got)

(* When both sides of a connection close at once, each sends a close,
   which lands after its receiver released the close descriptor: in the
   unexpected queue.
   No connection owns it any more, so it must not keep its slot: a run
   that churns connections faster than a slot goes stale (5 ms) would
   otherwise fill the queue with dead closes and drop live messages. *)
let test_dead_close_leaves_no_uq_slot () =
  with_cluster ~n:2 (fun c api sim ->
      let conns = 3 in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:conns in
          for _ = 1 to conns do
            let s, _ = l.accept () in
            s.send "x";
            s.close ()
          done;
          l.close_listener ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          for _ = 1 to conns do
            let s = api.connect ~node:0 { node = 1; port = 80 } in
            check_str "reply" "x" (s.recv 1);
            s.close ();
            Sim.delay sim (Time.us 200)
          done);
      check_bool "quiescent" true (Uls_bench.Cluster.run c = `Quiescent);
      for node = 0 to 1 do
        check_bool
          (Printf.sprintf "node %d: no close held in the unexpected queue" node)
          false
          (E.uq_has_match (Uls_bench.Cluster.emp c node) ~src:(-1) ~tag:(-1))
      done)

let test_send_to_closed_peer_raises () =
  with_cluster ~n:2 (fun c api sim ->
      let raised = ref false in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          Sim.delay sim (Time.ms 1);
          (try s.send "too late" with Connection_closed -> raised := true);
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      check_bool "write after peer close raises" true !raised)

let test_backlog_queues_connections () =
  with_cluster ~n:4 (fun c api sim ->
      let served = ref [] in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:0 ~port:80 ~backlog:3 in
          for _ = 1 to 3 do
            let s, peer = l.accept () in
            served := peer.node :: !served;
            ignore (recv_exact s 1);
            s.close ()
          done);
      for client = 1 to 3 do
        Sim.spawn sim (fun () ->
            Sim.delay sim (Time.us (10 * client));
            let s = api.connect ~node:client { node = 0; port = 80 } in
            s.send "x";
            Sim.delay sim (Time.ms 20);
            s.close ())
      done;
      ignore (Uls_bench.Cluster.run c);
      Alcotest.(check (list int)) "accepted in request order" [ 1; 2; 3 ]
        (List.rev !served))

let test_bind_in_use () =
  with_cluster ~n:2 (fun c api sim ->
      let raised = ref false in
      Sim.spawn sim (fun () ->
          let _l = api.listen ~node:1 ~port:80 ~backlog:1 in
          try ignore (api.listen ~node:1 ~port:80 ~backlog:1)
          with Bind_in_use _ -> raised := true);
      ignore (Uls_bench.Cluster.run c);
      check_bool "second bind rejected" true !raised)

let test_select_substrate () =
  with_cluster ~n:3 (fun c api sim ->
      let order = ref [] in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:0 ~port:80 ~backlog:2 in
          let s1, _ = l.accept () in
          let s2, _ = l.accept () in
          for _ = 1 to 2 do
            let ready = api.select ~node:0 [ s1; s2 ] in
            List.iter
              (fun s ->
                let m = s.recv 16 in
                if m <> "" then order := m :: !order)
              ready
          done;
          s1.close ();
          s2.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:1 { node = 0; port = 80 } in
          Sim.delay sim (Time.ms 3);
          s.send "late";
          Sim.delay sim (Time.ms 10);
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 20);
          let s = api.connect ~node:2 { node = 0; port = 80 } in
          Sim.delay sim (Time.ms 1);
          s.send "early";
          Sim.delay sim (Time.ms 10);
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      Alcotest.(check (list string)) "select wake order" [ "early"; "late" ]
        (List.rev !order))

let test_uq_option_uses_unexpected_queue () =
  with_cluster ~opts:{ ds with Opt.credits = 4 } ~n:2 (fun c api sim ->
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          for _ = 1 to 20 do
            ignore (recv_exact s 64)
          done;
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          for _ = 1 to 20 do
            s.send (String.make 64 'u')
          done;
          Sim.delay sim (Time.ms 5);
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      (* The client's credit acks arrive with no pre-posted descriptor
         and are absorbed by the unexpected queue. *)
      check_bool "acks landed in the UQ" true
        ((E.stats (Uls_bench.Cluster.emp c 0)).E.unexpected_queue_hits > 0))

let test_piggyback_reduces_messages () =
  let count_messages piggyback =
    let opts = { ds with Opt.piggyback; delayed_acks = false } in
    with_cluster ~opts ~n:2 (fun c api sim ->
        Sim.spawn sim (fun () ->
            let l = api.listen ~node:1 ~port:80 ~backlog:1 in
            let s, _ = l.accept () in
            for _ = 1 to 20 do
              s.send (recv_exact s 8)
            done;
            s.close ());
        Sim.spawn sim (fun () ->
            Sim.delay sim (Time.us 10);
            let s = api.connect ~node:0 { node = 1; port = 80 } in
            for _ = 1 to 20 do
              s.send "12345678";
              ignore (recv_exact s 8)
            done;
            s.close ());
        ignore (Uls_bench.Cluster.run c);
        (E.stats (Uls_bench.Cluster.emp c 1)).E.messages_sent)
  in
  let without = count_messages false in
  let with_pb = count_messages true in
  check_bool "piggyback eliminates explicit acks" true (with_pb < without)

let test_comm_thread_scheme () =
  (* §5.2 alternative 1: no credits/acks; the comm thread reposts. *)
  let opts = { ds with Opt.scheme = Opt.Comm_thread } in
  with_cluster ~opts ~n:2 (fun c api sim ->
      let total = 200_000 in
      let payload = String.init total (fun i -> Char.chr ((i * 5) mod 256)) in
      let received = Buffer.create total in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          let rec pull () =
            let chunk = s.recv 65_536 in
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
      check_bool "comm-thread stream intact" true
        (String.equal payload (Buffer.contents received));
      (* no substrate-level credit acks at all *)
      let tags_acked =
        (E.stats (Uls_bench.Cluster.emp c 0)).E.unexpected_queue_hits
      in
      check_int "no credit acks" 0 tags_acked)

let test_comm_thread_unresponsive_reader_recovers () =
  (* With no flow control, a sleeping reader exhausts the 2N buffers;
     EMP retransmission recovers once it drains (the congestion the
     paper warns about in 5.2). *)
  let opts =
    { ds with Opt.scheme = Opt.Comm_thread; credits = 2; buffer_size = 4_096 }
  in
  with_cluster ~opts ~n:2 (fun c api sim ->
      let total = 60_000 in
      let got = ref 0 in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          Sim.delay sim (Time.ms 20);
          let rec pull () =
            let chunk = s.recv 65_536 in
            if chunk <> "" then begin
              got := !got + String.length chunk;
              pull ()
            end
          in
          pull ();
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          s.send (String.make total 'z');
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      check_int "all bytes eventually delivered" total !got;
      check_bool "retransmissions occurred" true
        ((E.stats (Uls_bench.Cluster.emp c 0)).E.frames_retransmitted > 0))

let test_block_send_completes_and_costs_rtt () =
  let run block_send =
    let opts = { ds with Opt.block_send } in
    with_cluster ~opts ~n:2 (fun c api sim ->
        let finish = ref 0 in
        Sim.spawn sim (fun () ->
            let l = api.listen ~node:1 ~port:80 ~backlog:1 in
            let s, _ = l.accept () in
            for _ = 1 to 10 do
              ignore (recv_exact s 64)
            done;
            s.close ());
        Sim.spawn sim (fun () ->
            Sim.delay sim (Time.us 10);
            let s = api.connect ~node:0 { node = 1; port = 80 } in
            for _ = 1 to 10 do
              s.send (String.make 64 'b')
            done;
            finish := Sim.now sim;
            s.close ());
        ignore (Uls_bench.Cluster.run c);
        !finish)
  in
  let normal = run false and blocking = run true in
  check_bool "blocking send is much slower" true (blocking > 2 * normal)

let test_many_connections_interleaved () =
  (* Several simultaneous sockets between the same pair of nodes: tag
     matching must keep their byte streams apart. *)
  with_cluster ~n:2 (fun c api sim ->
      let conns = 5 and per_conn = 30_000 in
      let payload k =
        String.init per_conn (fun i -> Char.chr (((i * 7) + (k * 31)) mod 256))
      in
      let results = Array.make conns "" in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:conns in
          for _ = 1 to conns do
            let s, _ = l.accept () in
            Sim.spawn sim (fun () ->
                let k = int_of_string (recv_exact s 1) in
                results.(k) <- recv_exact s per_conn;
                s.close ())
          done);
      for k = 0 to conns - 1 do
        Sim.spawn sim (fun () ->
            Sim.delay sim (Time.us (10 * (k + 1)));
            let s = api.connect ~node:0 { node = 1; port = 80 } in
            s.send (string_of_int k);
            s.send (payload k);
            Sim.delay sim (Time.ms 50);
            s.close ())
      done;
      ignore (Uls_bench.Cluster.run c);
      for k = 0 to conns - 1 do
        check_bool
          (Printf.sprintf "stream %d kept separate" k)
          true
          (String.equal results.(k) (payload k))
      done)

let test_substrate_loss_recovery () =
  (* EMP's NIC-level reliability hides switch drops from the sockets
     layer entirely. *)
  with_cluster ~n:2 (fun c api sim ->
      let rng = Rng.create ~seed:11 in
      Uls_ether.Network.set_fault_filter (Uls_bench.Cluster.network c) (fun _ ->
          Rng.int rng 20 = 0);
      let total = 300_000 in
      let payload = String.init total (fun i -> Char.chr ((i * 29) mod 256)) in
      let received = Buffer.create total in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          let rec pull () =
            let chunk = s.recv 65_536 in
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
      check_bool "stream intact under 5% loss" true
        (String.equal payload (Buffer.contents received));
      check_bool "EMP retransmitted" true
        ((E.stats (Uls_bench.Cluster.emp c 0)).E.frames_retransmitted > 0))

(* --- regression tests --------------------------------------------------- *)

let rz = { ds with Opt.scheme = Opt.Rendezvous }

let test_rendezvous_short_read_keeps_tail opts () =
  (* A rendezvous message read with a smaller buffer must not lose its
     tail in Data_streaming mode: the remainder is served by later
     reads, exactly like the eager path. *)
  with_cluster ~opts ~n:2 (fun c api sim ->
      let parts = ref [] in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          let first = s.recv 4 in
          let second = try recv_exact s 6 with Connection_closed -> "<eof>" in
          parts := [ first; second ];
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          s.send "0123456789";
          s.close ());
      ignore (Uls_bench.Cluster.run c);
      Alcotest.(check (list string))
        "short rendezvous read keeps the tail" [ "0123"; "456789" ] !parts)

let test_close_listener_wakes_acceptor () =
  (* Closing a listener must wake a fiber parked in accept rather than
     leaving it blocked forever. *)
  with_cluster ~n:2 (fun c api sim ->
      let woken = ref false in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          Sim.spawn sim (fun () ->
              try ignore (l.accept ()) with Connection_closed -> woken := true);
          Sim.delay sim (Time.ms 1);
          l.close_listener ());
      ignore (Uls_bench.Cluster.run c);
      check_bool "parked acceptor raised Connection_closed" true !woken)

(* A control message too short for its fields must be flagged as a
   protocol error naming its kind: a close read as "close at seq 0"
   would discard data still in flight, and a garbage credit ack would
   grant credits nobody returned. Credit acks run under plain data
   streaming, where they land on pre-posted descriptors. *)
let undecodable_kinds =
  [
    (Uls_substrate.Tags.Close, Opt.data_streaming_enhanced);
    (Uls_substrate.Tags.Rdvz_request, Opt.data_streaming_enhanced);
    (Uls_substrate.Tags.Rdvz_grant, Opt.data_streaming_enhanced);
    (Uls_substrate.Tags.Credit_ack, Opt.data_streaming);
  ]

let test_undecodable_is_protocol_error (kind, opts) () =
  with_cluster ~opts ~n:2 (fun c api sim ->
      let got_error = ref "" in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          (try ignore (s.recv 16) with Connection_closed -> ());
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          ignore s;
          Sim.delay sim (Time.us 50);
          (* A buggy peer: 3 bytes of garbage where the message's
             8-byte fields belong, aimed at the server's conn id. *)
          let e0 = Uls_bench.Cluster.emp c 0 in
          let region = Uls_host.Memory.alloc 3 in
          Uls_host.Memory.blit_from_string "zzz" region ~off:0;
          let snd =
            E.post_send e0 ~dst:1
              ~tag:(Uls_substrate.Tags.make kind 1)
              region ~off:0 ~len:3
          in
          E.wait_send e0 snd);
      (try ignore (Uls_bench.Cluster.run c) with
      | Sim.Fiber_failure (_, Uls_substrate.Codec.Protocol_error msg) ->
        got_error := msg);
      let name = Uls_substrate.Tags.kind_name kind in
      Alcotest.(check string)
        ("undecodable " ^ name ^ " is a protocol error")
        (Printf.sprintf "conn 1: %s message from node 0 too short (3 B < %d B)"
           name
           (if kind = Uls_substrate.Tags.Rdvz_request then 24 else 8))
        !got_error)

let test_peer_close_wakes_all_rendezvous_writers opts () =
  (* Two fibers blocked awaiting rendezvous grants on the same
     connection: the peer closing must wake both (the shared grant
     mailbox delivered its -1 sentinel to only one, starving the
     other forever). *)
  with_cluster ~opts ~n:2 (fun c api sim ->
      let closed = ref 0 in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          (* Let both writers park on their grants, then close without
             reading. *)
          Sim.delay sim (Time.ms 2);
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          for _ = 1 to 2 do
            Sim.spawn sim (fun () ->
                try s.send (String.make 1_024 'r')
                with Connection_closed -> incr closed)
          done);
      ignore (Uls_bench.Cluster.run c);
      check_int "both parked writers raised Closed" 2 !closed)

let test_concurrent_rendezvous_writers_deliver_all opts () =
  (* Two fibers writing concurrently through the rendezvous path: each
     must receive its own grant (routed by rid) and every byte must
     reach the reader. *)
  with_cluster ~opts ~n:2 (fun c api sim ->
      let per_write = 8_192 and writes_each = 4 in
      let expect = 2 * writes_each * per_write in
      let failures = ref 0 and wrote = ref 0 and got = ref 0 in
      Sim.spawn sim (fun () ->
          let l = api.listen ~node:1 ~port:80 ~backlog:1 in
          let s, _ = l.accept () in
          while !got < expect do
            got := !got + String.length (s.recv 65_536)
          done;
          s.close ());
      Sim.spawn sim (fun () ->
          Sim.delay sim (Time.us 10);
          let s = api.connect ~node:0 { node = 1; port = 80 } in
          for w = 0 to 1 do
            Sim.spawn sim (fun () ->
                try
                  for _ = 1 to writes_each do
                    s.send (String.make per_write (Char.chr (Char.code 'a' + w)));
                    incr wrote
                  done
                with Connection_closed -> incr failures)
          done);
      ignore (Uls_bench.Cluster.run c);
      check_int "no writer saw a spurious Closed" 0 !failures;
      check_int "every write completed" (2 * writes_each) !wrote;
      check_int "reader drained every byte" expect !got)

let prop_ds_stream_integrity =
  QCheck.Test.make ~name:"substrate DS preserves random byte streams" ~count:15
    QCheck.(pair (int_range 1 120_000) (int_range 1 30_000))
    (fun (total, read_chunk) ->
      with_cluster ~n:2 (fun c api sim ->
          let payload = String.init total (fun i -> Char.chr ((i * 17) mod 256)) in
          let received = Buffer.create total in
          Sim.spawn sim (fun () ->
              let l = api.listen ~node:1 ~port:80 ~backlog:1 in
              let s, _ = l.accept () in
              let rec pull () =
                let chunk = s.recv read_chunk in
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
          String.equal payload (Buffer.contents received)))

let prop_dg_message_count =
  QCheck.Test.make ~name:"substrate DG: k sends = k recvs" ~count:15
    QCheck.(list_of_size Gen.(1 -- 10) (int_range 1 4_000))
    (fun sizes ->
      with_cluster ~opts:dg ~n:2 (fun c api sim ->
          let got = ref [] in
          let k = List.length sizes in
          Sim.spawn sim (fun () ->
              let l = api.listen ~node:1 ~port:80 ~backlog:1 in
              let s, _ = l.accept () in
              for _ = 1 to k do
                got := String.length (s.recv 1_000_000) :: !got
              done;
              s.close ());
          Sim.spawn sim (fun () ->
              Sim.delay sim (Time.us 10);
              let s = api.connect ~node:0 { node = 1; port = 80 } in
              List.iter (fun n -> s.send (String.make n 'd')) sizes;
              s.close ());
          ignore (Uls_bench.Cluster.run c);
          List.rev !got = sizes))

(* Closed connections leave nothing behind: once both sides of K echo
   connections have closed and the cluster has quiesced, neither side's
   connection nor any region it owned may still be reachable — while
   the cluster itself is. Covers the NIC match index (cancelled
   descriptors), the substrate's send pools and the pin table. *)
let test_closed_conns_collectable engine () =
  let k = 6 in
  let c = Uls_bench.Cluster.create ~match_engine:engine ~n:2 () in
  let sim = Uls_bench.Cluster.sim c in
  let opts = Opt.server in
  let client = Uls_bench.Cluster.substrate ~opts c 0 in
  let server = Uls_bench.Cluster.substrate ~opts c 1 in
  let tracked = ref [] and echoed = ref 0 and pins = ref [] in
  let track conn =
    let weak v =
      let w = Weak.create 1 in
      Weak.set w 0 (Some (Obj.repr v));
      tracked := w :: !tracked
    in
    weak conn;
    Uls_substrate.Conn.iter_regions conn weak
  in
  let pinned () =
    List.map
      (fun i ->
        Uls_host.Os.pinned_regions
          (Uls_host.Node.os (Uls_bench.Cluster.node c i)))
      [ 0; 1 ]
  in
  Sim.spawn sim (fun () ->
      let l = Sub.listen server ~port:80 ~backlog:4 in
      pins := pinned ();
      for _ = 1 to k do
        let conn, _ = Sub.accept server l in
        track conn;
        Sim.spawn sim (fun () ->
            Uls_substrate.Conn.write conn (Uls_substrate.Conn.read conn 64);
            ignore (Uls_substrate.Conn.read conn 64);
            Uls_substrate.Conn.close conn)
      done);
  for i = 1 to k do
    Sim.spawn sim (fun () ->
        Sim.delay sim (Time.us (10 * i));
        let conn = Sub.connect client { node = 1; port = 80 } in
        track conn;
        Uls_substrate.Conn.write conn "ping";
        if Uls_substrate.Conn.read conn 64 = "ping" then incr echoed;
        Uls_substrate.Conn.close conn)
  done;
  check_bool "quiescent" true (Uls_bench.Cluster.run c = `Quiescent);
  check_int "every pair echoed" k !echoed;
  check_int "no connection left open" 0
    (Sub.active_connections client + Sub.active_connections server);
  Alcotest.(check (list int))
    "pin tables back to their pre-connection size" !pins (pinned ());
  Gc.full_major ();
  let survivors =
    List.length (List.filter (fun w -> Weak.check w 0) !tracked)
  in
  check_int "closed connections and their regions collected" 0 survivors;
  ignore (Sys.opaque_identity c)

(* --- connection set-up: descriptor posting (§7.2, §7.4) --------------- *)

(* One connect from node 0 to a listener on node 1, on the hashed match
   engine (two receive queues per NIC): per node, the doorbells rung
   for receive descriptors (every doorbell but one per EMP send), from
   the connect's start until both ends hold the connection. *)
let setup_rx_doorbells opts =
  let c =
    Uls_bench.Cluster.create ~match_engine:Uls_nic.Match_list.Hashed ~n:2 ()
  in
  let api = Uls_bench.Cluster.substrate_api ~opts c in
  let sim = Uls_bench.Cluster.sim c in
  let m = Metrics.for_sim sim in
  let rx_doorbells node =
    Metrics.counter_value m ~node "nic.doorbells"
    - (E.stats (Uls_bench.Cluster.emp c node)).E.messages_sent
  in
  let before = ref [] and after = ref [] and accepted = ref false in
  Sim.spawn sim (fun () ->
      let l = api.listen ~node:1 ~port:80 ~backlog:4 in
      let s, _ = l.accept () in
      accepted := true;
      Sim.delay sim (Time.ms 1);
      s.close ();
      l.close_listener ());
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 100);
      before := List.map rx_doorbells [ 0; 1 ];
      let s = api.connect ~node:0 { node = 1; port = 80 } in
      check_bool "accepted before the connect returned" true !accepted;
      after := List.map rx_doorbells [ 0; 1 ];
      s.close ());
  check_bool "quiescent" true (Uls_bench.Cluster.run c = `Quiescent);
  List.map2 ( - ) !after !before

let test_setup_one_doorbell_per_side () =
  (* Under the server preset (N = 4, no ack descriptors) a
     connection's descriptors go to the NIC through the fill ring: all
     of them come from one peer, so they land on one receive queue and
     ring one doorbell. The client's
     connect reply slot joins its batch; the server's other doorbell
     reposts the backlog descriptor the request took. *)
  match setup_rx_doorbells Opt.server with
  | [ client; server ] ->
    check_int "client: N+3 descriptors and the reply slot, one doorbell" 1
      client;
    check_int "server: one set-up doorbell plus the backlog repost" 2 server
  | _ -> assert false

let test_setup_per_call_under_paper_preset () =
  (* The paper presets keep per-call posting: under DS_DA_UQ (N = 32,
     no ack descriptors) each of the N+3 descriptors rings its own
     doorbell, and connection time stays §7.2's. *)
  let n = ds.Opt.credits in
  (match setup_rx_doorbells ds with
  | [ client; server ] ->
    check_int "client: N+3 descriptors and the reply slot" (n + 4) client;
    check_int "server: N+3 descriptors and the backlog repost" (n + 4) server
  | _ -> assert false);
  let connect_us opts =
    Printf.sprintf "%.2f" (Uls_bench.Microbench.connect_time ~kind:(`Sub opts) ())
  in
  check_str "connect time at credits 32 (us)" "188.98" (connect_us ds);
  check_str "connect time at credits 4 (us)" "89.58"
    (connect_us { ds with Opt.credits = 4 })

let test_setup_ring_is_faster () =
  (* The same preset with per-call posting pays a host post, a PIO
     write and a NIC mailbox fetch per descriptor on both sides. *)
  let us opts = Uls_bench.Microbench.connect_time ~kind:(`Sub opts) () in
  let ring = us Opt.server and per_call = us { Opt.server with rx_ring = false } in
  check_bool
    (Printf.sprintf "fill-ring set-up %.2f us < per-call %.2f us" ring per_call)
    true
    (ring < per_call)

(* --- send posting: mailbox or one ring slot ----------------------------- *)

(* One echo (256 bytes by default) on an established connection, from
   the request's write until the client has read the reply: its latency,
   and the server NIC's transmit-core time over it. *)
let echo ?match_engine ?(size = 256) opts =
  let c = Uls_bench.Cluster.create ?match_engine ~n:2 () in
  let api = Uls_bench.Cluster.substrate_api ~opts c in
  let sim = Uls_bench.Cluster.sim c in
  let tx_busy () =
    Resource.busy_time (Uls_nic.Tigon.tx_cpu (Uls_bench.Cluster.nic c 1))
  in
  let spent = ref (-1) and latency = ref (-1) in
  Sim.spawn sim (fun () ->
      let l = api.listen ~node:1 ~port:80 ~backlog:4 in
      let s, _ = l.accept () in
      s.send (recv_exact s size);
      check_str "eof" "" (s.recv 1);
      s.close ();
      l.close_listener ());
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 10);
      let s = api.connect ~node:0 { node = 1; port = 80 } in
      Sim.delay sim (Time.ms 1);
      let before = tx_busy () and start = Sim.now sim in
      let msg = String.make size 'e' in
      s.send msg;
      check_str "echo" msg (recv_exact s size);
      spent := tx_busy () - before;
      latency := Sim.now sim - start;
      s.close ());
  check_bool "quiescent" true (Uls_bench.Cluster.run c = `Quiescent);
  (!latency, !spent)

let test_send_charge_ring_vs_mailbox () =
  (* The server preset posts each send as one fixed-format ring slot:
     the send core pays the batched fetch of a single slot, whose format
     subsumes the per-message descriptor parse. The paper preset keeps
     the mailbox fetch and the parse. Both then pay one frame. *)
  let m = Uls_host.Cost_model.paper_testbed in
  let open Uls_host.Cost_model in
  check_int "server: one ring slot + one frame (4.6 us)"
    (m.nic_doorbell_batch + m.nic_ring_slot_fetch + m.nic_tx_per_frame)
    (snd (echo Opt.server));
  check_int "DS_DA_UQ: mailbox fetch + parse + one frame (9.0 us)"
    (m.nic_mailbox_fetch + m.nic_tx_per_msg + m.nic_tx_per_frame)
    (snd (echo ds))

(* The ring path's firmware overlaps three steps the paper firmware runs
   in series, once in each direction of the echo: the header build runs
   during the payload DMA (which, at 2.317 us for 256 bytes, outlasts
   it), the receive core's per-frame work runs during the payload DMA
   to the host, and the receive completion is posted before the ack is
   built. Each saves the shorter of the two steps it overlaps. The
   cores do the same work either way. *)
let test_ring_firmware_overlap () =
  let m = Uls_host.Cost_model.paper_testbed in
  let open Uls_host.Cost_model in
  let hashed = Uls_nic.Match_list.Hashed in
  (* A frame's chunk is the payload behind the 16-byte data header
     (sequence number and piggybacked credits). *)
  let dma bytes = dma_cost m (bytes + 16) in
  let rx_saved bytes = min m.nic_rx_per_frame (dma bytes) in
  let latency, tx = echo ~match_engine:hashed Opt.server in
  check_int
    "server 256 B: 66.978 us (serial) less 2 x (header + ack build + \
     per-frame rx work, which the DMA outlasts)"
    (66_978
    - (2 * (m.nic_tx_per_frame + m.nic_ack_gen))
    - (2 * m.nic_rx_per_frame))
    latency;
  check_int "server 256 B: 55.978 us" 55_978 latency;
  check_int "server 256 B: saves 2 x min (rx work, DMA)"
    (59_978 - (2 * rx_saved 256))
    latency;
  (* At 64 bytes the DMA (1.952 us) is the shorter step. *)
  let small = fst (echo ~match_engine:hashed ~size:64 Opt.server) in
  check_int "server 64 B: 51.778 us less 2 x the 1.952 us DMA"
    (51_778 - (2 * rx_saved 64))
    small;
  check_int "server 64 B: 47.874 us" 47_874 small;
  check_int "server: send core unchanged (4.6 us)"
    (m.nic_doorbell_batch + m.nic_ring_slot_fetch + m.nic_tx_per_frame)
    tx;
  check_int "DS_DA_UQ: serial firmware, unchanged (75.478 us)" 75_478
    (fst (echo ~match_engine:hashed ds))

(* A 64 KB datagram is a rendezvous message, and on the ring firmware
   it takes the rings like every other send: the server's grant, its
   reply's rendezvous request and the reply's payload are each one
   tx ring slot, so its send core pays no mailbox fetch or parse at
   all. The paper DG preset keeps three mailbox posts. *)
let test_rendezvous_on_the_rings () =
  let m = Uls_host.Cost_model.paper_testbed in
  let open Uls_host.Cost_model in
  let size = 65_536 in
  (* The payload's frames and the two control frames. *)
  let frames = Uls_emp.Wire.frames_for size + 2 in
  let send_core post = (3 * post) + (frames * m.nic_tx_per_frame) in
  let ring_latency, ring_tx = echo ~size (on_rings dg) in
  check_int "DG ring 64 KB: three ring slots (101.8 us)"
    (send_core (m.nic_doorbell_batch + m.nic_ring_slot_fetch))
    ring_tx;
  check_int "DG ring 64 KB echo: 1519.116 us" 1_519_116 ring_latency;
  let latency, tx = echo ~size dg in
  check_int "DG 64 KB: three mailbox posts (115.0 us)"
    (send_core (m.nic_mailbox_fetch + m.nic_tx_per_msg))
    tx;
  check_int "DG 64 KB echo: unchanged (1580.260 us)" 1_580_260 latency

let test_firmware_mismatch_refused () =
  (* A substrate never mixes firmware modes: options naming the other
     mode than its endpoint's are refused at creation, naming both. *)
  let c = Uls_bench.Cluster.create ~n:2 () in
  let node = Uls_bench.Cluster.node c in
  let paper = Uls_bench.Cluster.emp c 0
  and ring = Uls_bench.Cluster.emp ~firmware:E.Ring c 1 in
  Alcotest.check_raises "server preset over a Paper endpoint"
    (Invalid_argument "Substrate.create: a Paper endpoint under rx_ring = true")
    (fun () -> ignore (Sub.create ~opts:Opt.server (node 0) paper));
  Alcotest.check_raises "DS_DA_UQ over a Ring endpoint"
    (Invalid_argument "Substrate.create: a Ring endpoint under rx_ring = false")
    (fun () -> ignore (Sub.create ~opts:ds (node 1) ring))

let suites =
  [
    ( "substrate.connection",
      [
        Alcotest.test_case "connect+exchange" `Quick test_connect_exchange;
        Alcotest.test_case "refused" `Quick test_connection_refused;
        Alcotest.test_case "backlog order" `Quick test_backlog_queues_connections;
        Alcotest.test_case "bind in use" `Quick test_bind_in_use;
        Alcotest.test_case "set-up: one doorbell per side (server)" `Quick
          test_setup_one_doorbell_per_side;
        Alcotest.test_case "set-up: per-call under DS_DA_UQ" `Quick
          test_setup_per_call_under_paper_preset;
        Alcotest.test_case "set-up: fill ring beats per-call" `Quick
          test_setup_ring_is_faster;
        Alcotest.test_case "send: one ring slot (server) vs mailbox" `Quick
          test_send_charge_ring_vs_mailbox;
        Alcotest.test_case
          "ring firmware: header during DMA, rx work during DMA, completion \
           first"
          `Quick test_ring_firmware_overlap;
        Alcotest.test_case "rendezvous on the rings: 64 KB DG echo" `Quick
          test_rendezvous_on_the_rings;
        Alcotest.test_case "firmware mismatch is Invalid_argument" `Quick
          test_firmware_mismatch_refused;
      ] );
    ( "substrate.streaming",
      Alcotest.test_case "partial reads (5+5)" `Quick test_streaming_partial_reads
      :: Alcotest.test_case "coalesced reads" `Quick test_streaming_coalesced_reads
      :: Alcotest.test_case "1MB integrity" `Quick test_large_transfer_integrity_ds
      :: List.map QCheck_alcotest.to_alcotest [ prop_ds_stream_integrity ] );
    ( "substrate.datagram",
      Alcotest.test_case "boundaries" `Quick test_datagram_boundaries
      :: Alcotest.test_case "truncation" `Quick test_datagram_truncation
      :: rendezvous_cases "rendezvous large" test_rendezvous_large_datagram dg
      @ Alcotest.test_case "eager/rendezvous order" `Quick
          test_rendezvous_interleaves_with_eager_in_order
      :: List.map QCheck_alcotest.to_alcotest [ prop_dg_message_count ] );
    ( "substrate.flow_control",
      [
        Alcotest.test_case "credit exhaustion" `Quick
          test_credit_exhaustion_blocks_writer;
        Alcotest.test_case "crossing writes (eager)" `Quick
          test_eager_tolerates_crossing_writes;
      ]
      @ rendezvous_cases "Figure 7 deadlock (rendezvous)"
          test_rendezvous_deadlock_figure7 rz
      @ [
        Alcotest.test_case "UQ absorbs acks" `Quick
          test_uq_option_uses_unexpected_queue;
        Alcotest.test_case "piggyback" `Quick test_piggyback_reduces_messages;
        Alcotest.test_case "comm-thread scheme" `Quick test_comm_thread_scheme;
        Alcotest.test_case "comm-thread overload recovery" `Quick
          test_comm_thread_unresponsive_reader_recovers;
        Alcotest.test_case "blocking send" `Quick
          test_block_send_completes_and_costs_rtt;
      ] );
    ( "substrate.lifecycle",
      [
        Alcotest.test_case "descriptors reclaimed" `Quick
          test_close_reclaims_descriptors;
        Alcotest.test_case "close preserves tail" `Quick
          test_close_message_preserves_tail_data;
        Alcotest.test_case "send to closed peer" `Quick
          test_send_to_closed_peer_raises;
        Alcotest.test_case "dead close leaves no uq slot" `Quick
          test_dead_close_leaves_no_uq_slot;
        Alcotest.test_case "select" `Quick test_select_substrate;
        Alcotest.test_case "many interleaved connections" `Quick
          test_many_connections_interleaved;
        Alcotest.test_case "loss recovery" `Quick test_substrate_loss_recovery;
      ] );
    ( "substrate.regressions",
      rendezvous_cases "short rendezvous read keeps tail"
        test_rendezvous_short_read_keeps_tail rz
      @ [
        Alcotest.test_case "close_listener wakes acceptor" `Quick
          test_close_listener_wakes_acceptor;
      ]
      @ List.map
          (fun ((kind, _) as case) ->
            Alcotest.test_case
              ("undecodable " ^ Uls_substrate.Tags.kind_name kind
             ^ " is protocol error")
              `Quick
              (test_undecodable_is_protocol_error case))
          undecodable_kinds
      @ rendezvous_cases "peer close wakes all rendezvous writers"
          test_peer_close_wakes_all_rendezvous_writers rz
      @ rendezvous_cases "concurrent rendezvous writers"
          test_concurrent_rendezvous_writers_deliver_all rz
      @ [
        Alcotest.test_case "closed conns collectable (linear)" `Quick
          (test_closed_conns_collectable Uls_nic.Match_list.Linear);
        Alcotest.test_case "closed conns collectable (hashed)" `Quick
          (test_closed_conns_collectable Uls_nic.Match_list.Hashed);
      ] );
  ]
