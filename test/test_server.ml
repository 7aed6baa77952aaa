(* Tests for the event-driven server runtime: the Evq readiness engine's
   epoll semantics (against scripted fake sockets), the HTTP incremental
   parser, and deterministic end-to-end load runs over both stacks. *)

open Uls_engine
module Evq = Uls_server.Evq
module Sched = Uls_server.Sched
module Http = Uls_apps.Http
module Load = Uls_bench.Load

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* A scripted socket: [readable] reads a ref, [fire] invokes the
   installed watchers — the minimal contract Evq builds on. *)
type fake = {
  mutable f_readable : bool;
  mutable f_watchers : (unit -> unit) list;
}

let fake ?(readable = false) () = { f_readable = readable; f_watchers = [] }
let fire f = List.iter (fun w -> w ()) f.f_watchers

let register q ?mode f payload =
  Evq.register q ?mode
    ~readable:(fun () -> f.f_readable)
    ~watch:(fun w -> f.f_watchers <- w :: f.f_watchers)
    payload

(* --- Evq semantics ---------------------------------------------------- *)

let test_empty_interest_set () =
  let sim = Sim.create () in
  let q = Evq.create sim ~node:0 in
  let got = ref None in
  Sim.spawn sim (fun () -> got := Some (Evq.wait q));
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 10);
      Evq.kick q);
  ignore (Sim.run sim);
  check_bool "wait returned" true (!got <> None);
  check_int "kick returns empty batch" 0 (List.length (Option.get !got));
  check_int "nothing registered" 0 (Evq.registered q)

let test_register_already_readable () =
  let sim = Sim.create () in
  let q = Evq.create sim ~node:0 in
  let f = fake ~readable:true () in
  let batches = ref [] in
  Sim.spawn sim (fun () ->
      ignore (register q f "a");
      batches := Evq.wait q :: !batches);
  ignore (Sim.run sim);
  (* EPOLL_CTL_ADD on a readable fd delivers without any event. *)
  check_bool "delivered immediately" true (!batches = [ [ "a" ] ])

let test_level_redelivers_undrained () =
  let sim = Sim.create () in
  let q = Evq.create sim ~node:0 in
  let f = fake () in
  let batches = ref [] in
  Sim.spawn sim (fun () ->
      ignore (register q ~mode:Evq.Level f "a");
      f.f_readable <- true;
      fire f;
      (* Consumer never drains: level triggering must redeliver. *)
      batches := Evq.wait q :: !batches;
      batches := Evq.wait q :: !batches);
  ignore (Sim.run sim);
  check_bool "redelivered while readable" true
    (!batches = [ [ "a" ]; [ "a" ] ])

let test_edge_delivers_once () =
  let sim = Sim.create () in
  let q = Evq.create sim ~node:0 in
  let f = fake () in
  let batches = ref [] in
  Sim.spawn sim (fun () ->
      ignore (register q ~mode:Evq.Edge f "a");
      f.f_readable <- true;
      fire f;
      batches := Evq.wait q :: !batches;
      (* Still readable but no new event: edge must NOT redeliver. *)
      batches := Evq.wait q :: !batches);
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.ms 1);
      Evq.kick q);
  ignore (Sim.run sim);
  check_bool "one delivery then the kick's empty batch" true
    (!batches = [ []; [ "a" ] ])

let test_edge_rearm_after_partial_drain () =
  let sim = Sim.create () in
  let q = Evq.create sim ~node:0 in
  let f = fake () in
  let batches = ref [] in
  Sim.spawn sim (fun () ->
      let h = register q ~mode:Evq.Edge f "a" in
      f.f_readable <- true;
      fire f;
      batches := Evq.wait q :: !batches;
      (* The consumer stopped mid-drain (socket still readable) and
         knows it: rearm recovers the remaining buffered data. *)
      Evq.rearm h;
      batches := Evq.wait q :: !batches);
  ignore (Sim.run sim);
  check_bool "rearm redelivered" true (!batches = [ [ "a" ]; [ "a" ] ])

let test_modify_edge_to_level_recovers () =
  let sim = Sim.create () in
  let q = Evq.create sim ~node:0 in
  let f = fake () in
  let batches = ref [] in
  Sim.spawn sim (fun () ->
      let h = register q ~mode:Evq.Edge f "a" in
      f.f_readable <- true;
      fire f;
      batches := Evq.wait q :: !batches;
      Evq.modify h Evq.Level;
      batches := Evq.wait q :: !batches);
  ignore (Sim.run sim);
  check_bool "switch to level re-checks readiness" true
    (!batches = [ [ "a" ]; [ "a" ] ])

let test_deregister_while_ready () =
  let sim = Sim.create () in
  let q = Evq.create sim ~node:0 in
  let f = fake () in
  let g = fake () in
  let batches = ref [] in
  Sim.spawn sim (fun () ->
      let h = register q f "dead" in
      ignore (register q g "live");
      f.f_readable <- true;
      fire f;
      g.f_readable <- true;
      fire g;
      (* "dead" is queued; deregistering now must discard it. *)
      Evq.deregister h;
      Evq.deregister h (* idempotent *);
      batches := Evq.wait q :: !batches);
  ignore (Sim.run sim);
  check_bool "queued handle discarded" true (!batches = [ [ "live" ] ]);
  check_int "registration count" 1 (Evq.registered q)

let test_level_spurious_counted () =
  let sim = Sim.create () in
  let q = Evq.create sim ~node:0 in
  let f = fake () in
  let g = fake () in
  let batches = ref [] in
  Sim.spawn sim (fun () ->
      ignore (register q ~mode:Evq.Level f "gone");
      ignore (register q g "live");
      f.f_readable <- true;
      fire f;
      g.f_readable <- true;
      fire g;
      (* Drained by someone else before delivery: the epoll spurious
         wake-up. *)
      f.f_readable <- false;
      batches := Evq.wait q :: !batches);
  ignore (Sim.run sim);
  check_bool "only live handle delivered" true (!batches = [ [ "live" ] ]);
  check_int "spurious counted" 1
    (Metrics.counter_value (Metrics.for_sim sim) ~node:0 "server.evq.spurious")

let test_batch_order_oldest_first () =
  let sim = Sim.create () in
  let q = Evq.create sim ~node:0 in
  let fs = Array.init 3 (fun _ -> fake ()) in
  let batches = ref [] in
  Sim.spawn sim (fun () ->
      Array.iteri (fun i f -> ignore (register q f i)) fs;
      Array.iter
        (fun f ->
          f.f_readable <- true;
          fire f)
        fs;
      batches := Evq.wait q :: !batches);
  ignore (Sim.run sim);
  check_bool "one batch, event order" true (!batches = [ [ 0; 1; 2 ] ])

(* --- readiness from the real stacks ----------------------------------- *)

(* A peer-closed stream must become readable (EOF is a read event —
   level-triggered epoll reports it until consumed), and the watcher
   must fire for it. *)
let readiness_on_peer_close api c =
  let sim = Uls_bench.Cluster.sim c in
  let q = Evq.create sim ~node:0 in
  let eof = ref None in
  Sim.spawn sim (fun () ->
      (* listen posts descriptors, so it must run inside a fiber *)
      let l = api.Uls_api.Sockets_api.listen ~node:0 ~port:80 ~backlog:4 in
      let s, _ = l.accept () in
      ignore
        (Evq.register q ~readable:s.readable ~watch:s.watch ());
      (match Evq.wait q with
      | [ () ] -> eof := Some (s.recv 4096)
      | _ -> ());
      l.close_listener ());
  Sim.spawn sim (fun () ->
      let s = api.connect ~node:1 { node = 0; port = 80 } in
      Sim.delay sim (Time.ms 1);
      s.close ());
  ignore (Uls_bench.Cluster.run c);
  check_bool "watcher fired on peer close" true (!eof <> None);
  check_str "recv returned EOF" "" (Option.get !eof)

let test_peer_close_readiness_sub () =
  let c = Uls_bench.Cluster.create ~n:2 () in
  readiness_on_peer_close
    (Uls_bench.Cluster.substrate_api ~opts:Uls_substrate.Options.server c)
    c

let test_peer_close_readiness_tcp () =
  let c = Uls_bench.Cluster.create ~n:2 () in
  readiness_on_peer_close (Uls_bench.Cluster.tcp_api c) c

(* --- scheduler --------------------------------------------------------- *)

(* Fairness under a hot neighbor: one worker, one connection with far
   more traffic than the rest. One-chunk-per-dispatch with tail requeue
   must keep serving the quiet connections throughout. *)
let test_scheduler_fairness_hot_neighbor () =
  let c = Uls_bench.Cluster.create ~n:2 () in
  let sim = Uls_bench.Cluster.sim c in
  let api =
    Uls_bench.Cluster.substrate_api ~opts:Uls_substrate.Options.server c
  in
  let server = ref None in
  Sim.spawn sim (fun () ->
      server :=
        Some
          (Uls_server.Server.start sim api ~node:0 ~port:80 ~backlog:8
             ~config:{ Sched.default_config with workers = 1 }
             Uls_server.Server.Echo));
  let hot_done = ref 0 and quiet_done = ref 0 in
  let request s payload =
    s.Uls_api.Sockets_api.send payload;
    Uls_api.Sockets_api.recv_exact s (String.length payload)
  in
  Sim.spawn sim (fun () ->
      let s = api.connect ~node:1 { node = 0; port = 80 } in
      for _ = 1 to 50 do
        ignore (request s (String.make 256 'h'));
        incr hot_done
      done;
      s.close ());
  for i = 1 to 4 do
    Sim.spawn sim (fun () ->
        Sim.delay sim (Time.ms i);
        let s = api.connect ~node:1 { node = 0; port = 80 } in
        for _ = 1 to 5 do
          ignore (request s (String.make 64 'q'));
          incr quiet_done
        done;
        s.close ())
  done;
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.s 30);
      match !server with Some s -> Uls_server.Server.stop s | None -> ());
  ignore (Uls_bench.Cluster.run ~until:(Time.s 40) c);
  check_int "hot connection served" 50 !hot_done;
  check_int "quiet connections served despite hot neighbor" 20 !quiet_done

let test_scheduler_admission_control () =
  let c = Uls_bench.Cluster.create ~n:2 () in
  let sim = Uls_bench.Cluster.sim c in
  let api =
    Uls_bench.Cluster.substrate_api ~opts:Uls_substrate.Options.server c
  in
  let server = ref None in
  Sim.spawn sim (fun () ->
      server :=
        Some
          (Uls_server.Server.start sim api ~node:0 ~port:80 ~backlog:16
             ~config:
               {
                 Sched.default_config with
                 max_inflight = 2;
                 reject = Some Uls_server.Server.http_reject;
               }
             (Uls_server.Server.Http 64)));
  let admitted = ref 0 and rejected = ref 0 in
  for i = 0 to 5 do
    Sim.spawn sim (fun () ->
        (* Near-simultaneous arrivals, so the first two hold the
           inflight budget while the rest hit the shed path. *)
        Sim.delay sim (Time.us (10 * i));
        let s = api.connect ~node:1 { node = 0; port = 80 } in
        let p = Http.Response_parser.create () in
        let rec first () =
          match Http.Response_parser.feed p (s.recv 4096) with
          | r :: _ -> r
          | [] -> first ()
        in
        (try
           s.send
             (Http.format_request
                {
                  Http.meth = "GET";
                  path = "/";
                  version = "HTTP/1.1";
                  req_headers = [];
                  req_body = "";
                });
           match (first ()).Http.status with
           | 503 -> incr rejected
           | 200 -> incr admitted
           | _ -> ()
         with _ ->
           (* sending into the shed conn's close can race: that is
              still an explicit refusal, not silence *)
           incr rejected);
        s.close ())
  done;
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.s 10);
      match !server with Some s -> Uls_server.Server.stop s | None -> ());
  ignore (Uls_bench.Cluster.run ~until:(Time.s 20) c);
  check_int "all connections answered" 6 (!admitted + !rejected);
  check_bool "admission control shed some" true (!rejected > 0);
  check_bool "admission control admitted some" true (!admitted > 0)

(* --- embryo timer ------------------------------------------------------- *)

(* A scheduler on node 0 whose listener records, per accepted stream,
   the virtual instants of accept and of the server's close. *)
let embryo_rig ~timeout =
  let c = Uls_bench.Cluster.create ~n:2 () in
  let sim = Uls_bench.Cluster.sim c in
  let api =
    Uls_bench.Cluster.substrate_api ~opts:Uls_substrate.Options.server c
  in
  let accepted_at = ref [] and closed_at = ref [] in
  let sched = ref None in
  Sim.spawn sim (fun () ->
      let l = api.listen ~node:0 ~port:80 ~backlog:8 in
      let observe (s, peer) =
        accepted_at := Sim.now sim :: !accepted_at;
        let close () =
          closed_at := Sim.now sim :: !closed_at;
          s.Uls_api.Sockets_api.close ()
        in
        ({ s with Uls_api.Sockets_api.close }, peer)
      in
      let listener =
        {
          l with
          Uls_api.Sockets_api.try_accept =
            (fun () -> Option.map observe (l.try_accept ()));
        }
      in
      sched :=
        Some
          (Sched.start sim ~node:0
             ~config:{ Sched.default_config with embryo_timeout = timeout }
             ~listener
             ~handler:(fun _ data -> { Sched.replies = [ data ]; close = false })
             ()));
  let embryo_closed () =
    Metrics.counter_value (Metrics.for_sim sim) ~node:0
      "server.sched.embryo_closed"
  in
  (c, sim, api, sched, accepted_at, closed_at, embryo_closed)

let test_embryo_timer_closes_silent_conn () =
  let timeout = Time.ms 5 in
  let c, sim, api, sched, accepted_at, closed_at, embryo_closed =
    embryo_rig ~timeout
  in
  let eof = ref false in
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 10);
      let s = api.connect ~node:1 { node = 0; port = 80 } in
      (* Never write: the server must give up on us by itself. *)
      eof := s.recv 16 = "";
      s.close ());
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.ms 50);
      Option.iter Sched.stop !sched);
  ignore (Uls_bench.Cluster.run ~until:(Time.s 1) c);
  (match (!accepted_at, !closed_at) with
  | [ a ], z :: _ ->
    check_int "closed exactly embryo_timeout after accept" timeout
      (List.fold_left min z !closed_at - a)
  | _ -> Alcotest.fail "expected one accepted and a closed connection");
  check_int "counted as an embryo close" 1 (embryo_closed ());
  check_bool "client saw end of stream" true !eof

let test_embryo_timer_spares_conn_that_spoke () =
  let timeout = Time.ms 5 in
  let c, sim, api, sched, accepted_at, closed_at, embryo_closed =
    embryo_rig ~timeout
  in
  let echoed = ref "" and open_after_timeout = ref false in
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.us 10);
      let s = api.connect ~node:1 { node = 0; port = 80 } in
      s.send "x";
      echoed := s.recv 16;
      (* Idle well past the timeout: the timer must stay quiet. *)
      Sim.delay sim (4 * timeout);
      open_after_timeout := !closed_at = [];
      s.close ());
  Sim.spawn sim (fun () ->
      Sim.delay sim (Time.ms 50);
      Option.iter Sched.stop !sched);
  ignore (Uls_bench.Cluster.run ~until:(Time.s 1) c);
  check_str "echoed" "x" !echoed;
  check_int "one accept" 1 (List.length !accepted_at);
  check_bool "still open after the timeout" true !open_after_timeout;
  check_int "no embryo close" 0 (embryo_closed ())

(* --- HTTP incremental parsing ------------------------------------------ *)

let req ?(version = "HTTP/1.1") ?(headers = []) ?(body = "") path =
  Http.format_request
    {
      Http.meth = "GET";
      path;
      version;
      req_headers = headers;
      req_body = body;
    }

let test_parser_byte_by_byte () =
  let p = Http.Parser.create () in
  let wire = req ~body:"hello body" "/x" in
  let got = ref [] in
  String.iter
    (fun ch -> got := !got @ Http.Parser.feed p (String.make 1 ch))
    wire;
  match !got with
  | [ r ] ->
    check_str "path" "/x" r.Http.path;
    check_str "body survived short reads" "hello body" r.Http.req_body;
    check_int "nothing buffered" 0 (Http.Parser.buffered p)
  | rs -> Alcotest.failf "expected 1 request, got %d" (List.length rs)

let test_parser_pipelined_single_feed () =
  let p = Http.Parser.create () in
  let wire = req "/a" ^ req ~body:"b" "/b" ^ req "/c" in
  let rs = Http.Parser.feed p wire in
  check_int "three pipelined requests" 3 (List.length rs);
  check_bool "paths in order" true
    (List.map (fun r -> r.Http.path) rs = [ "/a"; "/b"; "/c" ])

let test_parser_split_across_body () =
  let p = Http.Parser.create () in
  let wire = req ~body:"0123456789" "/split" in
  let cut = String.length wire - 4 in
  check_int "incomplete: nothing yet" 0
    (List.length (Http.Parser.feed p (String.sub wire 0 cut)));
  match Http.Parser.feed p (String.sub wire cut 4) with
  | [ r ] -> check_str "body reassembled" "0123456789" r.Http.req_body
  | rs -> Alcotest.failf "expected 1 request, got %d" (List.length rs)

let test_keep_alive_rules () =
  let mk version headers =
    match Http.Parser.feed (Http.Parser.create ()) (req ~version ~headers "/") with
    | [ r ] -> r
    | _ -> Alcotest.fail "parse failed"
  in
  check_bool "1.1 default on" true (Http.keep_alive (mk "HTTP/1.1" []));
  check_bool "1.1 close off" false
    (Http.keep_alive (mk "HTTP/1.1" [ ("connection", "close") ]));
  check_bool "1.0 default off" false (Http.keep_alive (mk "HTTP/1.0" []));
  check_bool "1.0 keep-alive on" true
    (Http.keep_alive (mk "HTTP/1.0" [ ("connection", "keep-alive") ]))

let test_parser_bad_framing () =
  let bad wire =
    try
      ignore (Http.Parser.feed (Http.Parser.create ()) wire);
      false
    with Http.Bad_request _ -> true
  in
  check_bool "garbage start line" true (bad "not an http request\r\n\r\n");
  check_bool "bad content-length" true
    (bad "GET / HTTP/1.1\r\ncontent-length: banana\r\n\r\n")

let test_parser_header_cap () =
  let p = Http.Parser.create ~max_header_bytes:64 () in
  check_bool "oversized headers rejected" true
    (try
       ignore (Http.Parser.feed p ("GET /" ^ String.make 100 'a' ^ " HT"));
       false
     with Http.Bad_request _ -> true)

let test_response_roundtrip () =
  let body = Http.body_for ~size:300 in
  let wire =
    Http.format_response
      {
        Http.status = 200;
        reason = "OK";
        resp_version = "HTTP/1.1";
        resp_headers = [ ("connection", "keep-alive") ];
        resp_body = body;
      }
  in
  let p = Http.Response_parser.create () in
  let half = String.length wire / 2 in
  let first = Http.Response_parser.feed p (String.sub wire 0 half) in
  let second =
    Http.Response_parser.feed p
      (String.sub wire half (String.length wire - half))
  in
  match first @ second with
  | [ r ] ->
    check_int "status" 200 r.Http.status;
    check_str "body" body r.Http.resp_body;
    check_bool "content-length set" true
      (Http.header r.Http.resp_headers "content-length" = Some "300")
  | _ -> Alcotest.fail "expected exactly one response"

(* --- end-to-end load runs ---------------------------------------------- *)

let small_cfg kind workload =
  {
    Load.default with
    kind;
    workload;
    conns = 16;
    requests_per_conn = 2;
    size = 128;
    client_nodes = 2;
    backlog = 16;
  }

let check_clean label (r : Load.report) =
  check_bool (label ^ " quiesced") true r.completed_run;
  check_bool (label ^ " intact") true r.intact;
  check_int (label ^ " completed") 32 r.completed;
  check_int (label ^ " peak open") 16 r.peak_open;
  check_int (label ^ " server agrees") 32 r.server_requests

let test_load_echo_substrate_deterministic () =
  let cfg =
    small_cfg (`Sub Uls_substrate.Options.server) Load.Echo
  in
  let a = Load.run cfg in
  let b = Load.run cfg in
  check_clean "echo/sub" a;
  check_bool "deterministic report" true (a = b)

let test_load_http_tcp_deterministic () =
  let cfg = small_cfg (`Tcp Uls_tcp.Config.default) Load.Http in
  let a = Load.run cfg in
  let b = Load.run cfg in
  check_clean "http/tcp" a;
  check_bool "deterministic report" true (a = b)

let test_load_open_loop () =
  let cfg =
    {
      (small_cfg (`Sub Uls_substrate.Options.server) Load.Echo) with
      arrival = Load.Pool 20_000.;
    }
  in
  let r = Load.run cfg in
  check_bool "open loop quiesced" true r.completed_run;
  check_bool "open loop intact" true r.intact;
  check_int "open loop completed" 32 r.completed

(* The event engine's core claim: wake-ups track events, not registered
   sockets — and the server path never touches the O(n) select scan. *)
let test_evq_wakeups_scale_with_events () =
  let r =
    Load.run (small_cfg (`Sub Uls_substrate.Options.server) Load.Echo)
  in
  check_bool "no select scans on the event-driven path" true
    (r.select_streams_scanned = 0);
  (* 16 conns x (1 accept + 2 requests + 1 eof) events, plus credit/ack
     noise: anything within a small constant factor is O(events); a
     per-wakeup scan of all 16 conns would be an order of magnitude up. *)
  check_bool
    (Printf.sprintf "wakeups bounded by events (%d)" r.evq_wakeups)
    true
    (r.evq_wakeups > 0 && r.evq_wakeups <= 16 * 4 * 4)

(* A run in which no connection was ever established offered requests
   that never reached the wire: it must fail, closed loop or pool. *)
let test_load_all_refused_fails () =
  List.iter
    (fun (label, kind, arrival) ->
      let r =
        Load.run
          { (small_cfg kind Load.Echo) with arrival; loss = 1.0 }
      in
      check_bool (label ^ " quiesced") true r.completed_run;
      check_int (label ^ " refused") 16 r.refused;
      check_int (label ^ " sent") 0 r.sent;
      check_bool (label ^ " not intact") false r.intact)
    [
      ("closed/sub", `Sub Uls_substrate.Options.server, Load.Closed);
      ("closed/tcp", `Tcp Uls_tcp.Config.default, Load.Closed);
      ("pool/sub", `Sub Uls_substrate.Options.server, Load.Pool 20_000.);
    ]

(* Over the substrate the server's admission-control close reaches the
   client before its first send, so the shed surfaces at the send: still
   a shed, not an error. *)
let test_load_sheds_over_substrate () =
  let r =
    Load.run
      {
        Load.default with
        kind = `Sub Uls_substrate.Options.server;
        conns = 64;
        requests_per_conn = 2;
        max_inflight = 8;
      }
  in
  check_bool "quiesced" true r.completed_run;
  check_bool "shed > 0" true (r.shed > 0);
  check_int "errors" 0 (r.errors + r.resets);
  check_int "every request completed or shed" 128 (r.completed + (2 * r.shed));
  check_bool "intact" true r.intact

(* Session arrivals against one server: topology and arrival are
   independent fields of the spec. *)
let test_load_sessions_one_server () =
  let cfg =
    {
      (small_cfg (`Sub Uls_substrate.Options.server) Load.Echo) with
      arrival = Load.Sessions 20_000.;
      conns = 48;
      requests_per_conn = 3;
    }
  in
  let a = Load.run cfg in
  let b = Load.run cfg in
  check_bool "quiesced" true a.completed_run;
  check_bool "intact" true a.intact;
  check_bool "deterministic report" true (a = b);
  check_int "one cell" 1 (Array.length a.per_cell);
  let c = a.per_cell.(0) in
  check_int "established" 48 a.established;
  check_int "cell connects" 48 c.c_connects;
  check_int "completed" 144 a.completed;
  check_int "cell completed" 144 c.c_completed;
  check_int "server agrees" 144 c.c_server_requests;
  check_int "server accepted" 48 c.c_accepted

let suites =
  [
    ( "server.evq",
      [
        Alcotest.test_case "empty interest set" `Quick test_empty_interest_set;
        Alcotest.test_case "register already-readable" `Quick
          test_register_already_readable;
        Alcotest.test_case "level redelivers undrained" `Quick
          test_level_redelivers_undrained;
        Alcotest.test_case "edge delivers once" `Quick test_edge_delivers_once;
        Alcotest.test_case "edge rearm after partial drain" `Quick
          test_edge_rearm_after_partial_drain;
        Alcotest.test_case "modify edge->level recovers" `Quick
          test_modify_edge_to_level_recovers;
        Alcotest.test_case "deregister while ready" `Quick
          test_deregister_while_ready;
        Alcotest.test_case "level spurious counted" `Quick
          test_level_spurious_counted;
        Alcotest.test_case "batch order oldest first" `Quick
          test_batch_order_oldest_first;
        Alcotest.test_case "peer-close readiness (substrate)" `Quick
          test_peer_close_readiness_sub;
        Alcotest.test_case "peer-close readiness (tcp)" `Quick
          test_peer_close_readiness_tcp;
      ] );
    ( "server.sched",
      [
        Alcotest.test_case "fairness under hot neighbor" `Quick
          test_scheduler_fairness_hot_neighbor;
        Alcotest.test_case "embryo timer closes a silent conn" `Quick
          test_embryo_timer_closes_silent_conn;
        Alcotest.test_case "embryo timer spares a conn that spoke" `Quick
          test_embryo_timer_spares_conn_that_spoke;
        Alcotest.test_case "admission control sheds" `Quick
          test_scheduler_admission_control;
      ] );
    ( "server.http",
      [
        Alcotest.test_case "byte-by-byte feeds" `Quick test_parser_byte_by_byte;
        Alcotest.test_case "pipelined single feed" `Quick
          test_parser_pipelined_single_feed;
        Alcotest.test_case "split across body" `Quick
          test_parser_split_across_body;
        Alcotest.test_case "keep-alive rules" `Quick test_keep_alive_rules;
        Alcotest.test_case "bad framing" `Quick test_parser_bad_framing;
        Alcotest.test_case "header cap" `Quick test_parser_header_cap;
        Alcotest.test_case "response roundtrip" `Quick test_response_roundtrip;
      ] );
    ( "server.load",
      [
        Alcotest.test_case "echo over substrate, deterministic" `Quick
          test_load_echo_substrate_deterministic;
        Alcotest.test_case "http over tcp, deterministic" `Quick
          test_load_http_tcp_deterministic;
        Alcotest.test_case "open loop" `Quick test_load_open_loop;
        Alcotest.test_case "evq wakeups scale with events" `Quick
          test_evq_wakeups_scale_with_events;
        Alcotest.test_case "every connection refused fails" `Quick
          test_load_all_refused_fails;
        Alcotest.test_case "admission shedding over the substrate" `Quick
          test_load_sheds_over_substrate;
        Alcotest.test_case "session arrivals against one server" `Quick
          test_load_sessions_one_server;
      ] );
  ]
