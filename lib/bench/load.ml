(** Load generator: open- and closed-loop client fleets against the
    {!Uls_server} runtime. See the .mli for the driving disciplines. *)

open Uls_engine
module Api = Uls_api.Sockets_api
module Http = Uls_apps.Http
module Server = Uls_server.Server
module Sched = Uls_server.Sched

type workload = Echo | Http

type loop_mode = Closed | Open of float

type config = {
  kind : Cluster.stream;
  workload : workload;
  loop : loop_mode;
  conns : int;
  requests_per_conn : int;
  size : int;
  think : float;
  seed : int;
  loss : float;
  client_nodes : int;
  backlog : int;
  sched : Sched.config option;
  match_engine : Uls_nic.Match_list.engine;
  event_sched : [ `Heap | `Wheel ];
}

let default =
  {
    kind = `Sub Uls_substrate.Options.server;
    workload = Echo;
    loop = Closed;
    conns = 64;
    requests_per_conn = 8;
    size = 512;
    think = 0.;
    seed = 42;
    loss = 0.;
    client_nodes = 2;
    backlog = 256;
    sched = None;
    match_engine = Uls_nic.Match_list.Hashed;
    event_sched = `Wheel;
  }

type report = {
  sent : int;
  completed : int;
  errors : int;
  shed : int;  (* admission-control rejects: explicit 503 or a close
                  before the first response — the server declining
                  work, not failing it *)
  refused : int;  (* connect-level refusals/timeouts: no connection
                     was ever established *)
  mismatches : int;
  peak_open : int;
  lat : Latency.summary;
  intact : bool;
  completed_run : bool;
  events : int;
  server_requests : int;
  evq_wakeups : int;
  evq_spurious : int;
  select_streams_scanned : int;
}

(* Patterned echo payload, a function of (connection, sequence, size):
   a response delivered to the wrong request — or truncated, shifted or
   duplicated — never verifies. *)
let echo_payload ~conn ~seq ~size =
  String.init size (fun i ->
      Char.chr (0x21 + ((i * 7) + (conn * 31) + (seq * 131) + size) mod 94))

(* Virtual-time liveness bound, scaled with fleet size: the EMP match
   walk is O(posted descriptors), so big fleets are legitimately slow
   in virtual time; only a hang should trip the bound. *)
let liveness_bound ~conns = Time.s 60 + (conns * Time.ms 250)

(* A shed echo connection is closed before its first response; an HTTP
   one gets an explicit 503. Either way: shed, not an error. *)
exception Refused_by_server

let run ?on_metrics ?progress cfg =
  let c =
    Cluster.create ~match_engine:cfg.match_engine ~sched:cfg.event_sched
      ~n:(1 + cfg.client_nodes) ()
  in
  let sim = Cluster.sim c in
  let api = Cluster.api c cfg.kind in
  if cfg.loss > 0. then
    Fault.set_default_plan
      (Cluster.fault ~seed:cfg.seed c)
      (Fault.uniform_loss cfg.loss);
  let rngs =
    let root = Rng.create ~seed:cfg.seed in
    Array.init (max 1 cfg.conns) (fun _ -> Rng.split root)
  in
  let lat = Latency.create () in
  let sent = ref 0 and completed = ref 0 in
  let errors = ref 0 and shed = ref 0 and refused = ref 0 in
  let mismatches = ref 0 in
  let open_now = ref 0 and peak_open = ref 0 in
  let srv = ref None in
  Sim.spawn sim ~name:"load-server" (fun () ->
      let workload =
        match cfg.workload with
        | Echo -> Server.Echo
        | Http -> Server.Http cfg.size
      in
      srv :=
        Some
          (Server.start sim api ~node:0 ~port:80 ~backlog:cfg.backlog
             ?config:cfg.sched workload));
  (* Fleet-wide synchronisation: [arrived] counts finished connect
     attempts (success or failure); closed-loop connections hold until
     everyone arrived, so [peak_open] proves simultaneous liveness. *)
  let arrived = ref 0 and finished = ref 0 in
  let arrived_c = Cond.create ~label:"load:arrived" sim
  and finished_c = Cond.create ~label:"load:finished" sim in
  let record_latency t0 =
    Latency.completed lat ~t0 ~now:(Sim.now sim);
    incr completed;
    match progress with
    | Some (every, f) when !completed mod every = 0 -> f ()
    | _ -> ()
  in
  let send_mark s data =
    Latency.sent lat ~now:(Sim.now sim);
    incr sent;
    s.Api.send data
  in
  (* One exchange, latency accounted from [t0] (send time in closed
     loop, arrival time in open loop). Raises on failure. *)
  let echo_exchange ~conn ~done_here ~t0 s seq =
    let payload = echo_payload ~conn ~seq ~size:cfg.size in
    send_mark s payload;
    let got =
      try Api.recv_exact s cfg.size
      with Api.Connection_closed when !done_here = 0 -> raise Refused_by_server
    in
    if got <> payload then incr mismatches;
    record_latency t0;
    incr done_here
  in
  let http_exchange ~done_here ~t0 s parser resp_backlog ~last =
    send_mark s
      (Http.format_request
         {
           Http.meth = "GET";
           path = Printf.sprintf "/b/%d" cfg.size;
           version = "HTTP/1.1";
           req_headers =
             [ ("connection", if last then "close" else "keep-alive") ];
           req_body = "";
         });
    let rec next () =
      match !resp_backlog with
      | r :: rest ->
        resp_backlog := rest;
        r
      | [] ->
        let data = s.Api.recv 65_536 in
        if data = "" then
          if !done_here = 0 then raise Refused_by_server
          else raise Api.Connection_closed
        else begin
          resp_backlog := Http.Response_parser.feed parser data;
          next ()
        end
    in
    let resp = next () in
    if resp.Http.status = 503 then raise Refused_by_server;
    if resp.Http.resp_body <> Http.body_for ~size:cfg.size then incr mismatches;
    record_latency t0;
    incr done_here
  in
  let exchange ~conn ~done_here ~t0 s parser resp_backlog ~seq ~last =
    match cfg.workload with
    | Echo -> echo_exchange ~conn ~done_here ~t0 s seq
    | Http -> http_exchange ~done_here ~t0 s parser resp_backlog ~last
  in
  let client_node conn = 1 + (conn mod cfg.client_nodes) in
  (* Seeded connect ramp, ~150 us between connects fleet-wide: the
     server node's kernel CPU spends ~55 us per TCP handshake (SYN
     processing plus accept), so faster global ramps overrun it, delay
     SYN-ACKs past the connect retry horizon, and collapse the fleet. *)
  let connect_delay conn rng =
    Time.ms 1 + (conn * Time.us 150) + Rng.int rng (Time.us 100)
  in
  let fleet_connected () = !arrived >= cfg.conns in
  let arrive () =
    incr arrived;
    if !arrived >= cfg.conns then Cond.broadcast arrived_c
  in
  let finish () =
    incr finished;
    Cond.broadcast finished_c
  in
  let connect_tracked conn rng =
    Sim.delay sim (connect_delay conn rng);
    match api.Api.connect ~node:(client_node conn) { node = 0; port = 80 } with
    | s ->
      arrive ();
      incr open_now;
      if !open_now > !peak_open then peak_open := !open_now;
      Some s
    | exception (Api.Connection_refused _ | Api.Connection_timeout _) ->
      (* connect-level: the server (or its node) never took the flow *)
      arrive ();
      incr refused;
      None
    | exception _ ->
      arrive ();
      incr errors;
      None
  in
  let close_tracked s =
    (try s.Api.close () with _ -> ());
    decr open_now
  in
  (match cfg.loop with
  | Closed ->
    for conn = 0 to cfg.conns - 1 do
      let rng = rngs.(conn) in
      Sim.spawn sim ~name:(Printf.sprintf "load-conn-%d" conn) (fun () ->
          (match connect_tracked conn rng with
          | None -> ()
          | Some s ->
            (* Connect-then-measure barrier: requests start only once
               the whole fleet is up, so handshakes never compete with
               request traffic for client CPU — and peak_open witnesses
               every connection simultaneously alive. *)
            Cond.wait_until arrived_c fleet_connected;
            (* Desynchronise the first send: a single-instant burst of
               [conns] requests is a worst-case incast that no backoff
               policy should be forced to absorb from a cold start. *)
            Sim.delay sim (Rng.int rng (Time.us (20 * cfg.conns)));
            let done_here = ref 0 in
            let parser = Http.Response_parser.create () in
            let resp_backlog = ref [] in
            (try
               for seq = 0 to cfg.requests_per_conn - 1 do
                 exchange ~conn ~done_here ~t0:(Sim.now sim) s parser
                   resp_backlog ~seq
                   ~last:(seq = cfg.requests_per_conn - 1);
                 if cfg.think > 0. then
                   Sim.delay sim
                     (int_of_float (Rng.exponential rng ~mean:cfg.think))
               done
             with
            | Refused_by_server -> incr shed
            | _ -> incr errors);
            close_tracked s);
          finish ())
    done
  | Open rate ->
    let total = cfg.conns * cfg.requests_per_conn in
    let jobs : Time.ns option Mailbox.t =
      Mailbox.create ~label:"load:open-arrivals" sim
    in
    let arrival_rng = Rng.create ~seed:(cfg.seed lxor 0x0a51f00d) in
    Sim.spawn sim ~name:"load-arrivals" (fun () ->
        (* arrivals start once the pool actually exists *)
        Cond.wait_until arrived_c fleet_connected;
        let mean_gap = 1e9 /. rate in
        for _ = 1 to total do
          Sim.delay sim
            (int_of_float (Rng.exponential arrival_rng ~mean:mean_gap));
          Mailbox.send jobs (Some (Sim.now sim))
        done;
        for _ = 1 to cfg.conns do
          Mailbox.send jobs None
        done);
    for conn = 0 to cfg.conns - 1 do
      let rng = rngs.(conn) in
      Sim.spawn sim ~name:(Printf.sprintf "load-conn-%d" conn) (fun () ->
          (match connect_tracked conn rng with
          | None -> ()
          | Some s ->
            Cond.wait_until arrived_c fleet_connected;
            let done_here = ref 0 in
            let parser = Http.Response_parser.create () in
            let resp_backlog = ref [] in
            let rec serve () =
              match Mailbox.recv jobs with
              | None -> ()
              | Some t_arrival ->
                let ok =
                  try
                    exchange ~conn ~done_here ~t0:t_arrival s parser
                      resp_backlog ~seq:!done_here ~last:false;
                    true
                  with
                  | Refused_by_server ->
                    incr shed;
                    false
                  | _ ->
                    incr errors;
                    false
                in
                if ok then serve ()
            in
            serve ();
            close_tracked s);
          finish ())
    done);
  (* Janitor: once every client fiber is done, stop the server so the
     run ends with nothing registered and the listener closed. *)
  Sim.spawn sim ~name:"load-janitor" (fun () ->
      Cond.wait_until finished_c (fun () -> !finished >= cfg.conns);
      match !srv with Some server -> Server.stop server | None -> ());
  let outcome = Cluster.run ~until:(liveness_bound ~conns:cfg.conns) c in
  let m = Metrics.for_sim sim in
  (match on_metrics with Some f -> f m | None -> ());
  {
    sent = !sent;
    completed = !completed;
    errors = !errors;
    shed = !shed;
    refused = !refused;
    mismatches = !mismatches;
    peak_open = !peak_open;
    lat = Latency.summary lat;
    intact = !mismatches = 0 && !errors = 0 && !completed + !shed >= !sent;
    completed_run = outcome = `Quiescent;
    events = Sim.events_executed sim;
    server_requests = (match !srv with Some s -> Server.requests s | None -> 0);
    evq_wakeups = Metrics.counter_value m ~node:0 "server.evq.wakeups";
    evq_spurious = Metrics.counter_value m ~node:0 "server.evq.spurious";
    select_streams_scanned =
      Metrics.counter_value m ~node:0 "api.select_streams_scanned";
  }

let workload_name = function Echo -> "echo" | Http -> "http"

let loop_name = function
  | Closed -> "closed"
  | Open r -> Printf.sprintf "open@%.0f/s" r

let print_report fmt cfg r =
  Format.fprintf fmt "%s %s %s: conns=%d size=%dB requests=%d@."
    (Cluster.stack_name cfg.kind) (workload_name cfg.workload)
    (loop_name cfg.loop) cfg.conns cfg.size
    (cfg.conns * cfg.requests_per_conn);
  Format.fprintf fmt
    "  sent %d  completed %d  shed %d  refused %d  errors %d  mismatches %d  \
     peak-open %d@."
    r.sent r.completed r.shed r.refused r.errors r.mismatches r.peak_open;
  Latency.pp fmt r.lat;
  Format.fprintf fmt "  evq wakeups %d  spurious %d  select-scanned %d@."
    r.evq_wakeups r.evq_spurious r.select_streams_scanned;
  Format.fprintf fmt "  verdict: %s@."
    (if not r.completed_run then "HUNG"
     else if not r.intact then "CORRUPT"
     else "ok")
