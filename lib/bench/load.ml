(* The serving driver: one spec (topology x arrival) and one runner over
   the server runtime. See the .mli for the axes and the accounting
   rule. *)

open Uls_engine
module Api = Uls_api.Sockets_api
module Http = Uls_apps.Http
module Server = Uls_server.Server
module Sched = Uls_server.Sched
module Fabric = Uls_fabric.Fabric
module Ring = Uls_fabric.Ring

type workload = Echo | Http

type fabric = {
  cells : int;
  shards : int;
  vnodes : int;
  kill : (int * Time.ns) option;
  drain : (int * Time.ns) option;
}

type topology = Server | Fabric of fabric

type arrival = Closed | Pool of float | Sessions of float

type config = {
  kind : Cluster.stream;
  topology : topology;
  arrival : arrival;
  workload : workload;
  conns : int;
  requests_per_conn : int;
  size : int;
  think : float;
  client_nodes : int;
  backlog : int;
  workers : int;
  max_inflight : int;
  seed : int;
  loss : float;
  match_engine : Uls_nic.Match_list.engine;
  tiebreak : Sim.tiebreak_spec option;
}

let default =
  {
    kind = `Sub Uls_substrate.Options.server;
    topology = Server;
    arrival = Closed;
    workload = Echo;
    conns = 64;
    requests_per_conn = 8;
    size = 512;
    think = 0.;
    client_nodes = 2;
    backlog = 256;
    workers = Sched.default_config.workers;
    max_inflight = 0;
    seed = 42;
    loss = 0.;
    match_engine = Uls_nic.Match_list.Hashed;
    tiebreak = None;
  }

let fabric = { cells = 4; shards = 4; vnodes = 128; kill = None; drain = None }

type cell_report = {
  c_state : string;
  c_connects : int;
  c_completed : int;
  c_shed : int;
  c_refused : int;
  c_resets : int;
  c_errors : int;
  c_mismatches : int;
  c_server_requests : int;
  c_accepted : int;
  c_server_shed : int;
  c_peak_inflight : int;
}

type report = {
  sent : int;
  established : int;
  completed : int;
  shed : int;
  refused : int;
  resets : int;
  errors : int;
  no_route : int;
  mismatches : int;
  remapped : int;
  retried_ok : int;
  peak_open : int;
  peak_cell_open : int;
  healed_at_ms : float;
  drained_at_ms : float;
  drain_open : int;
  lat : Latency.summary;
  per_cell : cell_report array;
  transitions : (float * int * string * string) list;
  intact : bool;
  completed_run : bool;
  events : int;
  server_requests : int;
  evq_wakeups : int;
  evq_spurious : int;
  select_streams_scanned : int;
  doorbells : int;
  server_nic_tx_ns : int;
  drops_no_descriptor : int;
}

(* Patterned echo payload, a function of (connection, sequence, size):
   a response delivered to the wrong request — or truncated, shifted or
   duplicated — never verifies. *)
let echo_payload ~conn ~seq ~size =
  String.init size (fun i ->
      Char.chr (0x21 + ((i * 7) + (conn * 31) + (seq * 131) + size) mod 94))

(* Every server, and every fabric cell, listens here. *)
let port = 80

(* Re-route attempts per fabric connect. *)
let connect_retries = 6

(* The server turned a connection's first request away: a close before
   the first response (echo) or an explicit 503 (HTTP). Shed, not an
   error. *)
exception Shed

(* One open connection, client side. *)
type session = {
  stream : Api.stream;
  cell : int;
  mutable served : int;  (* requests completed on this connection *)
  mutable active : Time.ns;  (* last completion, for the read deadline *)
  parser : Http.Response_parser.t Lazy.t;  (* HTTP only *)
  mutable pending : Http.response list;  (* parsed, not yet consumed *)
}

(* Hand every server-side stream to [f] once the server has closed it;
   the stream itself is untouched. *)
let observe_server_closes (api : Api.stack) f =
  let wrap ((s : Api.stream), peer) =
    ( { s with
        Api.close =
          (fun () ->
            s.Api.close ();
            f s) },
      peer )
  in
  {
    api with
    Api.listen =
      (fun ~node ~port ~backlog ->
        let l = api.Api.listen ~node ~port ~backlog in
        {
          l with
          Api.accept = (fun () -> wrap (l.Api.accept ()));
          try_accept = (fun () -> Option.map wrap (l.Api.try_accept ()));
        });
  }

let run ?observe ?on_metrics ?on_server_close ?progress cfg =
  let rpc = cfg.requests_per_conn in
  (* Node layout: the servers (cells, then the prober), then the
     clients. The virtual-time hang bound scales with fleet size (the
     EMP match walk is O(posted descriptors), so big fleets are
     legitimately slow); a fabric adds failover headroom, since a kill
     adds bounded-retransmission stalls (connect timeouts, RTO budgets)
     to every connection that was talking to the dead cell. *)
  let cells, first_client, headroom =
    match cfg.topology with
    | Server -> (1, 1, Time.s 60)
    | Fabric f -> (f.cells, f.cells + 1, Time.s 120)
  in
  if cells < 1 then invalid_arg "Load.run: cells < 1";
  if cfg.client_nodes < 1 then invalid_arg "Load.run: client_nodes < 1";
  let bound = headroom + (cfg.conns * Time.ms 250) in
  let c =
    Cluster.create ?tiebreak:cfg.tiebreak ~match_engine:cfg.match_engine
      ~n:(first_client + cfg.client_nodes) ()
  in
  let sim = Cluster.sim c in
  Option.iter (fun f -> f sim) observe;
  let api = Cluster.api c cfg.kind in
  let api =
    match on_server_close with
    | Some f -> observe_server_closes api f
    | None -> api
  in
  if cfg.loss > 0. then
    Fault.set_plan
      (Cluster.fault ~seed:cfg.seed c)
      (Fault.uniform_loss cfg.loss);
  (* Scheduled chaos: a kill pauses the cell's node (frames dropped both
     ways) past the end of the run. Cell ids are node ids by layout. *)
  let killed =
    match cfg.topology with
    | Fabric { kill = Some (cell, at); _ } ->
      Fault.pause_node
        (Cluster.fault ~seed:cfg.seed c)
        ~node:cell ~from:at ~until:(bound * 2);
      Some cell
    | Fabric { kill = None; _ } | Server -> None
  in
  let rngs =
    let root = Rng.create ~seed:cfg.seed in
    Array.init (max 1 cfg.conns) (fun _ -> Rng.split root)
  in
  let lat = Latency.create () in
  (* Per-cell client-side accounting; the failure buckets count
     connections, [lost] the requests they took down with them. *)
  let connects = Array.make cells 0 in
  let completed_c = Array.make cells 0 in
  let shed_c = Array.make cells 0 in
  let refused_c = Array.make cells 0 in
  let resets_c = Array.make cells 0 in
  let errors_c = Array.make cells 0 in
  let mismatches_c = Array.make cells 0 in
  let sent = ref 0 and completed = ref 0 and lost = ref 0 in
  let no_route = ref 0 and remapped = ref 0 and retried_ok = ref 0 in
  let open_now = ref 0 and peak_open = ref 0 in
  (* Pool synchronisation: [arrived] counts finished connect attempts
     (success or failure); pooled connections hold until everyone
     arrived, so [peak_open] proves simultaneous liveness. *)
  let arrived = ref 0 and finished = ref 0 in
  let arrived_c = Cond.create ~label:"load:arrived" sim
  and finished_c = Cond.create ~label:"load:finished" sim in
  (* Read deadline (SO_RCVTIMEO stand-in) on a fabric: a client whose
     request was delivered just before a kill waits for a reply that was
     dropped, and the server's failed send resets only the server-side
     half — no frame can cross the partition to wake the reader. A
     reaper fiber closes streams idle past [idle_limit]; close wakes the
     blocked reader, which records the conn as reset. *)
  let reaping = match cfg.topology with Fabric _ -> true | Server -> false in
  let live = Hashtbl.create 64 and reaped = Hashtbl.create 8 in
  (* Requests a connect failure loses: a pool's jobs go to the
     connections that did arrive. *)
  let unsent_on_refusal =
    match cfg.arrival with Pool _ -> 0 | Closed | Sessions _ -> rpc
  in
  let refuse bucket cell =
    bucket.(cell) <- bucket.(cell) + 1;
    lost := !lost + unsent_on_refusal
  in
  let broke conn sess e ~unserved =
    let bucket =
      match e with
      | _ when Hashtbl.mem reaped conn ->
        (* Idle-reaped: the read deadline fired with the peer
           unreachable — morally a reset, whatever exception the close
           surfaced as. *)
        resets_c
      | Shed -> shed_c
      | Api.Connection_reset -> resets_c
      | _ -> errors_c
    in
    bucket.(sess.cell) <- bucket.(sess.cell) + 1;
    lost := !lost + unserved
  in
  let client_node conn = first_client + (conn mod cfg.client_nodes) in
  let opened conn stream ~cell =
    connects.(cell) <- connects.(cell) + 1;
    incr open_now;
    if !open_now > !peak_open then peak_open := !open_now;
    let sess =
      {
        stream;
        cell;
        served = 0;
        active = Sim.now sim;
        parser = lazy (Http.Response_parser.create ());
        pending = [];
      }
    in
    if reaping then Hashtbl.replace live conn sess;
    Some sess
  in
  (* Connect straight to the one server: the open session, or None with
     the failure counted. *)
  let direct conn =
    match api.Api.connect ~node:(client_node conn) { Api.node = 0; port } with
    | s -> opened conn s ~cell:0
    | exception (Api.Connection_refused _ | Api.Connection_timeout _) ->
      (* connect-level: the server (or its node) never took the flow *)
      refuse refused_c 0;
      None
    | exception _ ->
      refuse errors_c 0;
      None
  in
  (* Route, then connect, re-routing over membership changes. Back off
     past the health checker's detection horizon so a later attempt
     routes on the healed (or rejoined) ring. An empty ring is retried
     the same way: with auto-rejoin an overloaded fleet comes back, and
     only exhausting every retry counts as [no_route].

     The jitter is wide on purpose: every flow that arrived during a
     cell's blackout fails its connect at arrival + the same substrate
     timeout, so narrow jitter re-synchronises them into a thundering
     herd that pushes the survivors over the EMP match-walk cliff (~60
     open conns x ~2N+3 descriptors each makes every RX frame pay a
     >1 ms walk). Spreading each retry over its own backoff width keeps
     the herd's arrival rate under the cliff. *)
  let routed fab home_ring conn =
    let rng = rngs.(conn) in
    let client_node = client_node conn in
    let key = Fabric.flow_key ~client_node ~flow:conn ~port in
    let rec attempt tries =
      match Fabric.route fab ~key with
      | exception Fabric.No_live_cells -> retry tries ~refused_on:(-1)
      | id -> (
        match Fabric.connect fab ~client_node ~key with
        | s, cell ->
          if tries > 0 then incr retried_ok;
          if Ring.lookup home_ring ~key <> Some cell then incr remapped;
          opened conn s ~cell
        | exception Fabric.No_live_cells -> retry tries ~refused_on:(-1)
        | exception _ -> retry tries ~refused_on:id)
    (* After a backoff, or for good once the retries are spent: refused
       on a cell, or no route ([-1]) when the ring was empty. *)
    and retry tries ~refused_on =
      if tries + 1 < connect_retries then begin
        Sim.delay sim
          (Time.ms 250 * (tries + 1) + Rng.int rng (Time.ms 500 * (tries + 1)));
        attempt (tries + 1)
      end
      else begin
        if refused_on >= 0 then refuse refused_c refused_on
        else begin
          incr no_route;
          lost := !lost + unsent_on_refusal
        end;
        None
      end
    in
    attempt 0
  in
  let close conn sess =
    if reaping then Hashtbl.remove live conn;
    (try sess.stream.Api.close () with _ -> ());
    decr open_now
  in
  let finish () =
    incr finished;
    Cond.broadcast finished_c
  in
  let send_mark sess data =
    Latency.sent lat ~now:(Sim.now sim);
    incr sent;
    sess.stream.Api.send data
  in
  let record sess t0 =
    let now = Sim.now sim in
    Latency.completed lat ~t0 ~now;
    sess.active <- now;
    sess.served <- sess.served + 1;
    completed_c.(sess.cell) <- completed_c.(sess.cell) + 1;
    incr completed;
    match progress with
    | Some (every, f) when !completed mod every = 0 -> f ()
    | _ -> ()
  in
  let mismatch sess =
    mismatches_c.(sess.cell) <- mismatches_c.(sess.cell) + 1
  in
  (* One request, latency accounted from [t0] (send time, or arrival
     time for a pool). Raises on failure: [Shed] when the server closes
     a connection before its first response, whether that close
     surfaces at the send or at the receive. *)
  let echo sess ~conn ~seq ~t0 =
    let payload = echo_payload ~conn ~seq ~size:cfg.size in
    let got =
      try
        send_mark sess payload;
        Api.recv_exact sess.stream cfg.size
      with Api.Connection_closed when sess.served = 0 -> raise Shed
    in
    if got <> payload then mismatch sess;
    record sess t0
  in
  let http sess ~t0 ~last =
    (try
       send_mark sess
         (Http.format_request
            {
              Http.meth = "GET";
              path = Printf.sprintf "/b/%d" cfg.size;
              version = "HTTP/1.1";
              req_headers =
                [ ("connection", if last then "close" else "keep-alive") ];
              req_body = "";
            })
     with Api.Connection_closed when sess.served = 0 -> raise Shed);
    let rec next () =
      match sess.pending with
      | r :: rest ->
        sess.pending <- rest;
        r
      | [] ->
        let data = sess.stream.Api.recv 65_536 in
        if data = "" then
          if sess.served = 0 then raise Shed else raise Api.Connection_closed
        else begin
          sess.pending <-
            Http.Response_parser.feed (Lazy.force sess.parser) data;
          next ()
        end
    in
    let resp = next () in
    if resp.Http.status = 503 then raise Shed;
    if resp.Http.resp_body <> Http.body_for ~size:cfg.size then mismatch sess;
    record sess t0
  in
  let exchange sess ~conn ~seq ~t0 ~last =
    match cfg.workload with
    | Echo -> echo sess ~conn ~seq ~t0
    | Http -> http sess ~t0 ~last
  in
  (* A connection's own requests, back to back, each after an optional
     exponential think time; a closed loop also thinks after its last. *)
  let requests conn sess ~think_after_last =
    let rng = rngs.(conn) in
    try
      for seq = 0 to rpc - 1 do
        exchange sess ~conn ~seq ~t0:(Sim.now sim) ~last:(seq = rpc - 1);
        if cfg.think > 0. && (think_after_last || seq < rpc - 1) then
          Sim.delay sim (int_of_float (Rng.exponential rng ~mean:cfg.think))
      done
    with e -> broke conn sess e ~unserved:(rpc - sess.served)
  in
  let pool_connected () = !arrived >= cfg.conns in
  (* A pool member's connect: seeded ramp, ~150 us between connects
     fleet-wide. The server node's kernel CPU spends ~55 us per TCP
     handshake (SYN processing plus accept), so faster global ramps
     overrun it, delay SYN-ACKs past the connect retry horizon, and
     collapse the fleet. *)
  let join connect conn =
    Sim.delay sim
      (Time.ms 1 + (conn * Time.us 150) + Rng.int rngs.(conn) (Time.us 100));
    let sess = connect conn in
    incr arrived;
    if !arrived >= cfg.conns then Cond.broadcast arrived_c;
    sess
  in
  let session connect conn () =
    (match connect conn with
    | None -> ()
    | Some sess ->
      requests conn sess ~think_after_last:false;
      close conn sess);
    finish ()
  in
  let start_arrivals connect =
    match cfg.arrival with
    | Closed ->
      for conn = 0 to cfg.conns - 1 do
        Sim.spawn sim ~name:("load-conn-" ^ string_of_int conn) (fun () ->
            (match join connect conn with
            | None -> ()
            | Some sess ->
              (* Connect-then-measure barrier: requests start only once
                 the whole pool is up, so handshakes never compete with
                 request traffic for client CPU. *)
              Cond.wait_until arrived_c pool_connected;
              (* Desynchronise the first send: a single-instant burst
                 of [conns] requests is a worst-case incast that no
                 backoff policy should be forced to absorb from a cold
                 start. *)
              Sim.delay sim (Rng.int rngs.(conn) (Time.us (20 * cfg.conns)));
              requests conn sess ~think_after_last:true;
              close conn sess);
            finish ())
      done
    | Pool rate ->
      let jobs : Time.ns option Mailbox.t =
        Mailbox.create ~label:"load:open-arrivals" sim
      in
      let arrival_rng = Rng.create ~seed:(cfg.seed lxor 0x0a51f00d) in
      Sim.spawn sim ~name:"load-arrivals" (fun () ->
          (* arrivals start once the pool actually exists *)
          Cond.wait_until arrived_c pool_connected;
          let mean_gap = 1e9 /. rate in
          for _ = 1 to cfg.conns * rpc do
            Sim.delay sim
              (int_of_float (Rng.exponential arrival_rng ~mean:mean_gap));
            Mailbox.send jobs (Some (Sim.now sim))
          done;
          for _ = 1 to cfg.conns do
            Mailbox.send jobs None
          done);
      for conn = 0 to cfg.conns - 1 do
        Sim.spawn sim ~name:("load-conn-" ^ string_of_int conn) (fun () ->
            (match join connect conn with
            | None -> ()
            | Some sess ->
              Cond.wait_until arrived_c pool_connected;
              let rec serve () =
                match Mailbox.recv jobs with
                | None -> ()
                | Some t0 -> (
                  match
                    exchange sess ~conn ~seq:sess.served ~t0 ~last:false
                  with
                  | () -> serve ()
                  | exception e -> broke conn sess e ~unserved:1)
              in
              serve ();
              close conn sess);
            finish ())
      done
    | Sessions rate ->
      (* Exponential gaps at [rate] fleet-wide, each spawning an
         independent connection: offered load does not slow down when
         the servers do. *)
      Sim.spawn sim ~name:"load-arrivals" (fun () ->
          let arrival_rng = Rng.create ~seed:(cfg.seed lxor 0x0a51f00d) in
          let mean_gap = 1e9 /. rate in
          for conn = 0 to cfg.conns - 1 do
            Sim.delay sim
              (int_of_float (Rng.exponential arrival_rng ~mean:mean_gap));
            Sim.spawn sim ~name:("load-conn-" ^ string_of_int conn)
              (session connect conn)
          done)
  in
  (* Generous enough to sit past the health-detection horizon, a
     failover herd's transient queue delay, and any configured think
     time, so only a truly partitioned peer trips it. *)
  let reaper () =
    let idle_limit = Time.s 5 + int_of_float (10. *. cfg.think) in
    Sim.spawn sim ~name:"load-reaper" (fun () ->
        while !finished < cfg.conns do
          Sim.delay sim (Time.ms 500);
          let now = Sim.now sim in
          let victims =
            Hashtbl.fold
              (fun conn sess acc ->
                if now - sess.active > idle_limit then (conn, sess) :: acc
                else acc)
              live []
          in
          List.iter
            (fun (conn, sess) ->
              Hashtbl.replace reaped conn ();
              Hashtbl.remove live conn;
              try sess.stream.Api.close () with _ -> ())
            victims
        done)
  in
  (* Janitor: once every client is done, stop the servers so the run
     ends with nothing registered and the listeners closed. *)
  let janitor stop =
    Sim.spawn sim ~name:"load-janitor" (fun () ->
        Cond.wait_until finished_c (fun () -> !finished >= cfg.conns);
        stop ())
  in
  let workload =
    match cfg.workload with Echo -> Server.Echo | Http -> Server.Http cfg.size
  in
  let sched =
    if cfg.workers = Sched.default_config.workers && cfg.max_inflight = 0 then
      None
    else
      Some
        {
          Sched.default_config with
          workers = cfg.workers;
          max_inflight =
            (if cfg.max_inflight = 0 then max_int else cfg.max_inflight);
          reject =
            (match cfg.workload with
            | Http -> Some Server.http_reject
            | Echo -> None);
        }
  in
  let srv = ref None and fab_ref = ref None in
  (match cfg.topology with
  | Server ->
    Sim.spawn sim ~name:"load-server" (fun () ->
        srv :=
          Some
            (Server.start sim api ~node:0 ~port ~backlog:cfg.backlog
               ?config:sched workload));
    start_arrivals direct;
    janitor (fun () -> Option.iter Server.stop !srv)
  | Fabric f ->
    (* Pristine full ring: the routing the run would have used had no
       cell ever left — [remapped] counts flows served away from
       home. *)
    let home_ring = Ring.create ~vnodes:f.vnodes ~seed:cfg.seed () in
    for id = 0 to f.cells - 1 do
      Ring.add home_ring id
    done;
    (* Fabric creation binds listeners (simulator effects), so the
       whole setup runs inside a fiber. *)
    Sim.spawn sim ~name:"load-fabric" (fun () ->
        let fab =
          Fabric.create sim api
            ~nodes:(List.init f.cells (fun i -> i))
            {
              Fabric.port;
              backlog = cfg.backlog;
              shards = f.shards;
              sched;
              workload;
              vnodes = f.vnodes;
              ring_seed = cfg.seed;
              probe_node = Some f.cells;
            }
        in
        fab_ref := Some fab;
        start_arrivals (routed fab home_ring);
        (match f.drain with
        | Some (cell, at) ->
          Sim.spawn sim ~name:"load-drain" (fun () ->
              Sim.delay sim at;
              Fabric.drain fab cell)
        | None -> ());
        reaper ();
        janitor (fun () -> Fabric.stop fab)));
  let outcome = Cluster.run ~until:bound c in
  let server id =
    match (!fab_ref, !srv) with
    | Some fab, _ -> Fabric.server fab id
    | None, Some s -> s
    | None, None -> failwith "Load.run: the servers never started"
  in
  let m = Metrics.for_sim sim in
  (match on_metrics with Some f -> f m | None -> ());
  let per_cell =
    Array.init cells (fun id ->
        let srv = server id in
        {
          c_state =
            (match !fab_ref with
            | Some fab -> Fabric.state_name (Fabric.cell_state fab id)
            | None -> "up");
          c_connects = connects.(id);
          c_completed = completed_c.(id);
          c_shed = shed_c.(id);
          c_refused = refused_c.(id);
          c_resets = resets_c.(id);
          c_errors = errors_c.(id);
          c_mismatches = mismatches_c.(id);
          c_server_requests = Server.requests srv;
          c_accepted = Server.accepted srv;
          c_server_shed = Server.shed srv;
          c_peak_inflight = Server.peak_inflight srv;
        })
  in
  let sum f = Array.fold_left (fun acc r -> acc + f r) 0 per_cell in
  let sum_nodes n name =
    let rec go id acc =
      if id = n then acc
      else go (id + 1) (acc + Metrics.counter_value m ~node:id name)
    in
    go 0 0
  in
  let servers_counter = sum_nodes cells and fleet = sum_nodes (Cluster.size c) in
  let transitions =
    match !fab_ref with
    | None -> []
    | Some fab ->
      List.map
        (fun (e : Fabric.event) ->
          ( float_of_int e.Fabric.at /. 1e6,
            e.Fabric.cell,
            Fabric.state_name e.Fabric.to_state,
            e.Fabric.cause ))
        (Fabric.events fab)
  in
  let first_ms state =
    match List.find_opt (fun (_, _, s, _) -> s = state) transitions with
    | Some (ms, _, _, _) -> ms
    | None -> -1.
  in
  (* Refusals, resets and errors are legitimate only on a killed cell;
     shedding is the server declining work, allowed anywhere. *)
  let confined =
    Array.for_all
      (fun id ->
        killed = Some id
        || (refused_c.(id) = 0 && resets_c.(id) = 0 && errors_c.(id) = 0))
      (Array.init cells (fun id -> id))
  in
  let mismatches = sum (fun r -> r.c_mismatches) in
  {
    sent = !sent;
    established = sum (fun r -> r.c_connects);
    completed = !completed;
    shed = sum (fun r -> r.c_shed);
    refused = sum (fun r -> r.c_refused);
    resets = sum (fun r -> r.c_resets);
    errors = sum (fun r -> r.c_errors);
    no_route = !no_route;
    mismatches;
    remapped = !remapped;
    retried_ok = !retried_ok;
    peak_open = !peak_open;
    peak_cell_open =
      Array.fold_left (fun acc r -> max acc r.c_peak_inflight) 0 per_cell;
    healed_at_ms = first_ms "down";
    drained_at_ms = first_ms "drained";
    drain_open =
      (match (!fab_ref, cfg.topology) with
      | Some fab, Fabric { drain = Some (cell, _); _ } ->
        Fabric.drain_open fab cell
      | _ -> 0);
    lat = Latency.summary lat;
    per_cell;
    transitions;
    intact =
      mismatches = 0 && !no_route = 0 && confined
      && !completed + !lost = cfg.conns * rpc;
    completed_run = outcome = `Quiescent;
    events = Sim.events_executed sim;
    server_requests = sum (fun r -> r.c_server_requests);
    evq_wakeups = servers_counter "server.evq.wakeups";
    evq_spurious = servers_counter "server.evq.spurious";
    select_streams_scanned = servers_counter "api.select_streams_scanned";
    doorbells = fleet "nic.doorbells";
    drops_no_descriptor = fleet "emp.drops_no_descriptor";
    server_nic_tx_ns =
      List.fold_left
        (fun acc id ->
          acc + Resource.busy_time (Uls_nic.Tigon.tx_cpu (Cluster.nic c id)))
        0
        (List.init cells Fun.id);
  }

let arrival_name = function
  | Closed -> "closed"
  | Pool r -> Printf.sprintf "open@%.0f/s" r
  | Sessions r -> Printf.sprintf "sessions@%.0f/s" r

let print_report fmt cfg r =
  let stack = Cluster.stack_name cfg.kind in
  let workload = match cfg.workload with Echo -> "echo" | Http -> "http" in
  (match cfg.topology with
  | Server ->
    Format.fprintf fmt "%s %s %s: conns=%d size=%dB requests=%d@." stack
      workload (arrival_name cfg.arrival) cfg.conns cfg.size
      (cfg.conns * cfg.requests_per_conn);
    Format.fprintf fmt
      "  sent %d  completed %d  shed %d  refused %d  errors %d  mismatches \
       %d  peak-open %d@."
      r.sent r.completed r.shed r.refused (r.errors + r.resets) r.mismatches
      r.peak_open;
    Latency.pp fmt r.lat;
    Format.fprintf fmt "  evq wakeups %d  spurious %d  select-scanned %d@."
      r.evq_wakeups r.evq_spurious r.select_streams_scanned
  | Fabric f ->
    Format.fprintf fmt "%s %s: cells=%d shards=%d conns=%d %s requests=%d \
                        size=%dB@."
      stack
      (match cfg.workload with Echo -> "fabric" | Http -> "http fabric")
      f.cells f.shards cfg.conns
      (match cfg.arrival with
      | Sessions rate -> Printf.sprintf "rate=%.0f/s" rate
      | a -> arrival_name a)
      cfg.requests_per_conn cfg.size;
    Format.fprintf fmt
      "  arrivals %d  established %d  completed %d  shed %d  refused %d  \
       resets %d  errors %d  mismatches %d@."
      cfg.conns r.established r.completed r.shed r.refused r.resets r.errors
      r.mismatches;
    Format.fprintf fmt
      "  no-route %d  remapped %d  retried-ok %d  peak-open %d  \
       peak-cell-open %d@."
      r.no_route r.remapped r.retried_ok r.peak_open r.peak_cell_open;
    (* A cell can also be marked down with nothing killed (a connect
       that failed under load); only a kill makes that a heal. *)
    if r.healed_at_ms >= 0. then
      if Option.is_some f.kill then
        Format.fprintf fmt "  ring healed at %.2f ms@." r.healed_at_ms
      else
        Format.fprintf fmt "  cell marked down at %.2f ms without a kill@."
          r.healed_at_ms;
    if r.drained_at_ms >= 0. then
      Format.fprintf fmt "  drain completed at %.2f ms (%d conns drained)@."
        r.drained_at_ms r.drain_open;
    Latency.pp fmt r.lat;
    Array.iteri
      (fun id c ->
        Format.fprintf fmt
          "  cell %d [%s]: conns %d  done %d  shed %d/%d  refused %d  \
           resets %d  errors %d  served %d  peak %d@."
          id c.c_state c.c_connects c.c_completed c.c_shed c.c_server_shed
          c.c_refused c.c_resets c.c_errors c.c_server_requests
          c.c_peak_inflight)
      r.per_cell;
    List.iter
      (fun (ms, cell, state, cause) ->
        Format.fprintf fmt "  t=%.2fms cell %d -> %s (%s)@." ms cell state
          cause)
      r.transitions);
  Format.fprintf fmt "  verdict: %s@."
    (if not r.completed_run then "HUNG"
     else if not r.intact then "CORRUPT"
     else "ok")
