(** Fleet-scale load driver for the sharded serving fabric: open-loop
    connection arrivals across many client nodes against K balanced
    cells, with optional mid-load kill or drain. See the .mli. *)

open Uls_engine
module Api = Uls_api.Sockets_api
module Server = Uls_server.Server
module Fabric = Uls_fabric.Fabric
module Ring = Uls_fabric.Ring

type config = {
  kind : Chaos.kind;
  cells : int;
  shards : int;
  conns : int;
  requests_per_conn : int;
  size : int;
  rate : float;
  think : float;
  client_nodes : int;
  seed : int;
  loss : float;
  max_inflight : int;
  backlog : int;
  vnodes : int;
  probe_period : Time.ns;
  fail_threshold : int;
  connect_retries : int;
  kill : (int * Time.ns) option;
  drain : (int * Time.ns) option;
  tiebreak : Uls_engine.Sim.tiebreak_spec option;
  time_limit : Time.ns option;
  match_engine : Uls_nic.Match_list.engine;
  event_sched : [ `Heap | `Wheel ];
}

let default =
  {
    kind = Chaos.Sub Uls_substrate.Options.server;
    cells = 4;
    shards = 4;
    conns = 512;
    requests_per_conn = 2;
    size = 256;
    rate = 4_000.;
    think = 0.;
    client_nodes = 8;
    seed = 42;
    loss = 0.;
    max_inflight = 0;
    (* Modest on purpose: every posted backlog descriptor sits in the
       cell NIC's linear match list, so each RX frame pays
       O(backlog + open conns) walk cost — a 1024-deep backlog costs
       ~0.5 ms of NIC CPU per received frame before any conn data. *)
    backlog = 128;
    vnodes = 128;
    probe_period = Time.ms 5;
    fail_threshold = 2;
    connect_retries = 6;
    kill = None;
    drain = None;
    tiebreak = None;
    time_limit = None;
    match_engine = Uls_nic.Match_list.Hashed;
    event_sched = `Heap;
  }

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
  cells : int;
  arrivals : int;
  established : int;
  completed : int;
  shed : int;
  refused : int;
  resets : int;
  errors : int;
  mismatches : int;
  no_route : int;
  remapped : int;
  retried_ok : int;
  peak_open : int;
  peak_cell_open : int;
  healed_at_ms : float;
  drained_at_ms : float;
  drain_open : int;
  elapsed_ms : float;
  rps : float;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  p999_us : float;
  per_cell : cell_report array;
  transitions : (float * int * string * string) list;
  intact : bool;
  completed_run : bool;
}

(* Scaled like {!Load.liveness_bound} but with headroom for failover
   runs: a kill adds bounded-retransmission stalls (connect timeouts,
   RTO budgets) to every connection that was talking to the dead cell. *)
let liveness_bound ~conns = Time.s 120 + (conns * Time.ms 250)

let debug_errors = Sys.getenv_opt "LOAD_DEBUG" <> None

let note_error e =
  if debug_errors then
    prerr_endline ("fleet: client error: " ^ Printexc.to_string e)

exception Shed_by_server

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

let run ?on_metrics ?on_server_close (cfg : config) =
  if cfg.cells < 1 then invalid_arg "Fleet.run: cells < 1";
  if cfg.client_nodes < 1 then invalid_arg "Fleet.run: client_nodes < 1";
  (* Node layout: cells 0..K-1, prober K, clients K+1..K+client_nodes. *)
  let n_nodes = cfg.cells + 1 + cfg.client_nodes in
  let c =
    match cfg.tiebreak with
    | Some tiebreak ->
      Cluster.create ~tiebreak ~match_engine:cfg.match_engine
        ~sched:cfg.event_sched ~n:n_nodes ()
    | None ->
      Cluster.create ~match_engine:cfg.match_engine ~sched:cfg.event_sched
        ~n:n_nodes ()
  in
  let sim = Cluster.sim c in
  let api =
    match cfg.kind with
    | Chaos.Tcp config -> Cluster.tcp_api ~config c
    | Chaos.Sub opts -> Cluster.substrate_api ~opts c
  in
  let api =
    match on_server_close with
    | Some f -> observe_server_closes api f
    | None -> api
  in
  let bound =
    match cfg.time_limit with
    | Some t -> t
    | None -> liveness_bound ~conns:cfg.conns
  in
  let fault =
    if cfg.loss > 0. || cfg.kill <> None then begin
      let fault = Fault.create ~seed:cfg.seed sim in
      if cfg.loss > 0. then
        Fault.set_default_plan fault (Fault.uniform_loss cfg.loss);
      Uls_ether.Network.set_fault (Cluster.network c) fault;
      Some fault
    end
    else None
  in
  let sched =
    if cfg.max_inflight = 0 then None
    else
      Some
        {
          Uls_server.Sched.default_config with
          max_inflight = cfg.max_inflight;
        }
  in
  let fab_ref = ref None in
  (* Pristine full ring: the routing the run would have used had no cell
     ever left — [remapped] counts flows served away from home. *)
  let home_ring = Ring.create ~vnodes:cfg.vnodes ~seed:cfg.seed () in
  for id = 0 to cfg.cells - 1 do
    Ring.add home_ring id
  done;
  let port = Fabric.default_config.Fabric.port in
  (* Per-cell client-side accounting. *)
  let connects = Array.make cfg.cells 0 in
  let completed_c = Array.make cfg.cells 0 in
  let shed_c = Array.make cfg.cells 0 in
  let refused_c = Array.make cfg.cells 0 in
  let resets_c = Array.make cfg.cells 0 in
  let errors_c = Array.make cfg.cells 0 in
  let mismatches_c = Array.make cfg.cells 0 in
  let no_route = ref 0 and remapped = ref 0 and retried_ok = ref 0 in
  let open_now = ref 0 and peak_open = ref 0 in
  (* Read deadline (SO_RCVTIMEO stand-in): a client whose request was
     delivered just before a kill waits for a reply that was dropped,
     and the server's failed send resets only the server-side half — no
     frame can cross the partition to wake the reader. A reaper fiber
     closes streams idle past [idle_limit]; close wakes the blocked
     reader, which records the conn as reset. *)
  let live = Hashtbl.create 64 in (* conn -> (stream, last-activity ref) *)
  let reaped = Hashtbl.create 8 in
  let lat = Stats.Summary.create () in
  let t_first = ref max_int and t_last = ref 0 in
  let finished = ref 0 in
  let finished_c = Cond.create ~label:"fleet:finished" sim in
  let rngs =
    let root = Rng.create ~seed:cfg.seed in
    Array.init (max 1 cfg.conns) (fun _ -> Rng.split root)
  in
  (* One connection's life: route, connect (with re-route retries over
     membership changes), echo [requests_per_conn] verified exchanges
     with optional think gaps, close. *)
  let client fab conn () =
    let rng = rngs.(conn) in
    let client_node = cfg.cells + 1 + (conn mod cfg.client_nodes) in
    let key = Fabric.flow_key ~client_node ~flow:conn ~port in
    (* Back off past the health checker's detection horizon so a later
       attempt routes on the healed (or rejoined) ring. An empty ring is
       retried the same way: with auto-rejoin an overloaded fleet comes
       back, and only exhausting every retry counts as [no_route].

       The jitter is wide on purpose: every flow that arrived during a
       cell's blackout fails its connect at arrival + the same substrate
       timeout, so narrow jitter re-synchronises them into a thundering
       herd that pushes the survivors over the EMP match-walk cliff
       (~60 open conns x ~2N+3 descriptors each makes every RX frame
       pay a >1 ms walk). Spreading each retry over its own backoff
       width keeps the herd's arrival rate under the cliff. *)
    let backoff tries =
      Sim.delay sim
        (Time.ms 250 * (tries + 1) + Rng.int rng (Time.ms 500 * (tries + 1)))
    in
    let rec attempt tries =
      match Fabric.route fab ~key with
      | exception Fabric.No_live_cells ->
        if tries + 1 < cfg.connect_retries then begin
          backoff tries;
          attempt (tries + 1)
        end
        else begin
          incr no_route;
          None
        end
      | id -> (
        match Fabric.connect fab ~client_node ~key with
        | s, cell ->
          if tries > 0 then incr retried_ok;
          Some (s, cell)
        | exception Fabric.No_live_cells ->
          if tries + 1 < cfg.connect_retries then begin
            backoff tries;
            attempt (tries + 1)
          end
          else begin
            incr no_route;
            None
          end
        | exception e ->
          note_error e;
          if tries + 1 < cfg.connect_retries then begin
            backoff tries;
            attempt (tries + 1)
          end
          else begin
            refused_c.(id) <- refused_c.(id) + 1;
            None
          end)
    in
    (match attempt 0 with
    | None -> ()
    | Some (s, cell) ->
      connects.(cell) <- connects.(cell) + 1;
      if Ring.lookup home_ring ~key <> Some cell then incr remapped;
      incr open_now;
      if !open_now > !peak_open then peak_open := !open_now;
      let last_activity = ref (Sim.now sim) in
      let phase = ref "idle" in
      Hashtbl.replace live conn (s, last_activity, cell, phase);
      (try
         for seq = 0 to cfg.requests_per_conn - 1 do
           let t0 = Sim.now sim in
           t_first := min !t_first t0;
           let payload = Load.echo_payload ~conn ~seq ~size:cfg.size in
           phase := Printf.sprintf "send#%d" seq;
           s.Api.send payload;
           phase := Printf.sprintf "recv#%d" seq;
           let got =
             try Api.recv_exact s cfg.size
             with Api.Connection_closed when seq = 0 -> raise Shed_by_server
           in
           if got <> payload then
             mismatches_c.(cell) <- mismatches_c.(cell) + 1;
           let now = Sim.now sim in
           Stats.Summary.add lat (float_of_int (now - t0));
           t_last := max !t_last now;
           last_activity := now;
           completed_c.(cell) <- completed_c.(cell) + 1;
           if cfg.think > 0. && seq < cfg.requests_per_conn - 1 then
             Sim.delay sim (int_of_float (Rng.exponential rng ~mean:cfg.think))
         done
       with
      | _ when Hashtbl.mem reaped conn ->
        (* Idle-reaped: the read deadline fired with the peer
           unreachable — morally a reset, whatever exception the close
           surfaced as. *)
        resets_c.(cell) <- resets_c.(cell) + 1
      | Shed_by_server -> shed_c.(cell) <- shed_c.(cell) + 1
      | Api.Connection_reset -> resets_c.(cell) <- resets_c.(cell) + 1
      | e ->
        note_error e;
        errors_c.(cell) <- errors_c.(cell) + 1);
      Hashtbl.remove live conn;
      (try s.Api.close () with _ -> ());
      decr open_now);
    incr finished;
    if debug_errors then
      Printf.eprintf "fleet: conn %d finished (%d/%d) at %.2fms\n%!" conn
        !finished cfg.conns
        (float_of_int (Sim.now sim) /. 1e6);
    Cond.broadcast finished_c
  in
  (* Scheduled chaos: kill pauses the cell's node (frames dropped both
     ways) past the end of the run. Cell ids are node ids by layout. *)
  (match (cfg.kill, fault) with
  | Some (cell, at), Some fault ->
    Fault.pause_node fault ~node:cell ~from:at ~until:(bound * 2)
  | _ -> ());
  (* Fabric creation binds listeners (simulator effects), so the whole
     setup runs inside a fiber. *)
  Sim.spawn sim ~name:"fleet-setup" (fun () ->
      let fab =
        Fabric.create sim api
          ~nodes:(List.init cfg.cells (fun i -> i))
          {
            Fabric.default_config with
            backlog = cfg.backlog;
            shards = cfg.shards;
            sched;
            vnodes = cfg.vnodes;
            ring_seed = cfg.seed;
            probe_node = Some cfg.cells;
            probe_period = cfg.probe_period;
            fail_threshold = cfg.fail_threshold;
          }
      in
      fab_ref := Some fab;
      (* Open-loop arrivals: exponential gaps at [rate] fleet-wide, each
         spawning an independent connection fiber — offered load does
         not slow down when the fabric does. *)
      Sim.spawn sim ~name:"fleet-arrivals" (fun () ->
          let arrival_rng = Rng.create ~seed:(cfg.seed lxor 0x0a51f00d) in
          let mean_gap = 1e9 /. cfg.rate in
          for conn = 0 to cfg.conns - 1 do
            Sim.delay sim
              (int_of_float (Rng.exponential arrival_rng ~mean:mean_gap));
            Sim.spawn sim ~name:(Printf.sprintf "fleet-conn-%d" conn)
              (client fab conn)
          done);
      (match cfg.drain with
      | Some (cell, at) ->
        Sim.spawn sim ~name:"fleet-drain" (fun () ->
            Sim.delay sim at;
            Fabric.drain fab cell)
      | None -> ());
      (* Reaper: enforce the read deadline. Generous enough to sit past
         the health-detection horizon, a failover herd's transient queue
         delay, and any configured think time, so only a truly
         partitioned peer trips it. *)
      let idle_limit = Time.s 5 + int_of_float (10. *. cfg.think) in
      Sim.spawn sim ~name:"fleet-reaper" (fun () ->
          while !finished < cfg.conns do
            Sim.delay sim (Time.ms 500);
            let now = Sim.now sim in
            let victims =
              Hashtbl.fold
                (fun conn (s, last, cell, phase) acc ->
                  if now - !last > idle_limit then (conn, s, cell, phase) :: acc
                  else acc)
                live []
            in
            List.iter
              (fun (conn, (s : Api.stream), cell, phase) ->
                if debug_errors then
                  Printf.eprintf
                    "fleet: reap conn %d cell %d stuck in %s at %.2fms\n%!"
                    conn cell !phase
                    (float_of_int now /. 1e6);
                Hashtbl.replace reaped conn ();
                Hashtbl.remove live conn;
                try s.Api.close () with _ -> ())
              victims
          done);
      Sim.spawn sim ~name:"fleet-janitor" (fun () ->
          Cond.wait_until finished_c (fun () -> !finished >= cfg.conns);
          if debug_errors then
            Printf.eprintf "fleet: janitor stopping fabric at %.2fms\n%!"
              (float_of_int (Sim.now sim) /. 1e6);
          Fabric.stop fab));
  let outcome = Cluster.run ~until:bound c in
  let fab =
    match !fab_ref with
    | Some fab -> fab
    | None -> failwith "Fleet.run: fabric never started"
  in
  (match on_metrics with
  | Some f -> f (Metrics.for_sim sim)
  | None -> ());
  let per_cell =
    Array.init cfg.cells (fun id ->
        let srv = Fabric.server fab id in
        {
          c_state = Fabric.state_name (Fabric.cell_state fab id);
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
  let established = sum (fun r -> r.c_connects) in
  let completed = sum (fun r -> r.c_completed) in
  let shed = sum (fun r -> r.c_shed) in
  let refused = sum (fun r -> r.c_refused) in
  let resets = sum (fun r -> r.c_resets) in
  let errors = sum (fun r -> r.c_errors) in
  let mismatches = sum (fun r -> r.c_mismatches) in
  let transitions =
    List.map
      (fun (e : Fabric.event) ->
        ( float_of_int e.Fabric.at /. 1e6,
          e.Fabric.cell,
          Fabric.state_name e.Fabric.to_state,
          e.Fabric.cause ))
      (Fabric.events fab)
  in
  let first_ms state =
    match
      List.find_opt (fun (_, _, s, _) -> s = state) transitions
    with
    | Some (ms, _, _, _) -> ms
    | None -> -1.
  in
  let elapsed = if !t_last > !t_first then !t_last - !t_first else 0 in
  let pct p =
    if Stats.Summary.count lat = 0 then 0.
    else Stats.Summary.percentile lat p /. 1e3
  in
  (* Failure budget: resets and terminal connect failures are legitimate
     only on a killed cell; everything else must be clean, and every
     established connection must account for all its requests. *)
  let chaos_ok =
    Array.for_all
      (fun id ->
        let r = per_cell.(id) in
        let killed = match cfg.kill with
          | Some (k, _) -> k = id
          | None -> false
        in
        killed || (r.c_resets = 0 && r.c_refused = 0 && r.c_errors = 0))
      (Array.init cfg.cells (fun i -> i))
  in
  let offered = established * cfg.requests_per_conn in
  let cut = resets + errors in
  {
    cells = cfg.cells;
    arrivals = cfg.conns;
    established;
    completed;
    shed;
    refused;
    resets;
    errors;
    mismatches;
    no_route = !no_route;
    remapped = !remapped;
    retried_ok = !retried_ok;
    peak_open = !peak_open;
    peak_cell_open =
      Array.fold_left (fun acc r -> max acc r.c_peak_inflight) 0 per_cell;
    healed_at_ms = first_ms "down";
    drained_at_ms = first_ms "drained";
    drain_open =
      (match cfg.drain with
      | Some (cell, _) -> Fabric.drain_open fab cell
      | None -> 0);
    elapsed_ms = float_of_int elapsed /. 1e6;
    rps =
      (if elapsed > 0 then
         float_of_int completed /. (float_of_int elapsed /. 1e9)
       else 0.);
    mean_us =
      (if Stats.Summary.count lat = 0 then 0.
       else Stats.Summary.mean lat /. 1e3);
    p50_us = pct 0.5;
    p95_us = pct 0.95;
    p99_us = pct 0.99;
    p999_us = pct 0.999;
    per_cell;
    transitions;
    intact =
      mismatches = 0 && !no_route = 0 && chaos_ok
      && completed + ((shed + cut) * cfg.requests_per_conn) >= offered;
    completed_run = outcome = `Quiescent;
  }

let print_report fmt (cfg : config) (r : report) =
  Format.fprintf fmt
    "%s fabric: cells=%d shards=%d conns=%d rate=%.0f/s requests=%d \
     size=%dB@."
    (Chaos.kind_name cfg.kind) cfg.cells cfg.shards cfg.conns cfg.rate
    cfg.requests_per_conn cfg.size;
  Format.fprintf fmt
    "  arrivals %d  established %d  completed %d  shed %d  refused %d  \
     resets %d  errors %d  mismatches %d@."
    r.arrivals r.established r.completed r.shed r.refused r.resets r.errors
    r.mismatches;
  Format.fprintf fmt
    "  no-route %d  remapped %d  retried-ok %d  peak-open %d  \
     peak-cell-open %d@."
    r.no_route r.remapped r.retried_ok r.peak_open r.peak_cell_open;
  if r.healed_at_ms >= 0. then
    Format.fprintf fmt "  ring healed at %.2f ms@." r.healed_at_ms;
  if r.drained_at_ms >= 0. then
    Format.fprintf fmt "  drain completed at %.2f ms (%d conns drained)@."
      r.drained_at_ms r.drain_open;
  Format.fprintf fmt "  elapsed %.2f ms  throughput %.0f req/s@." r.elapsed_ms
    r.rps;
  Format.fprintf fmt
    "  latency us: mean %.1f  p50 %.1f  p95 %.1f  p99 %.1f  p99.9 %.1f@."
    r.mean_us r.p50_us r.p95_us r.p99_us r.p999_us;
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
      Format.fprintf fmt "  t=%.2fms cell %d -> %s (%s)@." ms cell state cause)
    r.transitions;
  Format.fprintf fmt "  verdict: %s@."
    (if not r.completed_run then "HUNG"
     else if not r.intact then "CORRUPT"
     else "ok")
