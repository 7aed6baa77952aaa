(** Sharded serving fabric: K server cells behind a consistent-hash L4
    balancer, with health checking, draining, and failover. See the
    .mli for the topology contract. *)

open Uls_engine
module Api = Uls_api.Sockets_api
module Server = Uls_server.Server

type cell_state = Up | Draining | Drained | Down

let state_name = function
  | Up -> "up"
  | Draining -> "draining"
  | Drained -> "drained"
  | Down -> "down"

type event = {
  at : Time.ns;
  cell : int;
  to_state : cell_state;
  cause : string;
}

type config = {
  port : int;
  backlog : int;
  shards : int;
  sched : Uls_server.Sched.config option;
  workload : Server.workload;
  vnodes : int;
  ring_seed : int;
  probe_node : int option;
}

let default_config =
  {
    port = 80;
    (* Each posted backlog descriptor is an entry in the cell NIC's
       linear match list — every RX frame pays for it. *)
    backlog = 128;
    shards = 4;
    sched = None;
    workload = Server.Echo;
    vnodes = 128;
    ring_seed = 0;
    probe_node = None;
  }

let probe_period = Time.ms 5
let fail_threshold = 2

(* Auto-rejoin matters under overload: a cell that sheds connects while
   saturated is alive, and probes prove it the moment the burst passes.
   A truly dead (paused) cell keeps failing probes, so it never
   accumulates the successes needed to rejoin. *)
let rejoin_threshold = 2

type cell = {
  id : int;
  node : int;
  server : Server.t;
  mutable state : cell_state;
  mutable fails : int;  (* consecutive probe/data-path failures *)
  mutable oks : int;  (* consecutive probe successes while Down *)
  mutable drain_open : int;  (* connections open when draining began *)
}

type handles = {
  h_cell_up : Stats.Counter.t;
  h_cell_draining : Stats.Counter.t;
  h_cell_drained : Stats.Counter.t;
  h_cell_down : Stats.Counter.t;
  g_ring_cells : float ref;
  h_connects : Stats.Counter.t;
  h_probes_ok : Stats.Counter.t;
  h_probes_failed : Stats.Counter.t;
}

type t = {
  sim : Sim.t;
  api : Api.stack;
  cfg : config;
  ring : Ring.t;
  cells : cell array;
  metrics : Metrics.t;
  mh : handles;
  mutable events : event list;  (* newest first *)
  mutable running : bool;
}

exception No_live_cells

let record t cell to_state cause =
  cell.state <- to_state;
  t.events <- { at = Sim.now t.sim; cell = cell.id; to_state; cause } :: t.events;
  Stats.Counter.incr
    (match to_state with
    | Up -> t.mh.h_cell_up
    | Draining -> t.mh.h_cell_draining
    | Drained -> t.mh.h_cell_drained
    | Down -> t.mh.h_cell_down);
  t.mh.g_ring_cells := float_of_int (Ring.size t.ring)

let mark_down t cell ~cause =
  if cell.state = Up then begin
    Ring.remove t.ring cell.id;
    record t cell Down cause
  end

let rejoin t cell ~cause =
  if cell.state = Down then begin
    cell.fails <- 0;
    cell.oks <- 0;
    Ring.add t.ring cell.id;
    record t cell Up cause
  end

(* Passive + active health share one counter: a data-path connect
   failure is as good a signal as a failed probe (and usually earlier,
   since probes only fire every [probe_period]). *)
let note_failure t cell ~cause =
  cell.oks <- 0;
  if cell.state = Up then begin
    cell.fails <- cell.fails + 1;
    if cell.fails >= fail_threshold then mark_down t cell ~cause
  end

let note_success t cell =
  cell.fails <- 0;
  if cell.state = Down then begin
    cell.oks <- cell.oks + 1;
    if cell.oks >= rejoin_threshold then rejoin t cell ~cause:"probe-recovered"
  end

let flow_key ~client_node ~flow ~port =
  Ring.hash2 ~seed:port client_node flow

let route t ~key =
  match Ring.lookup t.ring ~key with
  | None -> raise No_live_cells
  | Some id -> id

let connect t ~client_node ~key =
  let id = route t ~key in
  let cell = t.cells.(id) in
  Stats.Counter.incr t.mh.h_connects;
  match
    t.api.Api.connect ~node:client_node { node = cell.node; port = t.cfg.port }
  with
  | stream ->
    note_success t cell;
    (stream, id)
  | exception e ->
    note_failure t cell ~cause:"connect-failed";
    raise e

(* One prober fiber per cell, staggered by cell id so probes never
   synchronise. A probe is a full connect + close through the stack
   under test — the same path real L4 health checks take. *)
let prober t cell () =
  let probe_node = Option.get t.cfg.probe_node in
  Sim.delay t.sim (Time.us (97 * (cell.id + 1)));
  while t.running do
    Sim.delay t.sim probe_period;
    if t.running then begin
      match cell.state with
      | Draining | Drained -> ()
      | Up | Down -> (
        match
          t.api.Api.connect ~node:probe_node
            { node = cell.node; port = t.cfg.port }
        with
        | s ->
          (try s.Api.close () with _ -> ());
          Stats.Counter.incr t.mh.h_probes_ok;
          note_success t cell
        | exception _ ->
          Stats.Counter.incr t.mh.h_probes_failed;
          note_failure t cell ~cause:"probe-timeout")
    end
  done

let drain t id =
  let cell = t.cells.(id) in
  if cell.state = Up then begin
    Ring.remove t.ring cell.id;
    cell.drain_open <- Server.inflight cell.server;
    record t cell Draining "drain-requested";
    (* Watch the cell empty: no new flows arrive (it left the ring), so
       inflight only falls; when it reaches zero the cell stops clean. *)
    Sim.spawn t.sim
      ~name:(Printf.sprintf "fabric-drain-%d" id)
      ~daemon:true
      (fun () ->
        let rec watch () =
          Sim.delay t.sim probe_period;
          if t.running && cell.state = Draining then
            if Server.inflight cell.server = 0 then begin
              Server.stop cell.server;
              record t cell Drained "drain-complete"
            end
            else watch ()
        in
        watch ())
  end

let create sim (api : Api.stack) ~nodes config =
  if nodes = [] then invalid_arg "Fabric.create: no cells";
  let ring = Ring.create ~vnodes:config.vnodes ~seed:config.ring_seed () in
  let cells =
    Array.of_list
      (List.mapi
         (fun id node ->
           let server =
             Server.start sim api ~node ~port:config.port
               ~backlog:config.backlog ?config:config.sched
               ~shards:config.shards config.workload
           in
           { id; node; server; state = Up; fails = 0; oks = 0; drain_open = 0 })
         nodes)
  in
  Array.iter (fun c -> Ring.add ring c.id) cells;
  let metrics = Metrics.for_sim sim in
  let counter name = Metrics.counter metrics name in
  let t =
    {
      sim;
      api;
      cfg = config;
      ring;
      cells;
      metrics;
      mh =
        {
          h_cell_up = counter "fabric.cell.up";
          h_cell_draining = counter "fabric.cell.draining";
          h_cell_drained = counter "fabric.cell.drained";
          h_cell_down = counter "fabric.cell.down";
          g_ring_cells = Metrics.gauge metrics "fabric.ring.cells";
          h_connects = counter "fabric.connects";
          h_probes_ok = counter "fabric.probes.ok";
          h_probes_failed = counter "fabric.probes.failed";
        };
      events = [];
      running = true;
    }
  in
  t.mh.g_ring_cells := float_of_int (Ring.size ring);
  (match config.probe_node with
  | Some _ ->
    Array.iter
      (fun c ->
        Sim.spawn sim
          ~name:(Printf.sprintf "fabric-prober-%d" c.id)
          ~daemon:true (prober t c))
      cells
  | None -> ());
  t

let stop t =
  if t.running then begin
    t.running <- false;
    Array.iter
      (fun c -> if c.state <> Drained then Server.stop c.server)
      t.cells
  end

let cell_state t id = t.cells.(id).state
let server t id = t.cells.(id).server
let drain_open t id = t.cells.(id).drain_open
let events t = List.rev t.events
let config t = t.cfg
