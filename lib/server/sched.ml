(** Connection scheduler: dispatcher + worker-pool fibers over {!Evq}.
    See the .mli for the scheduling and backpressure contract. *)

open Uls_engine
module Api = Uls_api.Sockets_api

type reaction = {
  replies : string list;
  close : bool;
}

type handler = Api.addr -> string -> reaction

type config = {
  workers : int;
  max_inflight : int;
  reject : string option;
  embryo_timeout : int;
}

let default_config =
  {
    workers = 4;
    max_inflight = max_int;
    reject = None;
    embryo_timeout = Time.s 2;
  }

let chunk = 65_536

(* Max accepts drained per readiness event. *)
let accept_batch = 16

type conn = {
  c_id : int;
  c_stream : Api.stream;
  c_react : string -> reaction;
  mutable c_embryo : int;
      (* the embryo timer's {!Sim.timer} handle while half-open
         (accepted, no byte yet), else -1: the first byte and close both
         cancel it, so no timer outlives the half-open state or keeps a
         served or closed connection reachable *)
  mutable c_open : bool;
  mutable c_queued : bool;
      (* in the run queue (or being processed by a worker): readiness
         events for a queued connection are ignored — the worker
         re-checks [readable] when it finishes the current chunk, so no
         wake-up is lost and no connection sits in the queue twice *)
  mutable c_handle : payload Evq.handle option;
}

and payload = Accept | Conn of conn

type handles = {
  h_closes : Stats.Counter.t;
  h_dispatches : Stats.Counter.t;
  g_backlog : float ref;
  h_shed : Stats.Counter.t;
  h_accepts : Stats.Counter.t;
  h_embryo_closed : Stats.Counter.t;
}

type t = {
  sim : Sim.t;
  node : int;
  cfg : config;
  listener : Api.listener;
  handler : handler;
  evq : payload Evq.t;
  runq : conn option Mailbox.t;  (* None = worker stop sentinel *)
  metrics : Metrics.t;
  mh : handles;
  conns : (int, conn) Hashtbl.t;
  mutable next_id : int;
  mutable inflight : int;
  mutable peak_inflight : int;
  mutable running : bool;
}

let inflight t = t.inflight
let peak_inflight t = t.peak_inflight
let accepted t = Stats.Counter.value t.mh.h_accepts
let shed t = Stats.Counter.value t.mh.h_shed

let disarm_embryo t c =
  if c.c_embryo >= 0 then begin
    Sim.cancel t.sim c.c_embryo;
    c.c_embryo <- -1
  end

let close_conn t c =
  if c.c_open then begin
    c.c_open <- false;
    disarm_embryo t c;
    (match c.c_handle with Some h -> Evq.deregister h | None -> ());
    Hashtbl.remove t.conns c.c_id;
    (try c.c_stream.close () with _ -> ());
    t.inflight <- t.inflight - 1;
    Stats.Counter.incr t.mh.h_closes
  end

(* The readable guard keeps a spurious edge event from parking the
   worker inside recv on an idle connection. *)
let one_chunk t c =
  Stats.Counter.incr t.mh.h_dispatches;
  let data = try c.c_stream.recv chunk with _ -> "" in
  if data = "" then close_conn t c
  else begin
    disarm_embryo t c;
    match c.c_react data with
    | exception _ -> close_conn t c
    | r ->
      List.iter
        (fun reply ->
          if c.c_open then
            try c.c_stream.send reply with _ -> close_conn t c)
        r.replies;
      if r.close then close_conn t c
  end

(* One read chunk per dispatch: the fairness quantum. *)
let process t c =
  if c.c_open && c.c_stream.readable () then one_chunk t c;
  (* Fairness: still-hungry connections go to the back of the queue
     (c_queued stays true — no double enqueue from a racing event). *)
  if c.c_open && c.c_stream.readable () then Mailbox.send t.runq (Some c)
  else c.c_queued <- false

let update_backlog t =
  t.mh.g_backlog := float_of_int (try t.listener.pending () with _ -> 0)

let arm_embryo_timer t c =
  c.c_embryo <-
    Sim.timer t.sim (Sim.now t.sim + t.cfg.embryo_timeout) (fun () ->
        c.c_embryo <- -1;
        Stats.Counter.incr t.mh.h_embryo_closed;
        Sim.spawn t.sim
          ~name:(Printf.sprintf "sched-embryo-%d.%d" t.node c.c_id)
          ~daemon:true
          (fun () -> close_conn t c))

let drain_accepts t =
  let n = ref 0 in
  let stop = ref false in
  (* try_accept, never accept: a blocking accept would wedge the
     dispatcher fiber — and the whole event loop — on a queue entry the
     stack resolves internally (e.g. a duplicate connect request). *)
  while t.running && not !stop && !n < accept_batch do
    incr n;
    match t.listener.try_accept () with
    | exception _ -> stop := true
    | None -> stop := true
    | Some (stream, peer) ->
      if t.inflight >= t.cfg.max_inflight then begin
        (* Shed with an explicit reject: the client learns immediately
           instead of timing out against a saturated server. *)
        (match t.cfg.reject with
        | Some bytes -> ( try stream.send bytes with _ -> ())
        | None -> ());
        (try stream.close () with _ -> ());
        Stats.Counter.incr t.mh.h_shed
      end
      else begin
        t.inflight <- t.inflight + 1;
        if t.inflight > t.peak_inflight then t.peak_inflight <- t.inflight;
        Stats.Counter.incr t.mh.h_accepts;
        let c =
          {
            c_id = t.next_id;
            c_stream = stream;
            c_react = t.handler peer;
            c_embryo = -1;
            c_open = true;
            c_queued = false;
            c_handle = None;
          }
        in
        t.next_id <- t.next_id + 1;
        Hashtbl.replace t.conns c.c_id c;
        (* Edge-triggered: a level conn handle still queued behind a
           busy worker would be re-armed by every Evq.wait and spin the
           dispatcher. The worker re-checks [readable] when it finishes
           a chunk, which is exactly the edge consumer's drain duty.
           register still checks readiness immediately, so a request
           pipelined behind the connect is dispatched at once. *)
        c.c_handle <-
          Some
            (Evq.register t.evq ~mode:Evq.Edge ~readable:stream.readable
               ~watch:stream.watch (Conn c));
        (* Embryo timer (one-shot, per connection — a perpetual sweeper
           tick would keep the cluster from ever quiescing): a client
           that abandoned the handshake after we built the connection
           never sends a byte, and its half-open orphan must not pin an
           inflight slot forever. A plain callback, not a sleeping
           fiber; it spawns a fiber (close may block) only for an
           embryo it actually closes. *)
        if t.cfg.embryo_timeout > 0 && t.cfg.embryo_timeout < max_int then
          arm_embryo_timer t c
      end
  done;
  update_backlog t

let dispatcher t () =
  while t.running do
    let batch = Evq.wait t.evq in
    List.iter
      (function
        | Accept -> if t.running then drain_accepts t
        | Conn c ->
          if c.c_open && not c.c_queued then begin
            c.c_queued <- true;
            Mailbox.send t.runq (Some c)
          end)
      batch
  done

let worker t () =
  let rec loop () =
    match Mailbox.recv t.runq with
    | None -> ()
    | Some c ->
      process t c;
      loop ()
  in
  loop ()

let start sim ~node ?(config = default_config) ~listener ~handler () =
  let metrics = Metrics.for_sim sim in
  let counter name = Metrics.counter metrics ~node name in
  let t =
    {
      sim;
      node;
      cfg = config;
      listener;
      handler;
      evq = Evq.create sim ~node;
      runq = Mailbox.create ~label:(Printf.sprintf "sched:%d runq" node) sim;
      metrics;
      mh =
        {
          h_closes = counter "server.sched.closes";
          h_dispatches = counter "server.sched.dispatches";
          g_backlog = Metrics.gauge metrics ~node "server.listener.backlog";
          h_shed = counter "server.sched.shed";
          h_accepts = counter "server.sched.accepts";
          h_embryo_closed = counter "server.sched.embryo_closed";
        };
      conns = Hashtbl.create 64;
      next_id = 0;
      inflight = 0;
      peak_inflight = 0;
      running = true;
    }
  in
  ignore
    (Evq.register t.evq ~readable:listener.acceptable
       ~watch:listener.watch_accept Accept);
  (* Dispatcher and workers idle forever between requests; like the
     protocol service fibers they are daemons for deadlock detection. *)
  Sim.spawn sim
    ~name:(Printf.sprintf "sched-dispatch-%d" node)
    ~daemon:true (dispatcher t);
  for i = 1 to config.workers do
    Sim.spawn sim
      ~name:(Printf.sprintf "sched-worker-%d.%d" node i)
      ~daemon:true (worker t)
  done;
  t

let stop t =
  if t.running then begin
    t.running <- false;
    (try t.listener.close_listener () with _ -> ());
    Evq.kick t.evq;
    for _ = 1 to t.cfg.workers do
      Mailbox.send t.runq None
    done;
    let open_conns = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
    List.iter (close_conn t) open_conns
  end
