open Uls_engine

type port = {
  egress : Link.t;
  mutable queued_bytes : int;
}

type t = {
  sim : Sim.t;
  metrics : Metrics.t;
  drop_counters : (string, Stats.Counter.t) Hashtbl.t;
      (* cause -> handle, memoised so the hot drop path skips the
         registry's name lookup *)
  trace : Trace.t;
  fwd_latency : Time.ns;
  queue_limit : int;
  ports : port array;
  mac_table : (int, int) Hashtbl.t; (* station id -> port *)
  mutable verdict : port:int -> Frame.t -> Fault.decision;
  mutable forwarded : int;
  mutable dropped : int;
}

let create sim ?(fwd_latency = 2_500) ?(queue_limit = 262_144) ~ports () =
  let make_port i =
    {
      egress = Link.create sim ~name:(Printf.sprintf "sw-egress-%d" i) ();
      queued_bytes = 0;
    }
  in
  {
    sim;
    metrics = Metrics.for_sim sim;
    drop_counters = Hashtbl.create 4;
    trace = Trace.for_sim sim;
    fwd_latency;
    queue_limit;
    ports = Array.init ports make_port;
    mac_table = Hashtbl.create 16;
    verdict = (fun ~port:_ _ -> Fault.Deliver);
    forwarded = 0;
    dropped = 0;
  }

let egress t ~port = t.ports.(port).egress
let station_port t ~station = Hashtbl.find_opt t.mac_table station

let connect_station t ~port ~station handler =
  Hashtbl.replace t.mac_table station port;
  Link.set_receiver t.ports.(port).egress handler

(* Legacy boolean filter: a [true] verdict is a plain drop, attributed
   to the ["filter"] cause. *)
let set_fault_filter t f =
  t.verdict <-
    (fun ~port:_ frame -> if f frame then Fault.Drop "filter" else Fault.Deliver)

(* Link names are built once here, so a frame pays only the engine's
   inactive-check branch when no plan is installed. *)
let set_fault t fault =
  let links =
    Array.init (Array.length t.ports) (fun port ->
        Printf.sprintf "sw-in-%d" port)
  in
  t.verdict <-
    (fun ~port frame ->
      Fault.decide fault ~link:links.(port) ~src:frame.Frame.src
        ~dst:frame.Frame.dst)

let frames_forwarded t = t.forwarded
let frames_dropped t = t.dropped

(* Every frame the switch loses is attributed to a cause, so a chaos run
   can account for each missing frame: [switch.drop.unknown_dst] (MAC
   table miss), [switch.drop.queue_full] (egress overflow) and
   [switch.drop.fault] (injected). *)
let drop t frame ~cause =
  t.dropped <- t.dropped + 1;
  let c =
    match Hashtbl.find_opt t.drop_counters cause with
    | Some c -> c
    | None ->
      let c = Metrics.counter t.metrics ("switch.drop." ^ cause) in
      Hashtbl.add t.drop_counters cause c;
      c
  in
  Stats.Counter.incr c;
  Trace.instant t.trace ~layer:Trace.Net "switch.drop"
    ~args:
      [
        ("cause", cause);
        ("src", string_of_int frame.Frame.src);
        ("dst", string_of_int frame.Frame.dst);
      ]

let forward t frame =
  match Hashtbl.find_opt t.mac_table frame.Frame.dst with
  | None -> drop t frame ~cause:"unknown_dst"
  | Some out ->
    let p = t.ports.(out) in
    let wire = Frame.wire_bytes frame in
    if p.queued_bytes + wire > t.queue_limit then
      drop t frame ~cause:"queue_full"
    else begin
      p.queued_bytes <- p.queued_bytes + wire;
      t.forwarded <- t.forwarded + 1;
      let finish = Link.busy_until p.egress + Link.transmit_time p.egress frame in
      Link.send p.egress frame;
      (* Reclaim queue space when the frame has left the port. *)
      Sim.at t.sim finish (fun () -> p.queued_bytes <- p.queued_bytes - wire)
    end

let ingress t ~port frame =
  let forward_after extra frame =
    Sim.at t.sim (Sim.now t.sim + t.fwd_latency + extra) (fun () -> forward t frame)
  in
  match t.verdict ~port frame with
  | Fault.Deliver -> forward_after 0 frame
  | Fault.Drop cause ->
    (* Injected drops all count as "fault"; the legacy boolean filter
       keeps its own cause so old tests can tell them apart. *)
    drop t frame ~cause:(if cause = "filter" then "filter" else "fault")
  | Fault.Corrupt -> forward_after 0 (Frame.corrupt frame)
  | Fault.Duplicate ->
    forward_after 0 frame;
    forward_after 0 frame
  | Fault.Delay extra -> forward_after extra frame
