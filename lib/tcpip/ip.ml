open Uls_engine
open Uls_host
open Uls_nic

type partial = {
  mutable total : int;
  mutable got : int;
  mutable payload : Segment.ip_payload option;
  born : Time.ns;
}

type handles = {
  h_tx_datagrams : Stats.Counter.t;
  h_tx_frames : Stats.Counter.t;
  h_rx_datagrams : Stats.Counter.t;
  h_interrupts : Stats.Counter.t;
  h_frames_per_interrupt : Stats.Summary.t;
}

type t = {
  node : Node.t;
  nic : Tigon.t;
  cpu : Resource.t;
  config : Config.t;
  metrics : Metrics.t;
  mh : handles;
  trace : Trace.t;
  mutable handler : src:int -> Segment.ip_payload -> unit;
  pending : Uls_ether.Frame.t Queue.t;
  arrival : Cond.t;
  reasm : (int * int, partial) Hashtbl.t;
  mutable next_ip_id : int;
  mutable dropped : int;
}

let model t = Node.model t.node
let sim t = Node.sim t.node

let set_handler t h = t.handler <- h
let datagrams_delivered t = Stats.Counter.value t.mh.h_rx_datagrams
let datagrams_dropped t = t.dropped

(* --- transmit ------------------------------------------------------- *)

let nic_tx t frame =
  let m = model t in
  Sim.spawn (sim t) ~name:"nic-tx" (fun () ->
      Tigon.dma t.nic ~bytes:frame.Uls_ether.Frame.payload_len;
      Tigon.tx_work t.nic m.Cost_model.nic_tx_per_frame;
      Tigon.transmit t.nic frame)

let send t ~dst payload =
  let m = model t in
  let me = Node.id t.node in
  let total = Segment.payload_bytes payload in
  t.next_ip_id <- t.next_ip_id + 1;
  let id = t.next_ip_id in
  let per = Segment.max_fragment_payload in
  Stats.Counter.incr t.mh.h_tx_datagrams;
  if Trace.enabled t.trace then
    Trace.instant t.trace ~layer:Trace.Tcpip ~node:me ~seq:id "ip.tx"
      ~args:[ ("bytes", string_of_int total); ("dst", string_of_int dst) ];
  let rec emit off first =
    let remaining = total - off in
    if remaining > 0 || first then begin
      let carried = min per remaining in
      Stats.Counter.incr t.mh.h_tx_frames;
      Resource.use t.cpu m.Cost_model.driver_tx_per_frame;
      Resource.use t.cpu m.Cost_model.pio_write;
      let fp : Uls_ether.Frame.payload =
        if first then Segment.Ip_first { ip_id = id; total_bytes = total; carried; payload }
        else Segment.Ip_cont { ip_id = id; carried }
      in
      let frame =
        Uls_ether.Frame.make ~src:me ~dst
          ~payload_len:(Segment.ip_header_bytes + carried)
          fp
      in
      nic_tx t frame;
      emit (off + carried) false
    end
  in
  emit 0 true

(* --- receive -------------------------------------------------------- *)

let evict_stale t =
  (* Bound reassembly state: drop partials older than 100 ms. *)
  if Hashtbl.length t.reasm > 64 then begin
    let now = Sim.now (sim t) in
    let stale =
      Hashtbl.fold
        (fun k p acc -> if now - p.born > Time.ms 100 then k :: acc else acc)
        t.reasm []
    in
    List.iter
      (fun k ->
        Hashtbl.remove t.reasm k;
        t.dropped <- t.dropped + 1)
      stale
  end

let deliver t ~src payload =
  Stats.Counter.incr t.mh.h_rx_datagrams;
  if Trace.enabled t.trace then
    Trace.instant t.trace ~layer:Trace.Tcpip ~node:(Node.id t.node) "ip.rx"
      ~args:[ ("src", string_of_int src) ];
  t.handler ~src payload

let ip_input t (frame : Uls_ether.Frame.t) =
  let src = frame.Uls_ether.Frame.src in
  let feed ~ip_id ~carried ~total ~payload =
    let key = (src, ip_id) in
    let p =
      match Hashtbl.find_opt t.reasm key with
      | Some p -> p
      | None ->
        let p = { total; got = 0; payload = None; born = Sim.now (sim t) } in
        Hashtbl.replace t.reasm key p;
        evict_stale t;
        p
    in
    p.got <- p.got + carried;
    if total < p.total then p.total <- total;
    (match payload with Some pl -> p.payload <- Some pl | None -> ());
    if p.got >= p.total then begin
      Hashtbl.remove t.reasm key;
      match p.payload with
      | Some pl -> deliver t ~src pl
      | None -> t.dropped <- t.dropped + 1
    end
  in
  match frame.Uls_ether.Frame.payload with
  | Segment.Ip_first { ip_id; total_bytes; carried; payload } ->
    if carried >= total_bytes then deliver t ~src payload
    else feed ~ip_id ~carried ~total:total_bytes ~payload:(Some payload)
  | Segment.Ip_cont { ip_id; carried } ->
    feed ~ip_id ~carried ~total:max_int ~payload:None
  | _ -> ()

(* One interrupt serves every frame accumulated during the coalescing
   window; upper-layer processing runs in this fiber, serialising all
   kernel receive work on the node's CPU. *)
let dispatcher t () =
  let m = model t in
  let rec loop () =
    if Queue.is_empty t.pending then begin
      Cond.wait t.arrival;
      loop ()
    end
    else begin
      let deadline = Sim.now (sim t) + t.config.Config.rx_coalesce in
      let rec coalesce () =
        let remaining = deadline - Sim.now (sim t) in
        if
          Queue.length t.pending < t.config.Config.rx_coalesce_frames
          && remaining > 0
        then
          match Cond.wait_timeout t.arrival remaining with
          | `Ok -> coalesce ()
          | `Timeout -> ()
      in
      coalesce ();
      Stats.Counter.incr t.mh.h_interrupts;
      Stats.Summary.add t.mh.h_frames_per_interrupt
        (float_of_int (Queue.length t.pending));
      Resource.use t.cpu m.Cost_model.interrupt;
      let sp =
        if Trace.enabled t.trace then
          Trace.span_begin t.trace ~layer:Trace.Tcpip ~node:(Node.id t.node)
            "ip.rx_batch"
            ~args:[ ("frames", string_of_int (Queue.length t.pending)) ]
        else 0
      in
      let rec drain () =
        match Queue.take_opt t.pending with
        | None -> ()
        | Some frame ->
          Resource.use t.cpu m.Cost_model.driver_rx_per_frame;
          ip_input t frame;
          drain ()
      in
      drain ();
      if sp > 0 then
        Trace.span_end t.trace ~layer:Trace.Tcpip ~node:(Node.id t.node)
          "ip.rx_batch" sp;
      loop ()
    end
  in
  loop ()

let create node nic ~cpu ~config =
  let metrics = Metrics.for_sim (Node.sim node) in
  let counter name = Metrics.counter metrics ~node:(Node.id node) name in
  let histogram name = Metrics.histogram metrics ~node:(Node.id node) name in
  let t =
    {
      node;
      nic;
      cpu;
      config;
      metrics;
      mh =
        {
          h_tx_datagrams = counter "ip.tx_datagrams";
          h_tx_frames = counter "ip.tx_frames";
          h_rx_datagrams = counter "ip.rx_datagrams";
          h_interrupts = counter "ip.interrupts";
          h_frames_per_interrupt = histogram "ip.frames_per_interrupt";
        };
      trace = Trace.for_sim (Node.sim node);
      handler = (fun ~src:_ _ -> ());
      pending = Queue.create ();
      arrival =
        Cond.create
          ~label:(Printf.sprintf "ip:%d arrival" (Node.id node))
          (Node.sim node);
      reasm = Hashtbl.create 16;
      next_ip_id = 0;
      dropped = 0;
    }
  in
  let m = Node.model node in
  Tigon.set_firmware_rx nic (fun ~queue frame ->
      Sim.spawn (Node.sim node) ~name:"nic-rx" (fun () ->
          Tigon.rx_work ~queue nic m.Cost_model.nic_rx_per_frame;
          Tigon.dma nic ~bytes:frame.Uls_ether.Frame.payload_len;
          Queue.push frame t.pending;
          Cond.signal t.arrival));
  Sim.spawn (Node.sim node) ~name:"ip-dispatch" ~daemon:true (dispatcher t);
  t
