(** Small-message datagram firehose: one source node sprays patterned
    datagrams at [sinks] sink nodes over substrate connections, sweeping
    message size x submission batch depth. [batch = 1] takes exactly the
    legacy per-call path (write/read, one doorbell per operation);
    [batch > 1] drives the ring-based batched I/O subsystem end to end —
    [Conn.writev] staging through the endpoint's tx ring under one
    doorbell per batch, and [Conn.readv] reposting consumed receive
    descriptors through the fill ring ([Options.rx_ring]). Deterministic
    for a given config; the optional fault engine makes it the rings
    chaos leg. *)

open Uls_engine
module Sub = Uls_substrate.Substrate
module Conn = Uls_substrate.Conn
module Options = Uls_substrate.Options
module E = Uls_emp.Endpoint

type config = {
  sinks : int;  (** sink nodes (the source is node 0) *)
  count : int;  (** messages per sink *)
  size : int;  (** payload bytes per message *)
  batch : int;  (** submission batch depth; 1 = per-call ablation *)
  busy_poll : bool;  (** tx ring in wakeup-free busy-poll mode *)
  seed : int;
  loss : float;  (** uniform frame-loss probability (chaos leg) *)
  match_engine : Uls_nic.Match_list.engine;
  event_sched : [ `Heap | `Wheel ];
}

let default =
  {
    sinks = 4;
    count = 2_000;
    size = 64;
    batch = 32;
    busy_poll = false;
    seed = 42;
    loss = 0.;
    match_engine = Uls_nic.Match_list.Hashed;
    event_sched = `Wheel;
  }

type report = {
  messages : int;  (** sinks x count *)
  delivered : int;
  mismatches : int;
  bytes : int;
  elapsed_ms : float;
  pps : float;  (** delivered messages per second of virtual time *)
  mbps : float;
  doorbells : int;  (** source-node [nic.doorbells] *)
  mailbox_fetches : int;  (** source-node [nic.mailbox_fetches] *)
  ring_submitted : int;  (** descriptors through the source tx ring *)
  ring_doorbells : int;  (** doorbells the tx ring issued *)
  faults_injected : int;
  retransmits : int;
  intact : bool;
  completed_run : bool;
}

let liveness_bound = Time.s 60

(* Deterministic per-message payload: distinct across sink, index and
   byte offset, so a lost, duplicated or reordered message shows up as a
   mismatch at the receiver. *)
let message cfg ~sink ~index =
  String.init cfg.size (fun b ->
      Char.chr ((cfg.seed + (sink * 131) + (index * 7919) + (b * 13)) land 0xff))

let run ?on_metrics ?progress cfg =
  if cfg.sinks < 1 then invalid_arg "Firehose.run: sinks < 1";
  if cfg.batch < 1 then invalid_arg "Firehose.run: batch < 1";
  let c =
    Cluster.create ~match_engine:cfg.match_engine ~sched:cfg.event_sched
      ~n:(cfg.sinks + 1) ()
  in
  let sim = Cluster.sim c in
  let fault = Cluster.fault ~seed:cfg.seed c in
  if cfg.loss > 0. then
    Fault.set_default_plan fault (Fault.uniform_loss cfg.loss);
  (* The fill-ring repost path is a property of the receive side, but
     options are per-node and uniform here: the source never reads data
     messages, so setting [rx_ring] everywhere only changes sinks.
     Credits must cover several submission batches or the source
     ping-pongs on the ack round trip in window-sized lockstep — the
     same sizing rule as hardware SQ depth vs completion latency. The
     window is identical across batch depths so the batch=1 ablation
     differs only in submission path, not flow control. *)
  let opts =
    {
      Options.datagram with
      Options.rx_ring = cfg.batch > 1;
      credits = max 32 (2 * cfg.batch);
    }
  in
  let sub = Array.init (cfg.sinks + 1) (fun i -> Cluster.substrate ~opts c i) in
  if cfg.busy_poll then
    ignore
      (E.get_tx_ring ~mode:Uls_rings.Ringpair.Busy_poll (Sub.emp sub.(0)));
  let starts = Array.make cfg.sinks max_int in
  let ends = Array.make cfg.sinks 0 in
  let delivered = ref 0 and mismatches = ref 0 in
  (* Sinks: accept one connection, consume [count] messages (batched
     drain when batch > 1), confirm, then drain to EOF. *)
  for k = 0 to cfg.sinks - 1 do
    Sim.spawn sim
      ~name:(Printf.sprintf "fire-sink-%d" k)
      (fun () ->
        let s = sub.(k + 1) in
        let l = Sub.listen s ~port:80 ~backlog:4 in
        let conn, _ = Sub.accept s l in
        let got = ref 0 in
        let eof = ref false in
        let consume msg =
          if not (String.equal msg (message cfg ~sink:k ~index:!got)) then
            incr mismatches;
          incr got;
          incr delivered;
          match progress with
          | Some (every, f) when !delivered mod every = 0 -> f ()
          | _ -> ()
        in
        while !got < cfg.count && not !eof do
          if cfg.batch > 1 then
            match Conn.readv conn ~max:cfg.batch with
            | [] -> eof := true
            | msgs -> List.iter consume msgs
          else begin
            let msg = Conn.read conn cfg.size in
            if msg = "" then eof := true else consume msg
          end
        done;
        ends.(k) <- Sim.now sim;
        if not !eof then begin
          Conn.write conn "k";
          while Conn.read conn 1 <> "" do
            ()
          done
        end;
        Conn.close conn;
        Sub.close_listener s l)
  done;
  (* Source: one fiber per sink, spraying [count] messages in [batch]-
     deep gathered writes. *)
  for k = 0 to cfg.sinks - 1 do
    Sim.spawn sim
      ~name:(Printf.sprintf "fire-src-%d" k)
      (fun () ->
        Sim.delay sim (Time.us 50);
        let conn =
          Sub.connect sub.(0) { Uls_api.Sockets_api.node = k + 1; port = 80 }
        in
        starts.(k) <- Sim.now sim;
        let j = ref 0 in
        while !j < cfg.count do
          if cfg.batch > 1 then begin
            let n = min cfg.batch (cfg.count - !j) in
            Conn.writev conn
              (List.init n (fun i -> message cfg ~sink:k ~index:(!j + i)));
            j := !j + n
          end
          else begin
            Conn.write conn (message cfg ~sink:k ~index:!j);
            incr j
          end
        done;
        ignore (Conn.read conn 1);
        Conn.close conn)
  done;
  let outcome = Cluster.run ~until:liveness_bound c in
  let metrics = Metrics.for_sim sim in
  (match on_metrics with Some f -> f metrics | None -> ());
  let messages = cfg.sinks * cfg.count in
  let t0 = Array.fold_left min max_int starts in
  let t1 = Array.fold_left max 0 ends in
  let elapsed = if t1 > t0 then t1 - t0 else 1 in
  let src_counter name = Metrics.counter_value metrics ~node:0 name in
  let retransmits = ref 0 in
  for i = 0 to cfg.sinks do
    retransmits :=
      !retransmits + Metrics.counter_value metrics ~node:i "emp.frames_retransmitted"
  done;
  let ring_submitted, ring_doorbells =
    match E.tx_ring_stats (Sub.emp sub.(0)) with
    | Some st ->
      (st.Uls_rings.Ringpair.submitted, st.Uls_rings.Ringpair.doorbells)
    | None -> (0, 0)
  in
  let completed_run = outcome = `Quiescent && !delivered = messages in
  {
    messages;
    delivered = !delivered;
    mismatches = !mismatches;
    bytes = !delivered * cfg.size;
    elapsed_ms = float_of_int elapsed /. 1e6;
    pps =
      (if completed_run then float_of_int !delivered /. (float_of_int elapsed /. 1e9)
       else 0.);
    mbps =
      (if completed_run then
         Time.mbps ~bytes_transferred:(!delivered * cfg.size) ~elapsed
       else 0.);
    doorbells = src_counter "nic.doorbells";
    mailbox_fetches = src_counter "nic.mailbox_fetches";
    ring_submitted;
    ring_doorbells;
    faults_injected = Fault.faults_injected fault;
    retransmits = !retransmits;
    intact = !mismatches = 0 && !delivered = messages;
    completed_run;
  }

let print_report fmt cfg (r : report) =
  Format.fprintf fmt
    "firehose: %d sinks x %d msgs x %d B, batch %d%s%s@." cfg.sinks cfg.count
    cfg.size cfg.batch
    (if cfg.busy_poll then ", busy-poll" else "")
    (if cfg.loss > 0. then Printf.sprintf ", loss %.1f%%" (cfg.loss *. 100.)
     else "");
  Format.fprintf fmt
    "  delivered %d/%d in %.3f ms -> %.0f msg/s (%.1f Mb/s)@." r.delivered
    r.messages r.elapsed_ms r.pps r.mbps;
  Format.fprintf fmt
    "  source NIC: %d doorbells, %d mailbox fetches; tx ring: %d submitted, \
     %d doorbells@."
    r.doorbells r.mailbox_fetches r.ring_submitted r.ring_doorbells;
  if r.faults_injected > 0 || r.retransmits > 0 then
    Format.fprintf fmt "  chaos: %d faults injected, %d frames retransmitted@."
      r.faults_injected r.retransmits;
  Format.fprintf fmt "  %s@."
    (if r.completed_run && r.intact then "ok"
     else if not r.completed_run then "INCOMPLETE"
     else "CORRUPT")
