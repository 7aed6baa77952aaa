(** The ring workloads, firehose and storm, over one envelope: cluster,
    busy-poll rings, the liveness bound, per-lane timing, the audit
    counters and the verdict are written once here; each workload only
    spawns its fibers. See the .mli for both workloads. *)

open Uls_engine
open Uls_host
module Sub = Uls_substrate.Substrate
module Conn = Uls_substrate.Conn
module Options = Uls_substrate.Options
module Tags = Uls_substrate.Tags
module Codec = Uls_substrate.Codec
module E = Uls_emp.Endpoint

type firehose = {
  sinks : int;  (** sink nodes (the source is node 0) *)
  count : int;  (** messages per sink *)
  size : int;  (** payload bytes per message *)
  seed : int;  (** message pattern and fault-engine seed *)
  loss : float;  (** uniform frame-loss probability (chaos leg) *)
}

type storm = {
  scanners : int;
  targets : int;
  window : int;  (** probe slots (concurrent probes) per scanner *)
  probes : int;  (** probes per scanner *)
  backlog : int;  (** per-target listen backlog *)
}

type workload = Firehose of firehose | Storm of storm

type config = {
  workload : workload;
  batch : int;  (** descriptors per doorbell; 1 = per-call ablation *)
  busy_poll : bool;  (** tx ring in wakeup-free busy-poll mode *)
  match_engine : Uls_nic.Match_list.engine;
}

let firehose = { sinks = 4; count = 2_000; size = 64; seed = 42; loss = 0. }

let storm =
  { scanners = 2; targets = 2; window = 64; probes = 2_000; backlog = 64 }

let default =
  {
    workload = Firehose firehose;
    batch = 32;
    busy_poll = false;
    match_engine = Uls_nic.Match_list.Hashed;
  }

type report = {
  offered : int;
  completed : int;
  failed : int;
  bytes : int;
  elapsed_ms : float;
  rate : float;
  mbps : float;
  doorbells : int;
  mailbox_fetches : int;
  ring_submitted : int;
  ring_doorbells : int;
  faults : int;
  retransmits : int;
  intact : bool;
  completed_run : bool;
}

let liveness_bound = Time.s 60

(* What a workload's fibers share with the envelope. A lane is one
   submitter-to-completer flow (a firehose source/sink pair, a storm
   scanner): it stamps [starts] at its first submission and [ends] at
   its last completion. [complete ~ok] counts one finished operation. *)
type env = {
  c : Cluster.t;
  sim : Sim.t;
  batch : int;
  busy_poll : bool;
  starts : int array;
  ends : int array;
  complete : ok:bool -> unit;
}

(* A submitting node's endpoint, its tx ring in busy-poll mode if asked. *)
let submitter env i =
  let emp = Cluster.emp env.c i in
  if env.busy_poll then
    ignore (E.get_tx_ring ~mode:Uls_rings.Ringpair.Busy_poll emp);
  emp

(* --- firehose --------------------------------------------------------- *)

(* Deterministic per-message payload: distinct across sink, index and
   byte offset, so a lost, duplicated or reordered message shows up as a
   mismatch at the receiver. *)
let message f ~sink ~index =
  String.init f.size (fun b ->
      Char.chr ((f.seed + (sink * 131) + (index * 7919) + (b * 13)) land 0xff))

let start_firehose env f =
  let sim = env.sim and batch = env.batch in
  let fault = Cluster.fault ~seed:f.seed env.c in
  if f.loss > 0. then Fault.set_default_plan fault (Fault.uniform_loss f.loss);
  (* The fill ring carries every node's connection set-up and listen
     backlog, and the sinks' [readv] reposts (the source never reads
     data messages); options are per-node and uniform here.
     Credits must cover several submission batches or the source
     ping-pongs on the ack round trip in window-sized lockstep — the
     same sizing rule as hardware SQ depth vs completion latency. The
     window is identical across batch depths so the batch=1 ablation
     differs only in submission path, not flow control. *)
  let opts =
    {
      Options.datagram with
      Options.rx_ring = batch > 1;
      credits = max 32 (2 * batch);
    }
  in
  let sub =
    Array.init (f.sinks + 1) (fun i -> Cluster.substrate ~opts env.c i)
  in
  (* Arms the source's busy-poll ring, if asked. *)
  ignore (submitter env 0 : E.t);
  (* Sinks: accept one connection, consume [count] messages (batched
     drain when batch > 1), confirm, then drain to EOF. *)
  for k = 0 to f.sinks - 1 do
    Sim.spawn sim
      ~name:(Printf.sprintf "fire-sink-%d" k)
      (fun () ->
        let s = sub.(k + 1) in
        let l = Sub.listen s ~port:80 ~backlog:4 in
        let conn, _ = Sub.accept s l in
        let got = ref 0 in
        let eof = ref false in
        let consume msg =
          let ok = String.equal msg (message f ~sink:k ~index:!got) in
          incr got;
          env.complete ~ok
        in
        while !got < f.count && not !eof do
          if batch > 1 then
            match Conn.readv conn ~max:batch with
            | [] -> eof := true
            | msgs -> List.iter consume msgs
          else begin
            let msg = Conn.read conn f.size in
            if msg = "" then eof := true else consume msg
          end
        done;
        env.ends.(k) <- Sim.now sim;
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
  for k = 0 to f.sinks - 1 do
    Sim.spawn sim
      ~name:(Printf.sprintf "fire-src-%d" k)
      (fun () ->
        Sim.delay sim (Time.us 50);
        let conn =
          Sub.connect sub.(0) { Uls_api.Sockets_api.node = k + 1; port = 80 }
        in
        env.starts.(k) <- Sim.now sim;
        let j = ref 0 in
        while !j < f.count do
          if batch > 1 then begin
            let n = min batch (f.count - !j) in
            Conn.writev conn
              (List.init n (fun i -> message f ~sink:k ~index:(!j + i)));
            j := !j + n
          end
          else begin
            Conn.write conn (message f ~sink:k ~index:!j);
            incr j
          end
        done;
        ignore (Conn.read conn 1);
        Conn.close conn)
  done

(* --- storm ------------------------------------------------------------ *)

(* A probe's connection request: three encoded ints. *)
let probe_bytes = 24

type probe_slot = {
  ps_id : int;  (** probe id = reply tag id; also the fake client conn id *)
  ps_req : Memory.region;
  ps_reply : Memory.region;
  mutable ps_pending : E.send option;
}

(* Returns the targets' side of [intact]: they built exactly one
   connection per accepted probe. *)
let start_storm env s =
  let sim = env.sim in
  let accepted = ref 0 and server_accepts = ref 0 in
  (* Targets: substrate listeners with an accept-and-close drainer. *)
  for i = 0 to s.targets - 1 do
    let node = s.scanners + i in
    let sub = Cluster.substrate ~opts:Options.server env.c node in
    Sim.spawn sim
      ~name:(Printf.sprintf "storm-target-%d" node)
      ~daemon:true
      (fun () ->
        (* listen posts control descriptors, so it must run as a fiber *)
        let l = Sub.listen sub ~port:80 ~backlog:s.backlog in
        while true do
          let conn, _ = Sub.accept sub l in
          incr server_accepts;
          Conn.close conn
        done)
  done;
  (* Scanners: raw-EMP windowed probe engines. *)
  for sidx = 0 to s.scanners - 1 do
    let emp = submitter env sidx in
    let node = Cluster.node env.c sidx in
    let mk_region size =
      let r = Memory.alloc size in
      Os.prepin (Node.os node) r;
      r
    in
    let slots =
      Array.init s.window (fun i ->
          {
            ps_id = i;
            ps_req = mk_region 32;
            ps_reply = mk_region 16;
            ps_pending = None;
          })
    in
    (* Standing close-descriptor per probe slot: the target's close
       notification (tag Close/<probe id>) lands here instead of being
       dropped and retransmitted against a descriptor-less endpoint. *)
    Array.iter
      (fun slot ->
        let region = mk_region 16 in
        Sim.spawn sim
          ~name:(Printf.sprintf "storm-close-drain-%d.%d" sidx slot.ps_id)
          ~daemon:true
          (fun () ->
            while true do
              let r =
                E.post_recv emp ~src:(-1)
                  ~tag:(Tags.make Tags.Close slot.ps_id)
                  region ~off:0 ~len:16
              in
              ignore (E.wait_recv emp r)
            done))
      slots;
    let free = Queue.create () in
    Array.iter (fun slot -> Queue.push slot free) slots;
    let free_c =
      Cond.create ~label:(Printf.sprintf "storm:%d free-slots" sidx) sim
    in
    let replies =
      Mailbox.create ~label:(Printf.sprintf "storm:%d replies" sidx) sim
    in
    let probe_counter = ref 0 in
    (* Submission fiber: take up to [batch] free slots, post their reply
       descriptors through the fill ring, fire the requests through the
       tx ring under one doorbell. *)
    Sim.spawn sim
      ~name:(Printf.sprintf "storm-submit-%d" sidx)
      (fun () ->
        Sim.delay sim (Time.us 50);
        env.starts.(sidx) <- Sim.now sim;
        let sent = ref 0 in
        while !sent < s.probes do
          Cond.wait_until free_c (fun () -> not (Queue.is_empty free));
          let take = ref [] in
          while
            (not (Queue.is_empty free))
            && List.length !take < env.batch
            && !sent + List.length !take < s.probes
          do
            take := Queue.pop free :: !take
          done;
          let batch_slots = List.rev !take in
          let targets_of =
            List.map
              (fun slot ->
                let tgt = s.scanners + (!probe_counter mod s.targets) in
                incr probe_counter;
                (* A reused slot's request region must not be rewritten
                   while its previous send is still retransmitting. *)
                (match slot.ps_pending with
                | Some prev when not (E.send_done prev) -> (
                  try E.wait_send emp prev with E.Send_failed _ -> ())
                | _ -> ());
                slot.ps_pending <- None;
                Memory.blit_from_string
                  (Codec.encode [ sidx; slot.ps_id; 99 ])
                  slot.ps_req ~off:0;
                (slot, tgt))
              batch_slots
          in
          (* Reply descriptors first (the reply must find one posted). *)
          let reply_recvs =
            E.post_recv_batch emp
              (List.map
                 (fun (slot, tgt) ->
                   ( tgt,
                     Tags.make Tags.Conn_reply slot.ps_id,
                     slot.ps_reply,
                     0,
                     16,
                     None ))
                 targets_of)
          in
          let sends =
            E.post_sendv emp
              (List.map
                 (fun (slot, tgt) ->
                   ( tgt,
                     Tags.make Tags.Conn_request 80,
                     slot.ps_req,
                     0,
                     probe_bytes ))
                 targets_of)
          in
          List.iter2
            (fun ((slot, _), send) reply ->
              slot.ps_pending <- Some send;
              Mailbox.send replies (slot, reply))
            (List.combine targets_of sends)
            reply_recvs;
          sent := !sent + List.length batch_slots
        done);
    (* Reaper fiber: wait each reply, recycle the slot, retire completed
       ring sends in bulk. A reply shorter than a connection id is a
       protocol error, as it is to [Substrate.connect]. *)
    Sim.spawn sim
      ~name:(Printf.sprintf "storm-reap-%d" sidx)
      (fun () ->
        for _ = 1 to s.probes do
          let slot, reply = Mailbox.recv replies in
          let len, src, _ = E.wait_recv emp reply in
          let id =
            Codec.decode Tags.Conn_reply ~owner:slot.ps_id ~peer:src ~len
              (Memory.get_int64_le slot.ps_reply)
          in
          if id.(0) >= 0 then begin
            incr accepted;
            env.complete ~ok:true
          end
          else env.complete ~ok:false;
          Queue.push slot free;
          Cond.broadcast free_c;
          ignore (E.reap_sent emp)
        done;
        env.ends.(sidx) <- Sim.now sim)
  done;
  fun () -> !server_accepts = !accepted

(* --- the envelope ----------------------------------------------------- *)

let run ?on_metrics ?progress (cfg : config) =
  if cfg.batch < 1 then invalid_arg "Rings.run: batch < 1";
  (* lanes, operations per lane, payload bytes per operation, cluster
     size, and the submitting nodes [0 .. submitters-1] *)
  let lanes, per_lane, op_bytes, n, submitters =
    match cfg.workload with
    | Firehose f ->
      if f.sinks < 1 then invalid_arg "Rings.run: sinks < 1";
      (f.sinks, f.count, f.size, f.sinks + 1, 1)
    | Storm s ->
      if s.scanners < 1 || s.targets < 1 then
        invalid_arg "Rings.run: scanners/targets < 1";
      if s.window < 1 then invalid_arg "Rings.run: window < 1";
      if s.window > Tags.max_id then invalid_arg "Rings.run: window > 4095";
      (s.scanners, s.probes, probe_bytes, s.scanners + s.targets, s.scanners)
  in
  let c = Cluster.create ~match_engine:cfg.match_engine ~n () in
  let sim = Cluster.sim c in
  let completed = ref 0 and failed = ref 0 in
  let complete ~ok =
    if not ok then incr failed;
    incr completed;
    match progress with
    | Some (every, f) when !completed mod every = 0 -> f ()
    | _ -> ()
  in
  let env =
    {
      c;
      sim;
      batch = cfg.batch;
      busy_poll = cfg.busy_poll;
      starts = Array.make lanes max_int;
      ends = Array.make lanes 0;
      complete;
    }
  in
  let peers_agree =
    match cfg.workload with
    | Firehose f ->
      start_firehose env f;
      fun () -> true
    | Storm s -> start_storm env s
  in
  let outcome = Cluster.run ~until:liveness_bound c in
  let metrics = Metrics.for_sim sim in
  Option.iter (fun f -> f metrics) on_metrics;
  let offered = lanes * per_lane in
  let t0 = Array.fold_left min max_int env.starts in
  let t1 = Array.fold_left max 0 env.ends in
  let elapsed = if t1 > t0 then t1 - t0 else 1 in
  let sum nodes f =
    List.fold_left (fun acc i -> acc + f i) 0 (List.init nodes Fun.id)
  in
  let counter nodes name =
    sum nodes (fun i -> Metrics.counter_value metrics ~node:i name)
  in
  let ring f =
    sum submitters (fun i ->
        match E.tx_ring_stats (Cluster.emp c i) with
        | Some st -> f st
        | None -> 0)
  in
  let completed_run = outcome = `Quiescent && !completed = offered in
  let bytes = !completed * op_bytes in
  {
    offered;
    completed = !completed;
    failed = !failed;
    bytes;
    elapsed_ms = float_of_int elapsed /. 1e6;
    rate =
      (if completed_run then
         float_of_int !completed /. (float_of_int elapsed /. 1e9)
       else 0.);
    mbps =
      (if completed_run then Time.mbps ~bytes_transferred:bytes ~elapsed
       else 0.);
    doorbells = counter submitters "nic.doorbells";
    mailbox_fetches = counter submitters "nic.mailbox_fetches";
    ring_submitted = ring (fun st -> st.Uls_rings.Ringpair.submitted);
    ring_doorbells = ring (fun st -> st.Uls_rings.Ringpair.doorbells);
    (* Cached: a firehose attached it at setup; a storm never loses a
       frame, and attaching one after the run changes nothing. *)
    faults = Fault.faults_injected (Cluster.fault c);
    retransmits = counter n "emp.frames_retransmitted";
    intact = !failed = 0 && !completed = offered && peers_agree ();
    completed_run;
  }

let print_report fmt (cfg : config) (r : report) =
  let busy_poll = if cfg.busy_poll then ", busy-poll" else "" in
  let audit who =
    Format.fprintf fmt
      "  %s: %d doorbells, %d mailbox fetches; tx ring: %d submitted, %d \
       doorbells@."
      who r.doorbells r.mailbox_fetches r.ring_submitted r.ring_doorbells
  in
  let ok, corrupt =
    match cfg.workload with
    | Firehose f ->
      Format.fprintf fmt "firehose: %d sinks x %d msgs x %d B, batch %d%s%s@."
        f.sinks f.count f.size cfg.batch busy_poll
        (if f.loss > 0. then Printf.sprintf ", loss %.1f%%" (f.loss *. 100.)
         else "");
      Format.fprintf fmt
        "  delivered %d/%d in %.3f ms -> %.0f msg/s (%.1f Mb/s)@." r.completed
        r.offered r.elapsed_ms r.rate r.mbps;
      audit "source NIC";
      ("ok", "CORRUPT")
    | Storm s ->
      Format.fprintf fmt
        "storm: %d scanners x %d probes (window %d, batch %d) -> %d \
         targets%s@."
        s.scanners s.probes s.window cfg.batch s.targets busy_poll;
      Format.fprintf fmt
        "  %d attempts in %.3f ms -> %.0f attempts/s (%.3f Mpps)@." r.offered
        r.elapsed_ms r.rate (r.rate /. 1e6);
      let accepted = r.completed - r.failed in
      audit
        (Printf.sprintf "accepted %d, refused %d; scanner NICs" accepted
           r.failed);
      ( Printf.sprintf "ok, server accepts %d" accepted,
        if r.failed > 0 then "REFUSALS" else "TARGETS DISAGREE" )
  in
  if r.faults > 0 || r.retransmits > 0 then
    Format.fprintf fmt "  chaos: %d faults injected, %d frames retransmitted@."
      r.faults r.retransmits;
  Format.fprintf fmt "  %s@."
    (if not r.completed_run then "INCOMPLETE"
     else if not r.intact then corrupt
     else ok)
