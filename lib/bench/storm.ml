(** Connection storm: ZMap-style scanners fire windowed connection
    probes at substrate targets at connect-attempt rates limited only by
    the submission path. Each scanner is a raw-EMP probe engine — a
    window of probe slots, each carrying a pre-pinned request buffer, a
    pre-posted connection-reply descriptor and a standing close-message
    descriptor (the target's accept-and-close drainer sends a close
    notification per probe, which must be absorbed or it retransmits).
    [batch] probes are submitted per doorbell through the endpoint tx
    ring ([post_sendv]) with their reply descriptors posted through the
    fill ring ([post_recv_batch]); [batch = 1] is the per-call ablation.
    Deterministic per config. *)

open Uls_engine
open Uls_host
module Sub = Uls_substrate.Substrate
module Conn = Uls_substrate.Conn
module Options = Uls_substrate.Options
module Tags = Uls_substrate.Tags
module Codec = Uls_substrate.Codec
module E = Uls_emp.Endpoint

type config = {
  scanners : int;
  targets : int;
  window : int;  (** probe slots (concurrent probes) per scanner *)
  probes : int;  (** probes per scanner *)
  batch : int;  (** probes submitted per doorbell; 1 = per-call *)
  backlog : int;  (** per-target listen backlog *)
  busy_poll : bool;
  seed : int;
  match_engine : Uls_nic.Match_list.engine;
}

let default =
  {
    scanners = 2;
    targets = 2;
    window = 64;
    probes = 2_000;
    batch = 32;
    backlog = 64;
    busy_poll = false;
    seed = 42;
    match_engine = Uls_nic.Match_list.Hashed;
  }

type report = {
  attempts : int;  (** scanners x probes *)
  accepted : int;  (** replies carrying a server connection id *)
  refused : int;  (** explicit refusals (none expected here) *)
  server_accepts : int;  (** connections the targets actually built *)
  elapsed_ms : float;
  attempts_per_sec : float;
  mpps : float;  (** attempts_per_sec / 1e6 *)
  doorbells : int;  (** scanner-node [nic.doorbells], summed *)
  mailbox_fetches : int;  (** scanner-node [nic.mailbox_fetches], summed *)
  intact : bool;  (** every probe answered *)
  completed_run : bool;
}

let liveness_bound = Time.s 60

type probe_slot = {
  ps_id : int;  (** probe id = reply tag id; also the fake client conn id *)
  ps_req : Memory.region;
  ps_reply : Memory.region;
  mutable ps_pending : E.send option;
}

let run cfg =
  if cfg.scanners < 1 || cfg.targets < 1 then
    invalid_arg "Storm.run: scanners/targets < 1";
  if cfg.window < 1 || cfg.batch < 1 then
    invalid_arg "Storm.run: window/batch < 1";
  if cfg.window > Tags.max_id then invalid_arg "Storm.run: window > 4095";
  let n = cfg.scanners + cfg.targets in
  let c =
    Cluster.create ~match_engine:cfg.match_engine ~n ()
  in
  let sim = Cluster.sim c in
  let accepted = ref 0 and refused = ref 0 and server_accepts = ref 0 in
  let starts = Array.make cfg.scanners max_int in
  let ends = Array.make cfg.scanners 0 in
  (* Targets: substrate listeners with an accept-and-close drainer. *)
  for i = 0 to cfg.targets - 1 do
    let node = cfg.scanners + i in
    let s = Cluster.substrate ~opts:Options.server c node in
    Sim.spawn sim
      ~name:(Printf.sprintf "storm-target-%d" node)
      ~daemon:true
      (fun () ->
        (* listen posts control descriptors, so it must run as a fiber *)
        let l = Sub.listen s ~port:80 ~backlog:cfg.backlog in
        while true do
          let conn, _ = Sub.accept s l in
          incr server_accepts;
          Conn.close conn
        done)
  done;
  (* Scanners: raw-EMP windowed probe engines. *)
  for sidx = 0 to cfg.scanners - 1 do
    let emp = Cluster.emp c sidx in
    let node = Cluster.node c sidx in
    if cfg.busy_poll then
      ignore (E.get_tx_ring ~mode:Uls_rings.Ringpair.Busy_poll emp);
    let mk_region size =
      let r = Memory.alloc size in
      Os.prepin (Node.os node) r;
      r
    in
    let slots =
      Array.init cfg.window (fun i ->
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
        starts.(sidx) <- Sim.now sim;
        let sent = ref 0 in
        while !sent < cfg.probes do
          Cond.wait_until free_c (fun () -> not (Queue.is_empty free));
          let take = ref [] in
          while
            (not (Queue.is_empty free))
            && List.length !take < cfg.batch
            && !sent + List.length !take < cfg.probes
          do
            take := Queue.pop free :: !take
          done;
          let batch_slots = List.rev !take in
          let targets_of =
            List.map
              (fun slot ->
                let tgt = cfg.scanners + (!probe_counter mod cfg.targets) in
                incr probe_counter;
                (* A reused slot's request region must not be rewritten
                   while its previous send is still retransmitting. *)
                (match slot.ps_pending with
                | Some s when not (E.send_done s) -> (
                  try E.wait_send emp s with E.Send_failed _ -> ())
                | _ -> ());
                slot.ps_pending <- None;
                Memory.blit_from_string
                  (Codec.encode [ sidx; slot.ps_id; 99 ])
                  slot.ps_req ~off:0;
                (slot, tgt))
              batch_slots
          in
          (* Reply descriptors first (the reply must find one posted). *)
          let reply_specs =
            List.map
              (fun (slot, tgt) ->
                (tgt, Tags.make Tags.Conn_reply slot.ps_id, slot.ps_reply, 0, 16))
              targets_of
          in
          let reply_recvs =
            match reply_specs with
            | [ (src, tag, region, off, len) ] ->
              [ E.post_recv emp ~src ~tag region ~off ~len ]
            | specs -> E.post_recv_batch emp specs
          in
          let req_specs =
            List.map
              (fun (slot, tgt) ->
                (tgt, Tags.make Tags.Conn_request 80, slot.ps_req, 0, 24))
              targets_of
          in
          let sends =
            match req_specs with
            | [ (dst, tag, region, off, len) ] ->
              [ E.post_send emp ~dst ~tag region ~off ~len ]
            | specs -> E.post_sendv emp specs
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
       ring sends in bulk. *)
    Sim.spawn sim
      ~name:(Printf.sprintf "storm-reap-%d" sidx)
      (fun () ->
        for _ = 1 to cfg.probes do
          let slot, reply = Mailbox.recv replies in
          let len, _, _ = E.wait_recv emp reply in
          (if len >= Codec.int_bytes then
             match Codec.decode_region slot.ps_reply ~off:0 ~count:1 with
             | [ id ] when id >= 0 -> incr accepted
             | _ -> incr refused);
          Queue.push slot free;
          Cond.broadcast free_c;
          ignore (E.reap_sent emp)
        done;
        ends.(sidx) <- Sim.now sim)
  done;
  let outcome = Cluster.run ~until:liveness_bound c in
  let metrics = Metrics.for_sim sim in
  let attempts = cfg.scanners * cfg.probes in
  let t0 = Array.fold_left min max_int starts in
  let t1 = Array.fold_left max 0 ends in
  let elapsed = if t1 > t0 then t1 - t0 else 1 in
  let scanner_counter name =
    let sum = ref 0 in
    for i = 0 to cfg.scanners - 1 do
      sum := !sum + Metrics.counter_value metrics ~node:i name
    done;
    !sum
  in
  let completed_run = outcome = `Quiescent && !accepted + !refused = attempts in
  {
    attempts;
    accepted = !accepted;
    refused = !refused;
    server_accepts = !server_accepts;
    elapsed_ms = float_of_int elapsed /. 1e6;
    attempts_per_sec =
      (if completed_run then
         float_of_int attempts /. (float_of_int elapsed /. 1e9)
       else 0.);
    mpps =
      (if completed_run then
         float_of_int attempts /. (float_of_int elapsed /. 1e9) /. 1e6
       else 0.);
    doorbells = scanner_counter "nic.doorbells";
    mailbox_fetches = scanner_counter "nic.mailbox_fetches";
    intact = !accepted + !refused = attempts && !refused = 0;
    completed_run;
  }

let print_report fmt cfg (r : report) =
  Format.fprintf fmt
    "storm: %d scanners x %d probes (window %d, batch %d) -> %d targets%s@."
    cfg.scanners cfg.probes cfg.window cfg.batch cfg.targets
    (if cfg.busy_poll then ", busy-poll" else "");
  Format.fprintf fmt
    "  %d attempts in %.3f ms -> %.0f attempts/s (%.3f Mpps)@." r.attempts
    r.elapsed_ms r.attempts_per_sec r.mpps;
  Format.fprintf fmt
    "  accepted %d, refused %d, server accepts %d; scanner NICs: %d \
     doorbells, %d mailbox fetches@."
    r.accepted r.refused r.server_accepts r.doorbells r.mailbox_fetches;
  Format.fprintf fmt "  %s@."
    (if r.completed_run && r.intact then "ok"
     else if not r.completed_run then "INCOMPLETE"
     else "REFUSALS")
