open Uls_engine
open Uls_host

type fwd = {
  fwd_src : int;
  fwd_tag : int;
  mutable fwd_need : int;
  fwd_emit : Uls_ether.Frame.t option -> Uls_ether.Frame.t list;
  fwd_deliver : (Uls_ether.Frame.t option -> unit) option;
}

type fwd_event =
  | Fwd_post of fwd
  | Fwd_arrive of int * int * Uls_ether.Frame.t option
      (** [(src, tag, frame)]; [frame = None] is a host doorbell
          ({!coll_signal}) counting as a local arrival. *)

(* Metric handles resolved once at create so per-frame accounting is a
   cell bump, not a registry lookup. *)
type handles = {
  h_match_walk_descs : Stats.Summary.t;
  h_match_hash_lookups : Stats.Summary.t;
  h_coll_forwarded : Stats.Counter.t;
  h_coll_delivered : Stats.Counter.t;
  h_coll_matched : Stats.Counter.t;
  h_fwd_walk_descs : Stats.Summary.t;
  h_rx_crc_drop : Stats.Counter.t;
  h_rx_frames : Stats.Counter.t;
  h_rx_queue_frames : Stats.Counter.t array;  (* per receive queue *)
  h_tx_frames : Stats.Counter.t;
  h_doorbells : Stats.Counter.t;
  h_mailbox_fetches : Stats.Counter.t;
}

type t = {
  node_id : int;
  sim : Sim.t;
  model : Cost_model.t;
  metrics : Metrics.t;
  mh : handles;
  trace : Trace.t;
  net : Uls_ether.Network.t;
  tx_cpu : Resource.t;
  rx_cpus : Resource.t array;
  rx_shift : int;  (* [steer]'s shift: 62 - log2 (rx queues) *)
  dma_engine : Resource.t;
  mutable firmware_rx : queue:int -> Uls_ether.Frame.t -> unit;
  mutable rss : bool;  (* the firmware asked for RSS steering *)
  (* Forward-on-match engine (NIC-assisted collectives): descriptors the
     host posts so the firmware can combine and propagate collective
     frames down a tree without host involvement. *)
  mutable coll_classify : Uls_ether.Frame.t -> (int * int) option;
  fwd_list : fwd Match_list.t;
  fwd_pending : (int * int * Uls_ether.Frame.t option) Vec.t;
  fwd_queue : fwd_event Mailbox.t;
}

(* Collective frames that arrive before the host posted the matching
   forward descriptor wait in NIC memory; the firmware bounds the queue
   by dropping the oldest entry (recovered, if at all, by higher-level
   retry — the collective protocols post before signalling precisely so
   this stays a cold path). *)
let fwd_pending_limit = 128

let match_engine t = Match_list.engine t.fwd_list
let rx_queues t = Array.length t.rx_cpus

(* RSS: shard flows across the Tigon's receive cores by Fibonacci
   hashing, so one queue's match load never serializes behind another's.
   The multiplier is the odd value near 2^62/phi, and the top [log2 n]
   bits of the product's low 62 pick the queue: a multiplicative hash's
   low bits are its weakest, while its top bits make consecutive node
   ids alternate queues. With a single core (linear firmware) the shift
   is 62 and everything lands on queue 0. *)
let steer t ~flow = ((flow * 0x278DDE6E5FD29F05) land max_int) lsr t.rx_shift

(* The receive queue that serves [frame]: steered by its source node
   under RSS firmware, queue 0 otherwise. *)
let rx_queue_of t frame =
  if t.rss then steer t ~flow:frame.Uls_ether.Frame.src else 0

let match_cost t (p : Match_list.probe) =
  (p.walked * t.model.Cost_model.nic_tag_match_per_desc)
  + (p.lookups * t.model.Cost_model.nic_hash_lookup)

let observe_match t (p : Match_list.probe) =
  Stats.Summary.add t.mh.h_match_walk_descs (float_of_int p.walked);
  if p.lookups > 0 then
    Stats.Summary.add t.mh.h_match_hash_lookups (float_of_int p.lookups)

let fwd_complete t fwd completing =
  (match Match_list.remove_first t.fwd_list (fun f -> f == fwd) with
  | Some _ -> ()
  | None -> ());
  let frames = fwd.fwd_emit completing in
  List.iter
    (fun frame ->
      Resource.use t.tx_cpu t.model.Cost_model.nic_coll_forward;
      Stats.Counter.incr t.mh.h_coll_forwarded;
      Trace.instant t.trace ~layer:Trace.Nic ~node:t.node_id "nic.fwd_forward";
      Uls_ether.Network.send t.net frame)
    frames;
  match fwd.fwd_deliver with
  | None -> ()
  | Some deliver ->
    (* Completion (and any payload) is DMA'd up to the host. *)
    let bytes =
      match completing with
      | Some f -> Stdlib.max 8 f.Uls_ether.Frame.payload_len
      | None -> 8
    in
    Resource.use t.dma_engine (Cost_model.dma_cost t.model bytes);
    Stats.Counter.incr t.mh.h_coll_delivered;
    deliver completing

let fwd_match t ~src ~tag frame =
  match Match_list.find t.fwd_list ~src ~tag with
  | None, _ ->
    if Vec.length t.fwd_pending >= fwd_pending_limit then begin
      (* Shift out the oldest entry. *)
      let keep = ref [] in
      Vec.iter (fun e -> keep := e :: !keep) t.fwd_pending;
      Vec.clear t.fwd_pending;
      List.iter (Vec.push t.fwd_pending) (List.tl (List.rev !keep))
    end;
    Vec.push t.fwd_pending (src, tag, frame)
  | Some fwd, probe ->
    Resource.use t.rx_cpus.(0) (match_cost t probe);
    Stats.Counter.incr t.mh.h_coll_matched;
    Stats.Summary.add t.mh.h_fwd_walk_descs (float_of_int probe.walked);
    observe_match t probe;
    Trace.instant t.trace ~layer:Trace.Nic ~node:t.node_id "nic.fwd_match"
      ~args:[ ("walked", string_of_int probe.walked) ];
    fwd.fwd_need <- fwd.fwd_need - 1;
    if fwd.fwd_need <= 0 then fwd_complete t fwd frame

let fwd_fiber t () =
  let m = t.model in
  let rec loop () =
    (match Mailbox.recv t.fwd_queue with
    | Fwd_arrive (src, tag, frame) ->
      (match frame with
      | Some _ -> Resource.use t.rx_cpus.(0) m.Cost_model.nic_rx_classify
      | None ->
        (* Host doorbell: the firmware fetches the mailbox word. *)
        Stats.Counter.incr t.mh.h_mailbox_fetches;
        Resource.use t.rx_cpus.(0) m.Cost_model.nic_mailbox_fetch);
      fwd_match t ~src ~tag frame
    | Fwd_post fwd ->
      Stats.Counter.incr t.mh.h_mailbox_fetches;
      Resource.use t.rx_cpus.(0) m.Cost_model.nic_mailbox_fetch;
      ignore (Match_list.post t.fwd_list ~src:fwd.fwd_src ~tag:fwd.fwd_tag fwd);
      (* Drain collective frames that raced ahead of the descriptor. *)
      let rec drain () =
        if fwd.fwd_need > 0 then begin
          let matched = ref None in
          let i = ref 0 in
          while !matched = None && !i < Vec.length t.fwd_pending do
            let (src, tag, _) as e = Vec.get t.fwd_pending !i in
            if
              (fwd.fwd_src = -1 || fwd.fwd_src = src)
              && (fwd.fwd_tag = -1 || fwd.fwd_tag = tag)
            then matched := Some (!i, e)
            else incr i
          done;
          match !matched with
          | None -> ()
          | Some (idx, (src, tag, frame)) ->
            (* Preserve arrival order of the remaining entries. *)
            let keep = ref [] in
            Vec.iter (fun e -> keep := e :: !keep) t.fwd_pending;
            Vec.clear t.fwd_pending;
            List.iteri
              (fun j e -> if j <> idx then Vec.push t.fwd_pending e)
              (List.rev !keep);
            (* No classify charge here: each pending entry already paid
               its arrival cost (classify or mailbox fetch) when it was
               queued — re-charging it at drain time double-billed
               same-tick arrivals. *)
            fwd_match t ~src ~tag frame;
            drain ()
        end
      in
      drain ());
    loop ()
  in
  loop ()

let create ?(match_engine = Match_list.Linear) sim model net ~node =
  let name part = Printf.sprintf "nic%d-%s" node part in
  (* The Tigon2 carries two embedded MIPS cores beyond the dedicated send
     core; the hashed firmware runs a receive queue on each, the original
     linear firmware dedicates a single core to receive. *)
  let n_rx = match match_engine with Match_list.Linear -> 1 | Hashed -> 2 in
  let rec log2 n = if n <= 1 then 0 else 1 + log2 (n / 2) in
  let metrics = Metrics.for_sim sim in
  let counter name = Metrics.counter metrics ~node name in
  let histogram name = Metrics.histogram metrics ~node name in
  let t =
    {
      node_id = node;
      sim;
      model;
      metrics;
      mh =
        {
          h_match_walk_descs = histogram "nic.match_walk_descs";
          h_match_hash_lookups = histogram "nic.match_hash_lookups";
          h_coll_forwarded = counter "nic.coll_forwarded";
          h_coll_delivered = counter "nic.coll_delivered";
          h_coll_matched = counter "nic.coll_matched";
          h_fwd_walk_descs = histogram "nic.fwd_walk_descs";
          h_rx_crc_drop = counter "nic.rx_crc_drop";
          h_rx_frames = counter "nic.rx_frames";
          h_rx_queue_frames =
            Array.init n_rx (fun q ->
                counter (Printf.sprintf "nic.rx_frames.q%d" q));
          h_tx_frames = counter "nic.tx_frames";
          h_doorbells = counter "nic.doorbells";
          h_mailbox_fetches = counter "nic.mailbox_fetches";
        };
      trace = Trace.for_sim sim;
      net;
      tx_cpu = Resource.create sim ~name:(name "txcpu");
      rx_cpus =
        Array.init n_rx (fun i ->
            let part = if i = 0 then "rxcpu" else Printf.sprintf "rxcpu%d" i in
            Resource.create sim ~name:(name part));
      rx_shift = 62 - log2 n_rx;
      dma_engine = Resource.create sim ~name:(name "dma");
      firmware_rx = (fun ~queue:_ _ -> ());
      rss = false;
      coll_classify = (fun _ -> None);
      fwd_list = Match_list.create ~engine:match_engine ();
      fwd_pending = Vec.create ();
      fwd_queue = Mailbox.create ~label:(name "fwd-queue") sim;
    }
  in
  Uls_ether.Network.attach net ~station:node (fun frame ->
      if Uls_ether.Frame.corrupted frame then begin
        (* The MAC's FCS check fails on a damaged frame: it is discarded
           in hardware, never reaching the firmware — but it did occupy
           the wire, and the Rx MAC spends classify-equivalent time
           before the checksum verdict. *)
        Stats.Counter.incr t.mh.h_rx_crc_drop;
        Trace.instant t.trace ~layer:Trace.Nic ~node "nic.rx_crc_drop";
        ignore
          (Resource.completion_after t.rx_cpus.(rx_queue_of t frame)
             model.Cost_model.nic_rx_classify)
      end
      else begin
        Stats.Counter.incr t.mh.h_rx_frames;
        match t.coll_classify frame with
        | Some (src, tag) ->
          (* The forward-on-match engine runs on receive core 0. *)
          Stats.Counter.incr t.mh.h_rx_queue_frames.(0);
          Mailbox.send t.fwd_queue (Fwd_arrive (src, tag, Some frame))
        | None ->
          let queue = rx_queue_of t frame in
          Stats.Counter.incr t.mh.h_rx_queue_frames.(queue);
          t.firmware_rx ~queue frame
      end);
  Sim.spawn sim ~name:(name "fwd") ~daemon:true (fwd_fiber t);
  t

let set_firmware_rx ?(rss = false) t f =
  t.rss <- rss;
  t.firmware_rx <- f

(* The MAC has a small transmit FIFO: when more than ~8 full frames are
   already queued on the wire, the transmitting firmware fiber stalls
   until the backlog drains. Without this, a burst of posted messages
   queues unbounded wire-time ahead of itself and reliability timers fire
   long before the frames were ever transmitted. *)
let tx_fifo_ns = 100_000

let transmit t frame =
  let uplink = Uls_ether.Network.uplink t.net ~station:t.node_id in
  let backlog = Uls_ether.Link.busy_until uplink - Sim.now t.sim in
  if backlog > tx_fifo_ns then Sim.delay t.sim (backlog - tx_fifo_ns);
  Stats.Counter.incr t.mh.h_tx_frames;
  Uls_ether.Network.send t.net frame

let tx_work t d =
  if Trace.enabled t.trace then
    Trace.span t.trace ~layer:Trace.Nic ~node:t.node_id "nic.tx_work"
      (fun () -> Resource.use t.tx_cpu d)
  else Resource.use t.tx_cpu d

let rx_work ?(queue = 0) t d =
  if Trace.enabled t.trace then
    Trace.span t.trace ~layer:Trace.Nic ~node:t.node_id "nic.rx_work"
      (fun () -> Resource.use t.rx_cpus.(queue) d)
  else Resource.use t.rx_cpus.(queue) d
(* [pipelined] models the gather-DMA behaviour of a descriptor-ring
   engine: transfers queued while the engine is already busy ride the
   running burst and skip the per-transaction setup. A transfer that
   finds the engine idle always pays full [dma_cost], so sparse traffic
   (and every non-ring path) is charged exactly as before. *)
let dma_cost ~pipelined t ~bytes =
  if pipelined && Resource.free_at t.dma_engine > Sim.now t.sim then
    Cost_model.dma_stream_cost t.model bytes
  else Cost_model.dma_cost t.model bytes

let dma ?(pipelined = false) t ~bytes =
  Resource.use t.dma_engine (dma_cost ~pipelined t ~bytes)

(* A ring slot holds the frame's header fields in fixed format, so the
   send core builds the header while the DMA engine moves the payload:
   both are reserved now, and the frame is ready for the MAC at the
   later of the two. Each resource is busy exactly as long as in the
   serial order; the traced span runs until that hand-off, so it covers
   the header build and whatever of the DMA outlasted it. *)
let dma_with_header ~pipelined t ~bytes =
  let moved =
    Resource.completion_after t.dma_engine (dma_cost ~pipelined t ~bytes)
  in
  let built =
    Resource.completion_after t.tx_cpu t.model.Cost_model.nic_tx_per_frame
  in
  let wait = Int.max moved built - Sim.now t.sim in
  if Trace.enabled t.trace then
    Trace.span t.trace ~layer:Trace.Nic ~node:t.node_id "nic.tx_work"
      (fun () -> Sim.delay t.sim wait)
  else Sim.delay t.sim wait

(* Host-side doorbell: one MMIO write over PCI, counted so the
   doorbells/mailbox-fetches audit can prove each doorbell is fetched
   exactly once. The firmware pickup charges [nic_mailbox_fetch] itself
   (see the callers' pickup fibers) — charging the fetch here as well,
   as the old [mailbox_ring] helper did, double-billed same-tick
   submissions. *)
let doorbell t =
  Sim.delay t.sim t.model.Cost_model.pio_write;
  Stats.Counter.incr t.mh.h_doorbells

let count_doorbell t = Stats.Counter.incr t.mh.h_doorbells
let count_mailbox_fetch t = Stats.Counter.incr t.mh.h_mailbox_fetches

let tx_cpu t = t.tx_cpu
let rx_cpu ?(queue = 0) t = t.rx_cpus.(queue)
let dma_engine t = t.dma_engine
let frames_received t = Stats.Counter.value t.mh.h_rx_frames
let queue_frames t ~queue = Stats.Counter.value t.mh.h_rx_queue_frames.(queue)

(* --- forward-on-match host interface --------------------------------- *)

let set_coll_classifier t f = t.coll_classify <- f

let post_forward t ~src ~tag ~need ?deliver ~emit () =
  if need <= 0 then invalid_arg "Tigon.post_forward: need must be positive";
  (* Host side: build the descriptor and ring the doorbell (a PIO write);
     the firmware picks it up from the mailbox in its own time. *)
  doorbell t;
  Mailbox.send t.fwd_queue
    (Fwd_post { fwd_src = src; fwd_tag = tag; fwd_need = need;
                fwd_emit = emit; fwd_deliver = deliver })

let coll_signal t ~tag =
  (* Host-side arrival (e.g. "this process entered the barrier"): one PIO
     write; counts as a match of the local combine descriptor. *)
  doorbell t;
  Mailbox.send t.fwd_queue (Fwd_arrive (t.node_id, tag, None))

let coll_inject t frame =
  (* Root of a NIC-forwarded broadcast: hand a collective frame to the
     firmware for transmission (descriptor write + payload DMA), without
     blocking the caller on the NIC's transmit serialization. *)
  doorbell t;
  Sim.spawn t.sim ~name:"nic-coll-inject" (fun () ->
      Stats.Counter.incr t.mh.h_mailbox_fetches;
      Resource.use t.tx_cpu t.model.Cost_model.nic_mailbox_fetch;
      Resource.use t.dma_engine
        (Cost_model.dma_cost t.model frame.Uls_ether.Frame.payload_len);
      Resource.use t.tx_cpu t.model.Cost_model.nic_tx_per_frame;
      Uls_ether.Network.send t.net frame)
