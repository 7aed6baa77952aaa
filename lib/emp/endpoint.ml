open Uls_engine
open Uls_host
open Uls_nic

type config = {
  ack_window : int;
  tx_window : int;
  rto : Time.ns;
  max_rto : Time.ns;
  max_retries : int;
  use_nacks : bool;  (* gap-triggered NACK frames for fast loss recovery *)
}

let default_config =
  { ack_window = 4; tx_window = 64; rto = Time.ms 2; max_rto = Time.ms 200;
    max_retries = 20; use_nacks = true }

type send = {
  s_key : Wire.msg_key;
  s_dst : int;
  s_tag : int;
  s_region : Memory.region;
  s_off : int;
  s_len : int;
  s_nframes : int;
  mutable s_acked : int; (* cumulative frames acked *)
  mutable s_next : int; (* next frame index to transmit *)
  mutable s_retries : int;
  mutable s_rto : Time.ns;
  mutable s_done : bool;
  mutable s_failed : bool;
  mutable s_ring : bool;  (* submitted through the tx ring pair *)
  s_slot : bool;
      (* posted in a fixed-format ring slot ([post_send ~ring] or
         [post_sendv]): the firmware builds each frame's header during
         the frame's payload DMA *)
  mutable s_reaped : bool;  (* completion charge already paid *)
  s_span : int;  (* trace span: open from post to full acknowledgment *)
  s_cond : Cond.t;
}

type recv = {
  r_region : Memory.region;
  r_off : int;
  r_cap : int;
  mutable r_len : int;
  mutable r_from : int;
  mutable r_tag : int;
  mutable r_matched : bool;
  mutable r_done : bool;
  mutable r_cancelled : bool;
  mutable r_entry : recv Match_list.handle;
      (* its match-list descriptor while posted: unposting is O(1) *)
  r_slot : bool;
      (* posted through the fill ring or with [post_recv ~ring]: the
         firmware completes it before building the protocol ack *)
  mutable r_cond : Cond.t option;  (* created for its first waiter *)
  mutable r_on_complete : recv -> int -> unit;
      (* [post_recv ~on_complete]: called with the length when the
         descriptor completes, after its waiters' wake-up *)
}

type uq_slot = {
  u_buf : Memory.region;
  u_size : int;
  mutable u_len : int;
  mutable u_from : int;
  mutable u_tag : int;
  mutable u_state : [ `Free | `Filling | `Arrived ];
  mutable u_born : Time.ns;
}

type rx_dst =
  | To_user of recv
  | To_uq of uq_slot

type rx_record = {
  rec_dst : rx_dst;
  rec_nframes : int;
  rec_total : int;
  rec_src : int;
  rec_tag : int;
  rec_got : bool array;
  mutable rec_count : int;
  mutable rec_prefix : int; (* contiguous frames received from 0 *)
  mutable rec_nacked : bool; (* a NACK for the current gap is outstanding *)
}

(* What the receiver remembers about one source: the sender's latest
   low-water mark, and the messages completed at or above it (kept to
   re-ack their duplicates). Everything below the mark is settled and
   forgotten, so the table is bounded by the sender's outstanding
   messages rather than by its history. *)
type peer = {
  mutable p_lwm : int;
  p_finished : (int, int) Hashtbl.t;  (* msg id -> nframes *)
  p_order : int Queue.t;  (* finished ids, oldest first *)
}

type stats = {
  messages_sent : int;
  messages_received : int;
  frames_sent : int;
  frames_retransmitted : int;
  frames_dropped_no_descriptor : int;
  protocol_acks_sent : int;
  unexpected_queue_hits : int;
  nacks_sent : int;
  finished_retained : int;
}

type desc_stats = {
  descs_posted : int;  (* receive descriptors ever posted *)
  descs_completed : int;  (* completed, including cancel sentinels *)
  descs_live : int;  (* still on the match list *)
}

(* Metric handles resolved once at create: the hot path bumps a counter
   cell directly instead of paying a name→key hash lookup (and a boxed
   key allocation) per event. *)
type handles = {
  h_frames_sent : Stats.Counter.t;
  h_send_failures : Stats.Counter.t;
  h_frames_retransmitted : Stats.Counter.t;
  h_messages_sent : Stats.Counter.t;
  h_uq_hits : Stats.Counter.t;
  h_match_walk_descs : Stats.Summary.t;
  h_messages_received : Stats.Counter.t;
  h_drops_no_descriptor : Stats.Counter.t;
  h_nacks_sent : Stats.Counter.t;
}

type t = {
  node : Node.t;
  nic : Tigon.t;
  cfg : config;
  metrics : Metrics.t;
  mh : handles;
  trace : Trace.t;
  inv : Invariant.t;
  mutable next_msg_id : int;
  posted : recv Match_list.t;
  uq : uq_slot Vec.t;
  active_rx : (Wire.msg_key, rx_record) Hashtbl.t;
  rx_peers : (int, peer) Hashtbl.t;  (* by source node *)
  active_tx : (Wire.msg_key, send) Hashtbl.t;
  (* Per destination, the ids of messages posted toward it, oldest
     first; the settled ones are popped off the front, so the front is
     the low-water mark. Ids, not sends: a settled send and its region
     must stay collectable. *)
  tx_order : (int, int Queue.t) Hashtbl.t;
  (* One mailbox + dispatcher fiber per NIC receive queue: frames are
     RSS-steered by source node, so each peer's traffic is handled by a
     fixed queue and per-message state stays single-fiber. *)
  rx_queues : Uls_ether.Frame.t Mailbox.t array;
  (* Batched I/O: one submission/completion ring pair per endpoint (the
     connection group), created on first use. *)
  mutable tx_ring : (send, send) Uls_rings.Ringpair.t option;
  mutable on_send_failure : dst:int -> tag:int -> retries:int -> unit;
  mutable on_unexpected : src:int -> tag:int -> unit;
  mutable st_acks : int;
  mutable st_desc_posted : int;
  mutable st_desc_completed : int;
}

exception Send_failed of { dst : int; tag : int; retries : int }

let node t = t.node
let nic t = t.nic
let node_id t = Node.id t.node
let sim t = Node.sim t.node
let config t = t.cfg
let model t = Node.model t.node

let posted_descriptors t = Match_list.length t.posted

let descriptor_stats t =
  {
    descs_posted = t.st_desc_posted;
    descs_completed = t.st_desc_completed;
    descs_live = Match_list.length t.posted;
  }

let stats t =
  let count = Stats.Counter.value in
  {
    messages_sent = count t.mh.h_messages_sent;
    messages_received = count t.mh.h_messages_received;
    frames_sent = count t.mh.h_frames_sent;
    frames_retransmitted = count t.mh.h_frames_retransmitted;
    frames_dropped_no_descriptor = count t.mh.h_drops_no_descriptor;
    protocol_acks_sent = t.st_acks;
    unexpected_queue_hits = count t.mh.h_uq_hits;
    nacks_sent = count t.mh.h_nacks_sent;
    finished_retained =
      Hashtbl.fold (fun _ p n -> n + Hashtbl.length p.p_finished) t.rx_peers 0;
  }

(* ------------------------------------------------------------------ *)
(* Transmit side                                                       *)
(* ------------------------------------------------------------------ *)

let outstanding t id =
  Hashtbl.mem t.active_tx { Wire.src_node = node_id t; msg_id = id }

(* The lowest id still unacknowledged toward [dst]. With nothing
   outstanding there, every id issued so far is settled. *)
let low_water t dst =
  match Hashtbl.find_opt t.tx_order dst with
  | None -> t.next_msg_id + 1
  | Some q ->
    while (not (Queue.is_empty q)) && not (outstanding t (Queue.peek q)) do
      ignore (Queue.pop q)
    done;
    if Queue.is_empty q then t.next_msg_id + 1 else Queue.peek q

(* A send is settled (fully acknowledged or abandoned): it leaves the
   active table and the front of its destination's order. *)
let settle t st =
  Hashtbl.remove t.active_tx st.s_key;
  ignore (low_water t st.s_dst : int)

let chunk_of st idx =
  if st.s_len = 0 then ""
  else begin
    let per = Wire.max_data_per_frame in
    let start = idx * per in
    let len = min per (st.s_len - start) in
    Memory.sub_string st.s_region ~off:(st.s_off + start) ~len
  end

let send_frame t st idx =
  let chunk = chunk_of st idx in
  (* Ring-submitted sends are gather-DMA: frames queued behind an
     in-progress transfer ride the burst (no per-frame setup). Mailbox
     sends keep the one-transaction-per-frame charge, and build the
     header only once the payload is on the NIC. *)
  let bytes = String.length chunk in
  if st.s_slot then Tigon.dma_with_header ~pipelined:st.s_ring t.nic ~bytes
  else begin
    Tigon.dma t.nic ~bytes;
    Tigon.tx_work t.nic (model t).Cost_model.nic_tx_per_frame
  end;
  let data =
    {
      Wire.key = st.s_key;
      tag = st.s_tag;
      frame_idx = idx;
      nframes = st.s_nframes;
      total_len = st.s_len;
      lwm = low_water t st.s_dst;
      chunk;
    }
  in
  Tigon.transmit t.nic (Wire.data_frame ~src:(node_id t) ~dst:st.s_dst data);
  Stats.Counter.incr t.mh.h_frames_sent

let fail_send t st =
  st.s_failed <- true;
  settle t st;
  Stats.Counter.incr t.mh.h_send_failures;
  Trace.span_end t.trace ~layer:Trace.Emp ~node:(node_id t) "emp.send"
    ~args:[ ("outcome", "failed") ]
    st.s_span;
  Cond.broadcast st.s_cond;
  (if st.s_ring then
     match t.tx_ring with
     | Some rp -> Uls_rings.Ringpair.complete rp st
     | None -> ());
  (* Tell the layer above (the substrate maps the tag back to its
     connection and resets it) — not every failed send has a fiber
     parked in [wait_send] to observe the failure. *)
  t.on_send_failure ~dst:st.s_dst ~tag:st.s_tag ~retries:st.s_retries

(* Go-back-N: transmit again from frame [idx]. Everything sent from
   there on counts as retransmitted, whether the RTO or a NACK rewound. *)
let rewind_to t st idx =
  Stats.Counter.add t.mh.h_frames_retransmitted (st.s_next - idx);
  st.s_next <- idx

(* The single transmit fiber of a message: charges the send core
   [fetch] for picking up its descriptor (0 when a ring's fetch fiber
   already did), streams frames subject to the in-flight window, then
   waits for full acknowledgment, rewinding to the cumulative ack
   (go-back-N) whenever the RTO expires. *)
let tx_fiber ~fetch t st () =
  if fetch > 0 then begin
    Tigon.count_mailbox_fetch t.nic;
    Tigon.tx_work t.nic fetch
  end;
  let give_up () =
    st.s_retries >= t.cfg.max_retries
  in
  let rewind () =
    st.s_retries <- st.s_retries + 1;
    if not (give_up ()) then begin
      Trace.instant t.trace ~layer:Trace.Emp ~node:(node_id t) "emp.rto_rewind"
        ~args:[ ("frames", string_of_int (st.s_next - st.s_acked)) ];
      rewind_to t st st.s_acked;
      st.s_rto <- min (2 * st.s_rto) t.cfg.max_rto
    end
  in
  let rec drive () =
    if st.s_failed || st.s_done then ()
    else if give_up () then fail_send t st
    else if st.s_next < st.s_nframes then
      if st.s_next - st.s_acked >= t.cfg.tx_window then begin
        (* Window full: wait for ack progress. *)
        let before = st.s_acked in
        (match Cond.wait_timeout st.s_cond st.s_rto with
        | `Ok -> ()
        | `Timeout -> if st.s_acked = before then rewind ());
        drive ()
      end
      else begin
        let idx = st.s_next in
        st.s_next <- idx + 1;
        send_frame t st idx;
        drive ()
      end
    else begin
      (* Everything transmitted: await completion. *)
      let before = st.s_acked in
      (match Cond.wait_timeout st.s_cond st.s_rto with
      | `Ok -> ()
      | `Timeout -> if st.s_acked = before && not st.s_done then rewind ());
      drive ()
    end
  in
  drive ()

(* Every public post checks all its ranges before it charges, pins or
   posts anything, so a bad spec leaves the endpoint untouched. *)
let check_range entry region ~off ~len =
  if len < 0 || off < 0 || off + len > Memory.length region then
    invalid_arg (entry ^ ": bad range")

let check_ranges entry specs =
  List.iter
    (fun (_, _, region, off, len) -> check_range entry region ~off ~len)
    specs

let make_send t ~slot ~dst ~tag region ~off ~len =
  t.next_msg_id <- t.next_msg_id + 1;
  let st =
    {
      s_key = { Wire.src_node = node_id t; msg_id = t.next_msg_id };
      s_dst = dst;
      s_tag = tag;
      s_region = region;
      s_off = off;
      s_len = len;
      s_nframes = Wire.frames_for len;
      s_acked = 0;
      s_next = 0;
      s_retries = 0;
      s_rto = t.cfg.rto;
      s_done = false;
      s_failed = false;
      s_ring = false;
      s_slot = slot;
      s_reaped = false;
      s_span =
        (if Trace.enabled t.trace then
           Trace.span_begin t.trace ~layer:Trace.Emp ~node:(node_id t)
             ~seq:t.next_msg_id "emp.send"
             ~args:[ ("len", string_of_int len) ]
         else 0);
      s_cond = Cond.create ~label:"emp:send" (sim t);
    }
  in
  Hashtbl.replace t.active_tx st.s_key st;
  let order =
    match Hashtbl.find_opt t.tx_order dst with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.replace t.tx_order dst q;
      q
  in
  Queue.push t.next_msg_id order;
  Stats.Counter.incr t.mh.h_messages_sent;
  st

(* A fixed-format ring slot subsumes the firmware's per-message parse
   of a mailbox descriptor, as in a [post_sendv] batch. The one-slot
   submission is charged here, at submission, as [post_recv_batch]
   charges the fill ring: routing it through the ring pair's fetch and
   completion fibers would add events and leave an unreaped
   completion. *)
let post_send ?(ring = false) t ~dst ~tag region ~off ~len =
  check_range "Endpoint.post_send" region ~off ~len;
  let m = model t in
  let host, fetch =
    if ring then
      ( m.Cost_model.emp_host_post + m.Cost_model.ring_slot_post,
        m.Cost_model.nic_doorbell_batch + m.Cost_model.nic_ring_slot_fetch )
    else
      ( m.Cost_model.emp_host_post,
        m.Cost_model.nic_mailbox_fetch + m.Cost_model.nic_tx_per_msg )
  in
  Sim.delay (sim t) host;
  Os.pin_region (Node.os t.node) region ~off ~len;
  Tigon.doorbell t.nic;
  let st = make_send t ~slot:ring ~dst ~tag region ~off ~len in
  Sim.spawn (sim t) ~name:"emp-tx" (tx_fiber ~fetch t st);
  st

let send_done st = st.s_done
let send_failed st = st.s_failed

let wait_send t st =
  Cond.wait_until st.s_cond (fun () -> st.s_done || st.s_failed);
  if st.s_failed then
    raise (Send_failed { dst = st.s_dst; tag = st.s_tag; retries = st.s_retries });
  (* A ring-submitted send may already have been reaped in bulk from the
     completion ring; don't bill the completion twice. *)
  if not st.s_reaped then begin
    st.s_reaped <- true;
    Sim.delay (sim t) (model t).Cost_model.emp_host_reap
  end

(* ------------------------------------------------------------------ *)
(* Batched submission: the per-endpoint tx ring                        *)
(* ------------------------------------------------------------------ *)

let dummy_send t =
  {
    s_key = { Wire.src_node = node_id t; msg_id = -1 };
    s_dst = -1;
    s_tag = -1;
    s_region = Memory.alloc 1;
    s_off = 0;
    s_len = 0;
    s_nframes = 0;
    s_acked = 0;
    s_next = 0;
    s_retries = 0;
    s_rto = t.cfg.rto;
    s_done = true;
    s_failed = false;
    s_ring = false;
    s_slot = false;
    s_reaped = true;
    s_span = 0;
    s_cond = Cond.create ~label:"emp:send-dummy" (sim t);
  }

let get_tx_ring ?(mode = Uls_rings.Ringpair.Wakeup) t =
  match t.tx_ring with
  | Some rp -> rp
  | None ->
    let d = dummy_send t in
    let rp =
      Uls_rings.Ringpair.create ~mode
        ~label:(Printf.sprintf "emp%d-txring" (node_id t))
        ~on_doorbell:(fun () -> Tigon.count_doorbell t.nic)
        ~on_fetch:(fun _n -> Tigon.count_mailbox_fetch t.nic)
        ~on_cq_flush:(fun k -> Tigon.dma ~pipelined:true t.nic ~bytes:(8 * k))
        (sim t) ~model:(model t)
        ~nic_cpu:(Tigon.tx_cpu t.nic)
        ~dummy_sub:d ~dummy_comp:d
        ~consume:(fun st ->
          (* The fetch fiber already paid the batched fetch; the
             fixed-format slot subsumes the per-message parse. *)
          Sim.spawn (sim t) ~name:"emp-tx" (tx_fiber ~fetch:0 t st))
        ()
    in
    t.tx_ring <- Some rp;
    rp

(* Batched send: one host-post charge and one doorbell for the whole
   batch; each descriptor is a cached ring-slot write. A singleton batch
   takes the classic [post_send] path (with [ring], as a one-slot
   submission) so [--batch 1] reproduces the per-call behaviour byte for
   byte. *)
let post_sendv ?mode ?ring t specs =
  match specs with
  | [] -> []
  | [ (dst, tag, region, off, len) ] ->
    [ post_send ?ring t ~dst ~tag region ~off ~len ]
  | _ ->
    check_ranges "Endpoint.post_sendv" specs;
    let m = model t in
    let rp = get_tx_ring ?mode t in
    Sim.delay (sim t) m.Cost_model.emp_host_post;
    let sts =
      List.map
        (fun (dst, tag, region, off, len) ->
          Os.pin_region (Node.os t.node) region ~off ~len;
          let st = make_send t ~slot:true ~dst ~tag region ~off ~len in
          st.s_ring <- true;
          Uls_rings.Ringpair.submit rp st;
          st)
        specs
    in
    Uls_rings.Ringpair.ring_doorbell rp;
    sts

let reap_sent ?(max = max_int) t =
  match t.tx_ring with
  | None -> []
  | Some rp ->
    let popped = Uls_rings.Ringpair.reap rp ~max in
    List.filter
      (fun st ->
        if st.s_reaped then false
        else begin
          st.s_reaped <- true;
          true
        end)
      popped

let tx_ring_stats t =
  match t.tx_ring with
  | None -> None
  | Some rp -> Some (Uls_rings.Ringpair.stats rp)

(* ------------------------------------------------------------------ *)
(* Receive side                                                        *)
(* ------------------------------------------------------------------ *)

let recv_done r = r.r_done

let reap t r =
  Sim.delay (sim t) (model t).Cost_model.emp_host_reap;
  (r.r_len, r.r_from, r.r_tag)

(* A descriptor's condition exists only once someone waits on it:
   serial handlers reap completed descriptors and never wait. *)
let recv_cond t r =
  match r.r_cond with
  | Some c -> c
  | None ->
    let c = Cond.create ~label:"emp:recv" (sim t) in
    r.r_cond <- Some c;
    c

let wait_recv t r =
  if not r.r_done then
    Cond.wait_until (recv_cond t r) (fun () -> r.r_done);
  reap t r

let wait_recv_timeout t r timeout =
  let deadline = Sim.now (sim t) + timeout in
  let rec loop () =
    if r.r_done then Some (reap t r)
    else begin
      let remaining = deadline - Sim.now (sim t) in
      if remaining <= 0 then None
      else begin
        ignore (Cond.wait_timeout (recv_cond t r) remaining);
        loop ()
      end
    end
  in
  loop ()

let complete_recv t r ~len ~src ~tag =
  Invariant.check t.inv ~name:"emp.desc_double_complete" (not r.r_done)
    (fun () ->
      Printf.sprintf "node %d: descriptor completed twice (src=%d tag=%d)"
        (node_id t) src tag);
  r.r_len <- len;
  r.r_from <- src;
  r.r_tag <- tag;
  r.r_done <- true;
  t.st_desc_completed <- t.st_desc_completed + 1;
  Invariant.check t.inv ~name:"emp.desc_conservation"
    (t.st_desc_completed <= t.st_desc_posted)
    (fun () ->
      Printf.sprintf "node %d: %d descriptors completed but only %d posted"
        (node_id t) t.st_desc_completed t.st_desc_posted);
  Option.iter Cond.broadcast r.r_cond;
  r.r_on_complete r len

(* Host-side consumption of a message that landed in the unexpected
   queue: copy into the user buffer (the extra copy the paper accepts
   for UQ traffic), then free the slot. *)
let consume_uq t slot r =
  Stats.Counter.incr t.mh.h_uq_hits;
  if Trace.enabled t.trace then
    Trace.instant t.trace ~layer:Trace.Emp ~node:(node_id t) "emp.uq_consume";
  let len = min slot.u_len r.r_cap in
  r.r_matched <- true;
  let finish () =
    Node.copy t.node ~src:slot.u_buf ~src_off:0 ~dst:r.r_region ~dst_off:r.r_off
      ~len;
    let src = slot.u_from and tag = slot.u_tag in
    slot.u_state <- `Free;
    slot.u_len <- 0;
    complete_recv t r ~len ~src ~tag
  in
  Sim.spawn (sim t) ~name:"emp-uq-copy" finish

let any ~src:_ ~tag:_ = true

(* The first arrived unexpected-queue message from [src] with [tag]
   (either may be [-1], a wildcard) that also satisfies [pred]. *)
let uq_match ?(pred = any) t ~src ~tag =
  let n = Vec.length t.uq in
  let rec scan i =
    if i >= n then None
    else begin
      let slot = Vec.get t.uq i in
      if
        slot.u_state = `Arrived
        && (src = -1 || slot.u_from = src)
        && (tag = -1 || slot.u_tag = tag)
        && pred ~src:slot.u_from ~tag:slot.u_tag
      then Some slot
      else scan (i + 1)
    end
  in
  scan 0

let no_hook (_ : recv) (_ : int) = ()

let make_recv t ~ring region ~off ~len =
  let r =
    {
      r_region = region;
      r_off = off;
      r_cap = len;
      r_len = 0;
      r_from = -1;
      r_tag = -1;
      r_matched = false;
      r_done = false;
      r_cancelled = false;
      r_entry = Match_list.detached;
      r_slot = ring;
      r_cond = None;
      r_on_complete = no_hook;
    }
  in
  t.st_desc_posted <- t.st_desc_posted + 1;
  r

(* The receive queue that will serve a descriptor for [src] (queue 0
   for wildcard posts — any queue may end up matching it). *)
let rx_queue t ~src = if src = -1 then 0 else Tigon.steer t.nic ~flow:src

(* Pin and build one descriptor, then attach it: it takes an arrived
   unexpected-queue message at once (and is [r_matched] on return), or
   joins the match list. *)
let attach ?on_complete t ~ring ~src ~tag region ~off ~len =
  Os.pin_region (Node.os t.node) region ~off ~len;
  let r = make_recv t ~ring region ~off ~len in
  (match on_complete with Some f -> r.r_on_complete <- f | None -> ());
  (match uq_match t ~src ~tag with
  | Some slot -> consume_uq t slot r
  | None -> r.r_entry <- Match_list.post t.posted ~src ~tag r);
  r

let post_recv ?on_complete ?(ring = false) t ~src ~tag region ~off ~len =
  check_range "Endpoint.post_recv" region ~off ~len;
  let m = model t in
  Sim.delay (sim t) m.Cost_model.emp_host_post;
  let r = attach ?on_complete t ~ring ~src ~tag region ~off ~len in
  if not r.r_matched then begin
    (* The doorbell lands on the queue that will serve this peer. *)
    Tigon.doorbell t.nic;
    Tigon.count_mailbox_fetch t.nic;
    ignore
      (Resource.completion_after
         (Tigon.rx_cpu ~queue:(rx_queue t ~src) t.nic)
         m.Cost_model.nic_mailbox_fetch)
  end;
  r

(* Batched descriptor replenish — the fill-ring path. Descriptors become
   matchable immediately (same visibility contract as [post_recv]); what
   batching changes is the cost shape: one host-post charge and one
   doorbell + [nic_doorbell_batch] mailbox fetch per involved receive
   queue, with each slot a cached [ring_slot_post] write and a cheap
   fixed-format [nic_ring_slot_fetch] on the NIC, instead of a
   [pio_write] + [nic_mailbox_fetch] per descriptor. Each descriptor
   carries its own completion hook, so one batch can post a
   connection's data and control slots together. A singleton batch
   takes [post_recv ~ring:true]'s path. *)
let post_recv_batch t specs =
  match specs with
  | [] -> []
  | [ (src, tag, region, off, len, on_complete) ] ->
    [ post_recv ?on_complete ~ring:true t ~src ~tag region ~off ~len ]
  | _ ->
    List.iter
      (fun (_, _, region, off, len, _) ->
        check_range "Endpoint.post_recv_batch" region ~off ~len)
      specs;
    let m = model t in
    Sim.delay (sim t) m.Cost_model.emp_host_post;
    let queue_counts = Array.make (Tigon.rx_queues t.nic) 0 in
    let rs =
      List.map
        (fun (src, tag, region, off, len, on_complete) ->
          Sim.delay (sim t) m.Cost_model.ring_slot_post;
          let r = attach ?on_complete t ~ring:true ~src ~tag region ~off ~len in
          if not r.r_matched then begin
            let q = rx_queue t ~src in
            queue_counts.(q) <- queue_counts.(q) + 1
          end;
          r)
        specs
    in
    Array.iteri
      (fun q k ->
        if k > 0 then begin
          Tigon.doorbell t.nic;
          Tigon.count_mailbox_fetch t.nic;
          ignore
            (Resource.completion_after
               (Tigon.rx_cpu ~queue:q t.nic)
               (m.Cost_model.nic_doorbell_batch
               + (k * m.Cost_model.nic_ring_slot_fetch)))
        end)
      queue_counts;
    rs

let unpost_recv t r =
  if r.r_matched || r.r_done then false
  else begin
    r.r_cancelled <- true;
    let removed = Match_list.remove t.posted r.r_entry in
    (* Cancelled receives complete with the -1 sentinel so fibers blocked
       in [wait_recv] unwind (socket close, §5.3). *)
    complete_recv t r ~len:(-1) ~src:(-1) ~tag:(-1);
    removed
  end

let uq_has_match ?pred t ~src ~tag = uq_match ?pred t ~src ~tag <> None

let uq_take t ~pred =
  match uq_match ~pred t ~src:(-1) ~tag:(-1) with
  | None -> None
  | Some slot ->
    let data = Memory.sub_string slot.u_buf ~off:0 ~len:slot.u_len in
    slot.u_state <- `Free;
    slot.u_len <- 0;
    Some (data, slot.u_from, slot.u_tag)

let set_send_failure_handler t f = t.on_send_failure <- f
let set_unexpected_handler t f = t.on_unexpected <- f

let provision_unexpected t ~slots ~size =
  for _ = 1 to slots do
    Vec.push t.uq
      {
        u_buf = Memory.alloc size;
        u_size = size;
        u_len = 0;
        u_from = -1;
        u_tag = -1;
        u_state = `Free;
        u_born = 0;
      }
  done

(* --- NIC receive firmware ------------------------------------------ *)

let send_protocol_ack t ~queue ~dst ~key ~acked =
  let m = model t in
  Tigon.rx_work ~queue t.nic m.Cost_model.nic_ack_gen;
  t.st_acks <- t.st_acks + 1;
  Tigon.transmit t.nic (Wire.ack_frame ~src:(node_id t) ~dst ~key ~acked)

(* The unexpected queue is a finite resource: arrived messages that
   nobody ever posts a receive for (e.g. a credit ack that raced a
   socket close) would pin their slot forever, eventually starving live
   traffic. When no slot is free, the stalest sufficiently old arrival
   is evicted — semantically, EMP drops the unexpected message. *)
let uq_stale_after = Time.ms 5

let evict_stale_uq t ~total_len =
  let now = Sim.now (sim t) in
  let best = ref None in
  Vec.iter
    (fun slot ->
      if
        slot.u_state = `Arrived
        && now - slot.u_born > uq_stale_after
        && slot.u_size >= total_len
      then
        match !best with
        | Some b when b.u_born <= slot.u_born -> ()
        | _ -> best := Some slot)
    t.uq;
  match !best with
  | Some slot ->
    slot.u_state <- `Free;
    slot.u_len <- 0;
    Some slot
  | None -> None

let free_uq_slot_for t ~total_len =
  let n = Vec.length t.uq in
  let rec scan i walked =
    if i >= n then (evict_stale_uq t ~total_len, walked)
    else begin
      let slot = Vec.get t.uq i in
      if slot.u_state = `Free && slot.u_size >= total_len then (Some slot, walked + 1)
      else scan (i + 1) (walked + 1)
    end
  in
  scan 0 0

(* Metric side of a descriptor lookup: the emp walk histogram plus the
   canonical nic.match_* series (every match, both engines). *)
let observe_match t (probe : Match_list.probe) =
  Stats.Summary.add t.mh.h_match_walk_descs (float_of_int probe.walked);
  Tigon.observe_match t.nic probe

let charge_match t ~queue (probe : Match_list.probe) =
  observe_match t probe;
  Tigon.rx_work ~queue t.nic (Tigon.match_cost t.nic probe)

(* First frame of a message: look up the posted descriptors (charging
   the engine's match cost), falling back to the unexpected queue, which
   is checked last (paper §6.4). *)
let match_new_message t ~queue (d : Wire.data) =
  let src = d.key.Wire.src_node in
  match Match_list.take t.posted ~src ~tag:d.tag with
  | Some r, probe ->
    (* Claim the descriptor before the blocking charge, as the UQ path
       below claims its slot: an owner's [unpost_recv] in that window
       then finds it matched, instead of cancelling it under an arrived
       frame that would be dropped unacked. *)
    r.r_matched <- true;
    charge_match t ~queue probe;
    Some (To_user r)
  | None, probe ->
    let slot, uq_walked = free_uq_slot_for t ~total_len:d.total_len in
    (* Claim the slot before any blocking charge: with two receive
       queues, another dispatcher fiber could otherwise pick the same
       free slot while this one waits for its core. *)
    (match slot with
    | Some slot ->
      slot.u_state <- `Filling;
      slot.u_from <- src;
      slot.u_tag <- d.tag;
      slot.u_len <- d.total_len;
      slot.u_born <- Sim.now (sim t)
    | None -> ());
    charge_match t ~queue
      { probe with Match_list.walked = probe.Match_list.walked + uq_walked };
    (match slot with None -> None | Some slot -> Some (To_uq slot))

let store_chunk record (d : Wire.data) =
  let bytes = String.length d.chunk in
  let dst_off = d.frame_idx * Wire.max_data_per_frame in
  match record.rec_dst with
  | To_user r ->
    let room = r.r_cap - dst_off in
    let n = min bytes (max 0 room) in
    if n > 0 then
      Memory.blit_from_string ~len:n d.chunk r.r_region ~off:(r.r_off + dst_off)
  | To_uq slot ->
    let room = slot.u_size - dst_off in
    let n = min bytes (max 0 room) in
    if n > 0 then Memory.blit_from_string ~len:n d.chunk slot.u_buf ~off:dst_off

let peer t src =
  match Hashtbl.find_opt t.rx_peers src with
  | Some p -> p
  | None ->
    let p =
      { p_lwm = 0; p_finished = Hashtbl.create 16; p_order = Queue.create () }
    in
    Hashtbl.replace t.rx_peers src p;
    p

(* Frames may arrive reordered, so a mark only ever rises. Finished
   entries below it are dropped oldest first. *)
let advance_lwm p lwm =
  if lwm > p.p_lwm then begin
    p.p_lwm <- lwm;
    while (not (Queue.is_empty p.p_order)) && Queue.peek p.p_order < lwm do
      Hashtbl.remove p.p_finished (Queue.pop p.p_order)
    done
  end

let finish_record t p key record =
  Hashtbl.remove t.active_rx key;
  let id = key.Wire.msg_id in
  if id >= p.p_lwm then begin
    Hashtbl.replace p.p_finished id record.rec_nframes;
    Queue.push id p.p_order
  end;
  Stats.Counter.incr t.mh.h_messages_received;
  if Trace.enabled t.trace then
    Trace.instant t.trace ~layer:Trace.Emp ~node:(node_id t) "emp.msg_complete"
      ~seq:id
      ~args:[ ("len", string_of_int record.rec_total) ];
  match record.rec_dst with
  | To_user r ->
    complete_recv t r
      ~len:(min record.rec_total r.r_cap)
      ~src:record.rec_src ~tag:record.rec_tag
  | To_uq slot -> (
    slot.u_state <- `Arrived;
    t.on_unexpected ~src:slot.u_from ~tag:slot.u_tag;
    (* A descriptor posted while the message was in flight may be
       waiting; deliver to it now, unless the handler discarded the
       message. The match time was already paid when the message
       arrived; this re-take is delivery bookkeeping, so it is observed
       (metrics) but not charged against the receive core. *)
    if slot.u_state = `Arrived then
      match
        Match_list.take t.posted ~src:slot.u_from ~tag:slot.u_tag
      with
      | Some r, probe ->
        observe_match t probe;
        if r.r_cancelled then ()
        else consume_uq t slot r
      | None, probe -> observe_match t probe)

let rx_data t ~queue (d : Wire.data) =
  let m = model t in
  Tigon.rx_work ~queue t.nic m.Cost_model.nic_rx_classify;
  let key = d.key in
  let p = peer t key.Wire.src_node in
  advance_lwm p d.lwm;
  let record =
    match Hashtbl.find_opt t.active_rx key with
    | Some record ->
      (* Later frame: matched against the in-progress receive record. *)
      Tigon.rx_work ~queue t.nic m.Cost_model.nic_tag_match_per_desc;
      Some record
    | None -> (
      (* Below the mark the message is settled at the sender, so the
         frame is a stale duplicate; at or above it, only the finished
         table knows. *)
      let finished =
        if key.Wire.msg_id < p.p_lwm then Some d.nframes
        else Hashtbl.find_opt p.p_finished key.Wire.msg_id
      in
      match finished with
      | Some nframes ->
        (* Duplicate of a completed message: re-ack so the sender stops,
           and never match it against a descriptor. *)
        send_protocol_ack t ~queue ~dst:key.Wire.src_node ~key ~acked:nframes;
        None
      | None -> (
        match match_new_message t ~queue d with
        | None ->
          Stats.Counter.incr t.mh.h_drops_no_descriptor;
          Trace.instant t.trace ~layer:Trace.Emp ~node:(node_id t) "emp.drop";
          None
        | Some dst ->
          let record =
            {
              rec_dst = dst;
              rec_nframes = d.nframes;
              rec_total = d.total_len;
              rec_src = key.Wire.src_node;
              rec_tag = d.tag;
              rec_got = Array.make d.nframes false;
              rec_count = 0;
              rec_prefix = 0;
              rec_nacked = false;
            }
          in
          Hashtbl.replace t.active_rx key record;
          Some record))
  in
  match record with
  | None -> ()
  | Some record ->
    if record.rec_got.(d.frame_idx) then
      (* Duplicate frame (ack loss / go-back-N overlap): re-ack the
         contiguous prefix so the sender resumes from the right point. *)
      send_protocol_ack t ~queue ~dst:key.Wire.src_node ~key
        ~acked:record.rec_prefix
    else begin
      record.rec_got.(d.frame_idx) <- true;
      record.rec_count <- record.rec_count + 1;
      let old_prefix = record.rec_prefix in
      while
        record.rec_prefix < record.rec_nframes
        && record.rec_got.(record.rec_prefix)
      do
        record.rec_prefix <- record.rec_prefix + 1
      done;
      if record.rec_prefix > old_prefix then record.rec_nacked <- false;
      (* A ring-path descriptor's per-frame work runs during the payload
         DMA, and its completion is posted as soon as the payload has
         landed, before the ack is built: the ack leaves at the same
         instant either way. Everything else keeps the paper firmware's
         order: per-frame work, DMA, ack, completion. *)
      let slot =
        match record.rec_dst with To_user r -> r.r_slot | To_uq _ -> false
      in
      store_chunk record d;
      let bytes = String.length d.chunk in
      if slot then Tigon.dma_with_rx_work ~queue t.nic ~bytes
      else begin
        Tigon.rx_work ~queue t.nic m.Cost_model.nic_rx_per_frame;
        Tigon.dma t.nic ~bytes
      end;
      let complete = record.rec_count = record.rec_nframes in
      let early = complete && slot in
      if early then finish_record t p key record;
      (* Cumulative acks carry the contiguous prefix — never the raw
         count, which would overstate progress across a loss hole. *)
      if complete || record.rec_prefix mod t.cfg.ack_window = 0 then
        send_protocol_ack t ~queue ~dst:key.Wire.src_node ~key
          ~acked:record.rec_prefix;
      (* Gap detected (a frame beyond the prefix): NACK once so the
         sender rewinds immediately instead of waiting out its RTO. *)
      if
        t.cfg.use_nacks && (not complete)
        && d.frame_idx > record.rec_prefix
        && not record.rec_nacked
      then begin
        record.rec_nacked <- true;
        Stats.Counter.incr t.mh.h_nacks_sent;
        Trace.instant t.trace ~layer:Trace.Emp ~node:(node_id t) "emp.nack"
          ~args:[ ("missing", string_of_int record.rec_prefix) ];
        Tigon.rx_work ~queue t.nic m.Cost_model.nic_ack_gen;
        Tigon.transmit t.nic
          (Wire.nack_frame ~src:(node_id t) ~dst:key.Wire.src_node ~key
             ~next_expected:record.rec_prefix)
      end;
      if complete && not early then finish_record t p key record
    end

let rx_ack t ~queue key acked =
  let m = model t in
  Tigon.rx_work ~queue t.nic m.Cost_model.nic_rx_classify;
  match Hashtbl.find_opt t.active_tx key with
  | None -> ()
  | Some st ->
    if acked > st.s_acked then begin
      st.s_acked <- acked;
      (* An ack may cover frames sent before a go-back-N rewind: skip
         retransmitting what the receiver already holds. *)
      if st.s_next < acked then st.s_next <- acked;
      st.s_rto <- t.cfg.rto;
      st.s_retries <- 0
    end;
    if st.s_acked >= st.s_nframes && not st.s_done then begin
      st.s_done <- true;
      settle t st;
      if Trace.enabled t.trace then
        Trace.span_end t.trace ~layer:Trace.Emp ~node:(node_id t) "emp.send"
          st.s_span;
      (* Completion notification DMA'd to the host. Ring-submitted
         sends post to the CQ instead, whose flush fiber coalesces many
         completion writes into one DMA burst (CQ moderation) — at high
         completion rates the per-message [dma_setup] vanishes. *)
      (match (st.s_ring, t.tx_ring) with
      | true, Some rp -> Uls_rings.Ringpair.complete rp st
      | _ -> Tigon.dma t.nic ~bytes:8)
    end;
    Cond.broadcast st.s_cond

(* A NACK names the first missing frame: rewind the transmit point to it
   at once (selective go-back-N) without waiting for the RTO. *)
let rx_nack t ~queue key next_expected =
  let m = model t in
  Tigon.rx_work ~queue t.nic m.Cost_model.nic_rx_classify;
  match Hashtbl.find_opt t.active_tx key with
  | None -> ()
  | Some st ->
    (* A NACK is also cumulative: everything below the named frame has
       been received. *)
    if next_expected > st.s_acked then st.s_acked <- next_expected;
    if next_expected < st.s_next then rewind_to t st next_expected;
    Cond.broadcast st.s_cond

let rx_dispatcher t queue () =
  let rec loop () =
    let frame = Mailbox.recv t.rx_queues.(queue) in
    (match frame.Uls_ether.Frame.payload with
    | Wire.Data d -> rx_data t ~queue d
    | Wire.Ack { key; acked } -> rx_ack t ~queue key acked
    | Wire.Nack { key; next_expected } -> rx_nack t ~queue key next_expected
    | _ -> ());
    loop ()
  in
  loop ()

let create ?(config = default_config) node nic =
  let sim = Node.sim node in
  let metrics = Metrics.for_sim sim in
  let node_id = Node.id node in
  let counter name = Metrics.counter metrics ~node:node_id name in
  let t =
    {
      node;
      nic;
      cfg = config;
      metrics;
      mh =
        {
          h_frames_sent = counter "emp.frames_sent";
          h_send_failures = counter "emp.send_failures";
          h_frames_retransmitted = counter "emp.frames_retransmitted";
          h_messages_sent = counter "emp.messages_sent";
          h_uq_hits = counter "emp.uq_hits";
          h_match_walk_descs =
            Metrics.histogram metrics ~node:node_id "emp.match_walk_descs";
          h_messages_received = counter "emp.messages_received";
          h_drops_no_descriptor = counter "emp.drops_no_descriptor";
          h_nacks_sent = counter "emp.nacks_sent";
        };
      trace = Trace.for_sim sim;
      inv = Invariant.for_sim sim;
      next_msg_id = 0;
      posted = Match_list.create ~engine:(Tigon.match_engine nic) ();
      uq = Vec.create ();
      active_rx = Hashtbl.create 64;
      rx_peers = Hashtbl.create 16;
      active_tx = Hashtbl.create 64;
      tx_order = Hashtbl.create 16;
      rx_queues =
        Array.init (Tigon.rx_queues nic) (fun i ->
            let label =
              if i = 0 then "emp:rx-queue"
              else Printf.sprintf "emp:rx-queue%d" i
            in
            Mailbox.create ~label sim);
      tx_ring = None;
      on_send_failure = (fun ~dst:_ ~tag:_ ~retries:_ -> ());
      on_unexpected = (fun ~src:_ ~tag:_ -> ());
      st_acks = 0;
      st_desc_posted = 0;
      st_desc_completed = 0;
    }
  in
  Tigon.set_firmware_rx ~rss:true nic (fun ~queue frame ->
      Mailbox.send t.rx_queues.(queue) frame);
  Array.iteri
    (fun i _ ->
      let name =
        if i = 0 then "emp-rx-dispatch"
        else Printf.sprintf "emp-rx-dispatch%d" i
      in
      Sim.spawn sim ~name ~daemon:true (rx_dispatcher t i))
    t.rx_queues;
  t
