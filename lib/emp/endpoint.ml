open Uls_engine
open Uls_host
open Uls_nic

type firmware = Paper | Ring

type config = {
  ack_window : int;
  rto : Time.ns;
  max_retries : int;
  use_nacks : bool;  (* gap-triggered NACK frames for fast loss recovery *)
}

let default_config =
  { ack_window = 4; rto = Time.ms 2; max_retries = 20; use_nacks = true }

(* Max unacked frames in flight per message. *)
let tx_window = 64

(* Backoff ceiling for the doubling RTO. It must cover the worst-case
   receive-side queueing delay: under incast (many senders, one
   receiver) the receiving NIC serializes tag-match walks, and a ceiling
   below that delay turns congestion into spurious retransmission storms
   and eventually [Send_failed]. *)
let max_rto = Time.ms 200

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
      (* a ring-format descriptor (fill ring, or a [Ring] endpoint's):
         the firmware completes it before building the protocol ack *)
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
  mutable u_state : [ `Free | `Filling | `Arrived | `Claimed ];
      (* [`Claimed]: a descriptor took it and the host copy is running *)
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
  p_node : int;
  mutable p_lwm : int;
  p_finished : (int, int) Hashtbl.t;  (* msg id -> nframes *)
  p_order : int Queue.t;  (* finished ids, oldest first *)
  (* A [Ring] endpoint's held acks toward this node, oldest first: the
     final ack of each message from it that completed here and has not
     left yet. [p_held_at] is when the oldest was held, [p_timer] the
     flush armed for it ([-1]: none). *)
  p_held : Wire.ack Queue.t;
  mutable p_held_at : Time.ns;
  mutable p_timer : int;
  (* Messages from this node completed here, and final acks sent for
     them: every completed message's is held or sent, exactly once. *)
  mutable p_completed : int;
  mutable p_final_acks : int;
}

type stats = {
  messages_sent : int;
  messages_received : int;
  frames_sent : int;
  frames_retransmitted : int;
  frames_dropped_no_descriptor : int;
  ack_frames_sent : int;
  acks_piggybacked : int;
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
  h_ack_frames : Stats.Counter.t;
  h_acks_piggybacked : Stats.Counter.t;
}

type t = {
  node : Node.t;
  nic : Tigon.t;
  cfg : config;
  firmware : firmware;
  metrics : Metrics.t;
  mh : handles;
  trace : Trace.t;
  inv : Invariant.t;
  mutable next_msg_id : int;
  posted : recv Match_list.t;
  uq : uq_slot Vec.t;
  mutable uq_arrived : int;  (* slots in [`Arrived]: nothing to walk at 0 *)
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
  (* Per receive queue: frames queued or in service (the queue is busy
     while this is above 0), and fill-ring slots posted to it while busy,
     which its dispatcher fetches between frames. *)
  rx_load : int array;
  rx_pending : int array;
  (* Batched I/O: one submission/completion ring pair per endpoint (the
     connection group), created on first use. *)
  mutable tx_ring : (send, send) Uls_rings.Ringpair.t option;
  mutable on_send_failure : dst:int -> tag:int -> retries:int -> unit;
  mutable on_unexpected : src:int -> tag:int -> unit;
  mutable st_desc_posted : int;
  mutable st_desc_completed : int;
}

exception Send_failed of { dst : int; tag : int; retries : int }

let node t = t.node
let nic t = t.nic
let node_id t = Node.id t.node
let sim t = Node.sim t.node
let config t = t.cfg
let firmware t = t.firmware
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
    ack_frames_sent = count t.mh.h_ack_frames;
    acks_piggybacked = count t.mh.h_acks_piggybacked;
    unexpected_queue_hits = count t.mh.h_uq_hits;
    nacks_sent = count t.mh.h_nacks_sent;
    finished_retained =
      Hashtbl.fold (fun _ p n -> n + Hashtbl.length p.p_finished) t.rx_peers 0;
  }

(* ------------------------------------------------------------------ *)
(* Protocol acks: sent, held, carried                                  *)
(* ------------------------------------------------------------------ *)

(* How long a [Ring] endpoint's NIC holds the ack that completes a
   message, waiting for a data frame to its sender to carry it, before
   one ack frame takes it and every other ack then held for that node
   (DESIGN §16). It covers the server preset's request-to-reply
   turnaround at the server NIC: 9.7 us in an unloaded 256 B echo, at
   most 34.4 us in a 256-connection echo at 140k req/s, past serve's
   knee. So every reply carries its request's ack, and the hold stays
   1/50 of the 2 ms RTO. *)
let ack_holdoff = Time.us 40

(* One ack frame to [dst], built on the core of the receive queue that
   serves [dst]: one [nic_ack_gen] however many acks it holds. *)
let send_ack_frame t ~queue ~dst acks =
  Tigon.rx_work ~queue t.nic (model t).Cost_model.nic_ack_gen;
  Stats.Counter.incr t.mh.h_ack_frames;
  Tigon.transmit t.nic (Wire.ack_frame ~src:(node_id t) ~dst acks)

(* Ack conservation toward one node, checked once each completed
   message's final ack is decided: it is held or it was sent, once. *)
let check_final_acks t p =
  let held = Queue.length p.p_held in
  if p.p_completed <> p.p_final_acks + held then
    Invariant.check t.inv ~name:"emp.final_ack_once" false (fun () ->
        Printf.sprintf
          "node %d: %d messages from node %d completed, %d final acks sent \
           and %d held"
          (node_id t) p.p_completed p.p_node p.p_final_acks held)

(* Up to [n] of the acks held for [p], oldest first, which leave now.
   Taking the last one disarms the flush. *)
let take_held t p n =
  let age = Sim.now (sim t) - p.p_held_at in
  if age > ack_holdoff then
    Invariant.check t.inv ~name:"emp.ack_holdoff" false (fun () ->
        Printf.sprintf "node %d: an ack for node %d held %d ns, past the %d ns \
                        holdoff"
          (node_id t) p.p_node age ack_holdoff);
  let rec take k acc =
    if k = n || Queue.is_empty p.p_held then (k, List.rev acc)
    else take (k + 1) (Queue.pop p.p_held :: acc)
  in
  let k, acks = take 0 [] in
  p.p_final_acks <- p.p_final_acks + k;
  if Queue.is_empty p.p_held then begin
    Sim.cancel (sim t) p.p_timer;
    p.p_timer <- -1
  end;
  (k, acks)

(* The holdoff ran out with no data frame toward [p]: one ack frame
   takes every held ack (a frame's worth at a time). *)
let rec flush_held t p () =
  p.p_timer <- -1;
  let _, acks = take_held t p Wire.max_acks_per_frame in
  if not (Queue.is_empty p.p_held) then
    p.p_timer <- Sim.timer (sim t) (Sim.now (sim t)) (flush_held t p);
  Sim.spawn (sim t) ~name:"emp-ack-flush" (fun () ->
      send_ack_frame t ~queue:(Tigon.steer t.nic ~flow:p.p_node) ~dst:p.p_node
        acks)

let hold_ack t p ack =
  if Queue.is_empty p.p_held then begin
    let now = Sim.now (sim t) in
    p.p_held_at <- now;
    p.p_timer <- Sim.timer (sim t) (now + ack_holdoff) (flush_held t p)
  end;
  Queue.push ack p.p_held

(* The held acks a data frame to [dst] with a [chunk]-byte payload has
   room for. *)
let piggyback t ~dst ~chunk =
  match Hashtbl.find_opt t.rx_peers dst with
  | Some p when not (Queue.is_empty p.p_held) ->
    let k, acks = take_held t p (Wire.acks_that_fit ~chunk) in
    Stats.Counter.add t.mh.h_acks_piggybacked k;
    acks
  | Some _ | None -> []

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

let send_frame ~fetch t st idx =
  let chunk = chunk_of st idx in
  (* A ring-slot send builds its header during the payload DMA; a
     ring-pair one is also gather-DMA: frames queued behind an
     in-progress transfer ride the burst (no per-frame setup). Mailbox
     sends keep the one-transaction-per-frame charge, and build the
     header only once the payload is on the NIC. A nonzero [fetch] is a
     one-slot send's descriptor fetch, booked with this header build. *)
  let bytes = String.length chunk in
  if st.s_ring || t.firmware = Ring then
    Tigon.dma_with_header ~fetch ~pipelined:st.s_ring t.nic ~bytes
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
      acks =
        (if t.firmware = Ring then piggyback t ~dst:st.s_dst ~chunk:bytes
         else []);
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
   (go-back-N) whenever the RTO expires. A [Ring] one-slot send's fetch
   and its first frame's header build are one job on the send core. *)
let tx_fiber ~fetch t st () =
  if fetch > 0 then begin
    Tigon.count_mailbox_fetch t.nic;
    if t.firmware = Ring then begin
      st.s_next <- 1;
      send_frame ~fetch t st 0
    end
    else Tigon.tx_work t.nic fetch
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
      st.s_rto <- min (2 * st.s_rto) max_rto
    end
  in
  let rec drive () =
    if st.s_failed || st.s_done then ()
    else if give_up () then fail_send t st
    else if st.s_next < st.s_nframes then
      if st.s_next - st.s_acked >= tx_window then begin
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
        send_frame ~fetch:0 t st idx;
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

let make_send t ~dst ~tag region ~off ~len =
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

(* A [Ring] endpoint's send is one fixed-format slot, whose format
   subsumes the per-message parse, charged here as [post_recv_batch]
   charges the fill ring: the ring pair's fetch and completion fibers
   would add events and leave an unreaped completion. *)
let post_send t ~dst ~tag region ~off ~len =
  check_range "Endpoint.post_send" region ~off ~len;
  let m = model t in
  let host, fetch =
    if t.firmware = Ring then
      ( m.Cost_model.emp_host_post + m.Cost_model.ring_slot_post,
        m.Cost_model.nic_doorbell_batch + m.Cost_model.nic_ring_slot_fetch )
    else
      ( m.Cost_model.emp_host_post,
        m.Cost_model.nic_mailbox_fetch + m.Cost_model.nic_tx_per_msg )
  in
  Sim.delay (sim t) host;
  Os.pin_region (Node.os t.node) region ~off ~len;
  Tigon.doorbell t.nic;
  let st = make_send t ~dst ~tag region ~off ~len in
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
   takes the classic [post_send] path (in the endpoint's firmware mode)
   so [--batch 1] reproduces the per-call behaviour byte for byte. *)
let post_sendv t specs =
  match specs with
  | [] -> []
  | [ (dst, tag, region, off, len) ] ->
    [ post_send t ~dst ~tag region ~off ~len ]
  | _ ->
    check_ranges "Endpoint.post_sendv" specs;
    let m = model t in
    let rp = get_tx_ring t in
    Sim.delay (sim t) m.Cost_model.emp_host_post;
    let sts =
      List.map
        (fun (dst, tag, region, off, len) ->
          Os.pin_region (Node.os t.node) region ~off ~len;
          let st = make_send t ~dst ~tag region ~off ~len in
          st.s_ring <- true;
          Uls_rings.Ringpair.submit rp st;
          st)
        specs
    in
    Uls_rings.Ringpair.ring_doorbell rp;
    sts

let reap_sent t =
  match t.tx_ring with
  | None -> []
  | Some rp ->
    let popped = Uls_rings.Ringpair.reap rp ~max:max_int in
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

(* Each monitor builds its report only on failure, so a clean completion
   allocates no closure. *)
let complete_recv t r ~len ~src ~tag =
  if r.r_done then
    Invariant.check t.inv ~name:"emp.desc_double_complete" false (fun () ->
        Printf.sprintf "node %d: descriptor completed twice (src=%d tag=%d)"
          (node_id t) src tag);
  r.r_len <- len;
  r.r_from <- src;
  r.r_tag <- tag;
  r.r_done <- true;
  t.st_desc_completed <- t.st_desc_completed + 1;
  if t.st_desc_completed > t.st_desc_posted then
    Invariant.check t.inv ~name:"emp.desc_conservation" false (fun () ->
        Printf.sprintf "node %d: %d descriptors completed but only %d posted"
          (node_id t) t.st_desc_completed t.st_desc_posted);
  Option.iter Cond.broadcast r.r_cond;
  r.r_on_complete r len

(* Every unexpected-queue state change goes through here, so
   [uq_arrived] always counts the slots a descriptor could take. *)
let set_uq_state t slot state =
  (match slot.u_state with
  | `Arrived -> t.uq_arrived <- t.uq_arrived - 1
  | `Free | `Filling | `Claimed -> ());
  (match state with
  | `Arrived -> t.uq_arrived <- t.uq_arrived + 1
  | `Free | `Filling | `Claimed -> ());
  slot.u_state <- state

let free_uq_slot t slot =
  set_uq_state t slot `Free;
  slot.u_len <- 0

(* Host-side consumption of a message that landed in the unexpected
   queue: copy into the user buffer (the extra copy the paper accepts
   for UQ traffic), then free the slot. The slot is claimed before the
   copy, so no descriptor posted (and no [uq_take]) while it runs takes
   the same message again. *)
let consume_uq t slot r =
  Stats.Counter.incr t.mh.h_uq_hits;
  if Trace.enabled t.trace then
    Trace.instant t.trace ~layer:Trace.Emp ~node:(node_id t) "emp.uq_consume";
  let len = min slot.u_len r.r_cap in
  r.r_matched <- true;
  set_uq_state t slot `Claimed;
  let finish () =
    Node.copy t.node ~src:slot.u_buf ~src_off:0 ~dst:r.r_region ~dst_off:r.r_off
      ~len;
    let src = slot.u_from and tag = slot.u_tag in
    free_uq_slot t slot;
    complete_recv t r ~len ~src ~tag
  in
  Sim.spawn (sim t) ~name:"emp-uq-copy" finish

let any ~src:_ ~tag:_ = true

(* The first arrived unexpected-queue message from [src] with [tag]
   (either may be [-1], a wildcard) that also satisfies [pred]. A
   message is rarely waiting, so most posts skip the walk. *)
let uq_match ?(pred = any) t ~src ~tag =
  let n = if t.uq_arrived = 0 then 0 else Vec.length t.uq in
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

let make_recv t ~slot region ~off ~len =
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
      r_slot = slot;
      r_cond = None;
      r_on_complete = no_hook;
    }
  in
  t.st_desc_posted <- t.st_desc_posted + 1;
  r

(* The receive queue that fetches a descriptor for [src]: the one that
   serves the peer. A wildcard descriptor sits on the fill ring every
   queue reads, so a [Ring] endpoint lets the first busy queue take it
   between frames, and wakes queue 0 only when every queue is idle; a
   [Paper] post always goes to queue 0's mailbox. *)
let rx_queue t ~src =
  if src <> -1 then Tigon.steer t.nic ~flow:src
  else if t.firmware = Paper then 0
  else begin
    let n = Array.length t.rx_load in
    let rec busy q =
      if q >= n then 0 else if t.rx_load.(q) > 0 then q else busy (q + 1)
    in
    busy 0
  end

(* Pin and build one descriptor, then attach it: it takes an arrived
   unexpected-queue message at once (and is [r_matched] on return), or
   joins the match list. *)
let attach ?on_complete t ~slot ~src ~tag region ~off ~len =
  Os.pin_region (Node.os t.node) region ~off ~len;
  let r = make_recv t ~slot region ~off ~len in
  (match on_complete with Some f -> r.r_on_complete <- f | None -> ());
  (match uq_match t ~src ~tag with
  | Some slot -> consume_uq t slot r
  | None -> r.r_entry <- Match_list.post t.posted ~src ~tag r);
  r

(* Tell receive queue [queue] about [slots] new descriptors. A [Ring]
   endpoint's busy queue (a frame in service or queued) takes them from
   the fill ring itself between frames, as an AF_XDP device does while
   it needs no wake-up: no doorbell, and no fetch reserved now, so none
   lands between a frame's steps. An idle queue, and every [Paper]
   post, gets a doorbell and its [fetch] booked on the receive core. *)
let notify_rx t ~queue ~slots fetch =
  if t.firmware = Ring && t.rx_load.(queue) > 0 then
    t.rx_pending.(queue) <- t.rx_pending.(queue) + slots
  else begin
    Tigon.doorbell t.nic;
    Tigon.count_mailbox_fetch t.nic;
    ignore (Resource.completion_after (Tigon.rx_cpu ~queue t.nic) fetch)
  end

(* One mailbox-posted descriptor, charged the same on either firmware
   when its queue is idle; [slot] picks the receive firmware's order for
   its frames. *)
let post_one ?on_complete ~slot t ~src ~tag region ~off ~len =
  check_range "Endpoint.post_recv" region ~off ~len;
  let m = model t in
  Sim.delay (sim t) m.Cost_model.emp_host_post;
  let r = attach ?on_complete t ~slot ~src ~tag region ~off ~len in
  (* The doorbell lands on the queue that will serve this peer. *)
  if not r.r_matched then
    notify_rx t ~queue:(rx_queue t ~src) ~slots:1 m.Cost_model.nic_mailbox_fetch;
  r

let post_recv ?on_complete t ~src ~tag region ~off ~len =
  post_one ?on_complete ~slot:(t.firmware = Ring) t ~src ~tag region ~off ~len

(* Batched descriptor replenish — the fill-ring path. Descriptors become
   matchable immediately (same visibility contract as [post_recv]); what
   batching changes is the cost shape: one host-post charge and one
   doorbell + [nic_doorbell_batch] mailbox fetch per involved idle
   receive queue ([notify_rx]), with each slot a cached [ring_slot_post]
   write and a cheap fixed-format [nic_ring_slot_fetch] on the NIC,
   instead of a [pio_write] + [nic_mailbox_fetch] per descriptor. Each
   descriptor carries its own completion hook, so one batch can post a
   connection's data and control slots together. A singleton batch
   takes a [Ring] endpoint's [post_recv] path, in either mode. *)
let post_recv_batch t specs =
  match specs with
  | [] -> []
  | [ (src, tag, region, off, len, on_complete) ] ->
    [ post_one ?on_complete ~slot:true t ~src ~tag region ~off ~len ]
  | _ ->
    List.iter
      (fun (_, _, region, off, len, _) ->
        check_range "Endpoint.post_recv_batch" region ~off ~len)
      specs;
    let m = model t in
    Sim.delay (sim t) m.Cost_model.emp_host_post;
    let queue_counts = Array.make (Tigon.rx_queues t.nic) 0 in
    let wildcards = ref 0 in
    let rs =
      List.map
        (fun (src, tag, region, off, len, on_complete) ->
          Sim.delay (sim t) m.Cost_model.ring_slot_post;
          let r = attach ?on_complete t ~slot:true ~src ~tag region ~off ~len in
          if not r.r_matched then
            if src = -1 then incr wildcards
            else begin
              let q = rx_queue t ~src in
              queue_counts.(q) <- queue_counts.(q) + 1
            end;
          r)
        specs
    in
    (* Wildcards join the queue that takes them once the batch is on
       the ring, not the one that was busy when each slot was written. *)
    (let q = rx_queue t ~src:(-1) in
     queue_counts.(q) <- queue_counts.(q) + !wildcards);
    Array.iteri
      (fun queue k ->
        if k > 0 then
          notify_rx t ~queue ~slots:k
            (m.Cost_model.nic_doorbell_batch
            + (k * m.Cost_model.nic_ring_slot_fetch)))
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
    free_uq_slot t slot;
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
  send_ack_frame t ~queue ~dst [ { Wire.key; acked } ]

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
    free_uq_slot t slot;
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
      set_uq_state t slot `Filling;
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
      {
        p_node = src;
        p_lwm = 0;
        p_finished = Hashtbl.create 16;
        p_order = Queue.create ();
        p_held = Queue.create ();
        p_held_at = 0;
        p_timer = -1;
        p_completed = 0;
        p_final_acks = 0;
      }
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
  p.p_completed <- p.p_completed + 1;
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
    set_uq_state t slot `Arrived;
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

(* The send-table side of a cumulative ack for [st]: its progress, and
   whether it completed the send. It does not block. *)
let apply_ack t st (a : Wire.ack) =
  let acked = a.Wire.acked in
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
    true
  end
  else false

(* Every ack one frame brings: each is applied to its send at once,
   with no yield before it, then the receive core spends [lookups]
   send-table lookups, the host hears of the completed sends in one
   completion DMA for the frame, and their waiters wake. A
   ring-submitted send posts to the CQ instead, whose flush fiber
   coalesces many completion writes into one DMA burst (CQ moderation:
   at high completion rates the per-message [dma_setup] vanishes). *)
let settle_acks t ~queue ~lookups acks =
  let settled =
    List.filter_map
      (fun a ->
        Option.map
          (fun st -> (st, apply_ack t st a))
          (Hashtbl.find_opt t.active_tx a.Wire.key))
      acks
  in
  if lookups > 0 then
    Tigon.rx_work ~queue t.nic (lookups * (model t).Cost_model.nic_hash_lookup);
  let notified =
    List.fold_left
      (fun n (st, completed) ->
        if not completed then n
        else
          match (st.s_ring, t.tx_ring) with
          | true, Some rp ->
            Uls_rings.Ringpair.complete rp st;
            n
          | _ -> n + 1)
      0 settled
  in
  if notified > 0 then Tigon.dma t.nic ~bytes:(8 * notified);
  List.iter (fun (st, _) -> Cond.broadcast st.s_cond) settled

let rx_payload t ~queue (d : Wire.data) =
  let m = model t in
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
         count, which would overstate progress across a loss hole. The
         ack that completes a message waits on a [Ring] endpoint for a
         data frame to carry it; a window ack keeps the transfer moving,
         so it leaves at once. *)
      if complete then begin
        if t.firmware = Ring then
          hold_ack t p { Wire.key; acked = record.rec_prefix }
        else begin
          send_protocol_ack t ~queue ~dst:key.Wire.src_node ~key
            ~acked:record.rec_prefix;
          p.p_final_acks <- p.p_final_acks + 1
        end
      end
      else if record.rec_prefix mod t.cfg.ack_window = 0 then
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
      if complete then begin
        if not early then finish_record t p key record;
        check_final_acks t p
      end
    end

(* The acks a data frame carries are settled once its payload is
   handled, so they never delay a delivery: one send-table lookup each,
   inside the frame's classify. They are applied to their sends right
   after the payload's completion and before the core spends that time,
   with no yield in between, so no host fiber the payload woke sees a
   send this frame completes still in flight. Moving a yield (a
   [rx_work], a DMA) between the two would break that. *)
let rx_data t ~queue (d : Wire.data) =
  rx_payload t ~queue d;
  match d.Wire.acks with
  | [] -> ()
  | acks -> settle_acks t ~queue ~lookups:(List.length acks) acks

(* A NACK names the first missing frame: rewind the transmit point to it
   at once (selective go-back-N) without waiting for the RTO. *)
let rx_nack t key next_expected =
  match Hashtbl.find_opt t.active_tx key with
  | None -> ()
  | Some st ->
    (* A NACK is also cumulative: everything below the named frame has
       been received. *)
    if next_expected > st.s_acked then st.s_acked <- next_expected;
    if next_expected < st.s_next then rewind_to t st next_expected;
    Cond.broadcast st.s_cond

(* Slots posted while the queue was busy ([notify_rx]), fetched from
   the fill ring once its frame is done: before the next frame, or before
   the dispatcher parks. *)
let fetch_pending t queue =
  let k = t.rx_pending.(queue) in
  if k > 0 then begin
    t.rx_pending.(queue) <- 0;
    Tigon.rx_work ~queue t.nic (k * (model t).Cost_model.nic_ring_slot_fetch)
  end

(* A frame's classify reads only the Ethernet header and EMP's fixed
   header. The paper firmware starts it at the frame's last byte; the
   ring firmware starts it once those headers are in (DESIGN §17), but
   not before [idle], when the dispatcher finished its previous frame,
   nor inside the core's last reservation. The core is charged the same
   [nic_rx_classify] either way, and the dispatcher resumes at the later
   of the last byte and the classify's end, so everything that changes
   EMP state still waits for the whole frame and the MAC's FCS check.
   [now] is the frame's delivery when the dispatcher was waiting for it;
   a frame that queued was delivered before [idle], where its header
   bound cannot bind. *)
let classify t ~queue ~idle frame =
  let d = (model t).Cost_model.nic_rx_classify in
  match t.firmware with
  | Paper -> Tigon.rx_work ~queue t.nic d
  | Ring ->
    let now = Sim.now (sim t) in
    let header =
      Tigon.header_arrival t.nic frame ~delivered:now
        ~header_bytes:Wire.header_bytes
    in
    let core_free = Resource.reserved_until (Tigon.rx_cpu ~queue t.nic) in
    let finish =
      Tigon.rx_work_from ~queue t.nic ~start:(Int.max header idle) d
    in
    let start = finish - d in
    if start < header || start < idle || start < core_free then
      Invariant.check t.inv ~name:"emp.early_classify" false (fun () ->
          Printf.sprintf
            "node %d queue %d: classify at %d ns, before its header (%d), \
             its dispatcher's previous frame (%d) or its core (%d)"
            (node_id t) queue start header idle core_free);
    if finish > now then Sim.delay (sim t) (finish - now)

let rx_dispatcher t queue () =
  let rec loop () =
    let idle = Sim.now (sim t) in
    let frame = Mailbox.recv t.rx_queues.(queue) in
    classify t ~queue ~idle frame;
    (match frame.Uls_ether.Frame.payload with
    | Wire.Data d -> rx_data t ~queue d
    | Wire.Ack acks ->
      (* The classify covers an ack frame's first ack, as the paper
         firmware's one-ack frame; each further ack is one lookup in
         the send table. *)
      settle_acks t ~queue ~lookups:(List.length acks - 1) acks
    | Wire.Nack { key; next_expected } -> rx_nack t key next_expected
    | _ -> ());
    t.rx_load.(queue) <- t.rx_load.(queue) - 1;
    fetch_pending t queue;
    loop ()
  in
  loop ()

let create ?(config = default_config) ?(firmware = Paper) node nic =
  let sim = Node.sim node in
  let metrics = Metrics.for_sim sim in
  let node_id = Node.id node in
  let counter name = Metrics.counter metrics ~node:node_id name in
  let t =
    {
      node;
      nic;
      cfg = config;
      firmware;
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
          h_ack_frames = counter "emp.ack_frames_sent";
          h_acks_piggybacked = counter "emp.acks_piggybacked";
        };
      trace = Trace.for_sim sim;
      inv = Invariant.for_sim sim;
      next_msg_id = 0;
      posted = Match_list.create ~engine:(Tigon.match_engine nic) ();
      uq = Vec.create ();
      uq_arrived = 0;
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
      rx_load = Array.make (Tigon.rx_queues nic) 0;
      rx_pending = Array.make (Tigon.rx_queues nic) 0;
      tx_ring = None;
      on_send_failure = (fun ~dst:_ ~tag:_ ~retries:_ -> ());
      on_unexpected = (fun ~src:_ ~tag:_ -> ());
      st_desc_posted = 0;
      st_desc_completed = 0;
    }
  in
  Tigon.set_firmware_rx ~rss:true nic (fun ~queue frame ->
      t.rx_load.(queue) <- t.rx_load.(queue) + 1;
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
