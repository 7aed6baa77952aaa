(** One substrate connection.

    Receive side: N pre-posted data descriptors pointing at temporary
    credit buffers (eager scheme, §5.2), plus either N pre-posted ack
    descriptors or unexpected-queue ack consumption (§6.4), plus one
    descriptor each for rendezvous requests, rendezvous grants and the
    "closed" control message (§5.3). No fiber waits on any of them:
    each completes into a serial handler ({!Serial}) that spawns a
    fiber only while there is something to reap: an ordered one reaps
    the data descriptors in posting order, one per control slot reaps
    that slot, and one consumes the credit acks that land in the
    unexpected queue. Send side: credit-based
    flow control with delayed and piggy-backed acknowledgments
    (§6.1–6.3).
    Messages carry a per-connection sequence number so eager and
    rendezvous traffic interleave in FIFO order at the reader. *)

open Uls_engine
open Uls_host
module E = Uls_emp.Endpoint

type env = {
  node : Node.t;
  emp : E.t;
  opts : Options.t;
  ctrl_pool : Sendpool.t;  (* registered ring for small control messages *)
  notify : unit -> unit;
  release : t -> unit;
  mh : handles;
  trace : Trace.t;
  inv : Invariant.t;
}

and slot = {
  sl_region : Memory.region;
  mutable sl_current : E.recv option;
}

and ready = {
  rd_seq : int;
  rd_slot : slot;
  rd_len : int; (* payload bytes *)
  mutable rd_off : int; (* consumed payload bytes (streaming reads) *)
}

and rdvz_req = {
  rq_seq : int;
  rq_id : int;
  rq_size : int;
}

(* Metric handles resolved once per node: stream reads/writes bump a
   counter cell directly instead of a per-call registry lookup. *)
and handles = {
  h_credit_acks_sent : Stats.Counter.t;
  h_credit_wait_us : Stats.Summary.t;
  h_rdvz_grant_wait_us : Stats.Summary.t;
  h_writes : Stats.Counter.t;
  h_bytes_written : Stats.Counter.t;
  h_ack_holdoffs_armed : Stats.Counter.t;
  h_reads : Stats.Counter.t;
  h_bytes_read : Stats.Counter.t;
  h_close_retries : Stats.Counter.t;
  h_resets : Stats.Counter.t;
}

and t = {
  env : env;
  id : int;
  peer_node : int;
  mutable peer_conn : int;
  local_addr : Uls_api.Sockets_api.addr;
  mutable peer_addr : Uls_api.Sockets_api.addr;
  (* send side *)
  mutable credits : int;
  credits_c : Cond.t;
  mutable next_seq : int;
  mutable next_rdvz : int;
  data_pool : Sendpool.t;
  mutable rdvz_tx : Memory.region;  (* grow-on-demand registered buffer *)
  mutable rdvz_tx_pending : E.send option;
  mutable rdvz_unsent : int list;
  (** sequence numbers of rendezvous requests sent whose data is not
      posted yet: a close in that window names the lowest as the close
      sequence, so the peer does not wait for data that never comes *)
  mutable rdvz_rx : Memory.region;
  mutable rdvz_read : (int * E.recv) option;
  (** the descriptor a rendezvous read waits on, with its sequence
      number: teardown cancels it, and so does a peer close below it *)
  granted : (int, unit) Hashtbl.t;
  (** rendezvous grants received but not yet claimed, keyed by rid:
      concurrent writers must each pick up their own grant *)
  grant_c : Cond.t;
  mutable rdvz_leftover : string;
  (** Data_streaming only: tail of a rendezvous message the reader
      asked too few bytes for — served by subsequent reads *)
  (* receive side *)
  data_slots : slot array;
  spare_slots : slot array;  (* Comm_thread scheme: repost pool *)
  mutable spares_taken : int;  (* spare slots posted so far, in order *)
  ack_slots : slot array;
      (** N pre-posted credit-ack slots, or with the unexpected queue
          the one slot [uq_ack]'s handler posts per queued ack *)
  uq_ack : Serial.t Lazy.t;
  req_slot : slot;
  grant_slot : slot;
  close_slot : slot;
  rx : (slot * E.recv) Serial.ordered Lazy.t;
      (** the posted data descriptors, in posting order *)
  rx_hook : (E.recv -> int -> unit) option;
      (** every data descriptor's completion hook: kicks [rx] *)
  rx_ready : ready Int_tbl.t;
      (** keyed by sequence number: under loss, EMP messages complete out
          of order (a retransmitted message finishes after its
          successors), so the reader must look up the sequence it needs —
          a FIFO head-peek would deadlock on the first reordering *)
  req_q : (int, rdvz_req) Hashtbl.t;  (** same, for rendezvous requests *)
  mutable expected_seq : int;
  mutable consumed_since_ack : int;
  mutable ack_holdoff_armed : bool;
  readable_c : Cond.t;
  mutable peer_closed : bool;
  mutable close_seq : int;
  (** sequence number carried by the peer's "closed" message: messages
      below it are still due and must be delivered before EOF (a short
      close message can physically overtake a long data message) *)
  mutable closed : bool;
  mutable reset : bool;
  (** the transport exhausted its retransmissions on a message of this
      connection: the peer is unreachable, nothing further will be
      delivered in either direction *)
  mutable watchers : (unit -> unit) list;
  (** per-connection readiness watchers (the event engine's O(ready)
      notification path); fired on data arrival, EOF and reset *)
}

exception Closed = Uls_api.Sockets_api.Connection_closed
exception Reset = Uls_api.Sockets_api.Connection_reset

let opts t = t.env.opts
let sim t = Node.sim t.env.node
let node_id t = Node.id t.env.node
let id t = t.id
let local_addr t = t.local_addr
let peer_addr t = t.peer_addr
let peer_node t = t.peer_node
let peer_conn t = t.peer_conn
let add_watcher t f = t.watchers <- f :: t.watchers
let fire_watchers t = List.iter (fun f -> f ()) t.watchers

(* Readability changed (message arrival, EOF): wake blocked readers, the
   node-wide select scan, and the per-connection watchers. *)
let notify_ready t =
  Cond.broadcast t.readable_c;
  t.env.notify ();
  fire_watchers t

let wake_all t =
  Cond.broadcast t.readable_c;
  Cond.broadcast t.credits_c;
  (* Unblock every writer waiting for a rendezvous grant (Figure 7: the
     grant will never come once either side is closed). *)
  Cond.broadcast t.grant_c;
  t.env.notify ();
  fire_watchers t

(* --- outgoing messages ---------------------------------------------- *)

let check_open t =
  if t.reset then raise Reset;
  if t.closed || t.peer_closed || t.peer_conn < 0 then raise Closed

(* Messages at or past the peer's close sequence are never delivered:
   a normal close names the next sequence it would have sent, and a
   close that abandoned a rendezvous names that message. *)
let past_close t seq = t.peer_closed && seq >= t.close_seq

let post_ctrl t kind data =
  ignore
    (Sendpool.send t.env.ctrl_pool ~dst:t.peer_node
       ~tag:(Tags.make kind t.peer_conn) data)

let send_credit_ack t =
  if t.consumed_since_ack > 0 && t.peer_conn >= 0 && not t.peer_closed then begin
    let count = t.consumed_since_ack in
    t.consumed_since_ack <- 0;
    Stats.Counter.incr t.env.mh.h_credit_acks_sent;
    if Trace.enabled t.env.trace then
      Trace.instant t.env.trace ~layer:Trace.Substrate ~node:(node_id t)
        ~conn:t.id "sub.credit_ack"
        ~args:[ ("credits", string_of_int count) ];
    post_ctrl t Tags.Credit_ack (Codec.encode [ count ])
  end

let piggyback_credits t =
  if (opts t).Options.piggyback && t.consumed_since_ack > 0 then begin
    let c = t.consumed_since_ack in
    t.consumed_since_ack <- 0;
    c
  end
  else 0

(* A writer's blocking wait, inside its trace span, its duration added
   to [summary] in microseconds. *)
let timed_wait t ?seq name summary wait =
  let t0 = Sim.now (sim t) in
  let layer = Trace.Substrate and node = node_id t and conn = t.id in
  let id = Trace.span_begin t.env.trace ~layer ~node ~conn ?seq name in
  Fun.protect wait ~finally:(fun () ->
      Trace.span_end t.env.trace ~layer ~node ~conn ?seq name id;
      Stats.Summary.add summary (float_of_int (Sim.now (sim t) - t0) /. 1_000.))

let take_credit t =
  let rec wait () =
    check_open t;
    if t.credits = 0 then begin
      Cond.wait t.credits_c;
      wait ()
    end
    else begin
      t.credits <- t.credits - 1;
      Invariant.check t.env.inv ~name:"sub.credit_range" (t.credits >= 0)
        (fun () ->
          Printf.sprintf "conn %d: credits went negative (%d)" t.id t.credits)
    end
  in
  (* A writer stalled on flow control: account how long (§6.1). *)
  if t.credits = 0 && not (t.closed || t.peer_closed || t.reset) then
    timed_wait t "sub.credit_wait" t.env.mh.h_credit_wait_us wait
  else wait ()

let add_credits t n =
  if n > 0 then begin
    t.credits <- t.credits + n;
    (* Conservation (§6.1): the receiver acks exactly what it consumed,
       so restored credits can never exceed the provisioned window — a
       double-granted ack shows up here. *)
    Invariant.check t.env.inv ~name:"sub.credit_range"
      (t.credits <= (opts t).Options.credits)
      (fun () ->
        Printf.sprintf "conn %d: credits %d exceed window %d (double grant?)"
          t.id t.credits (opts t).Options.credits);
    Cond.broadcast t.credits_c
  end

(* --- descriptor posting ---------------------------------------------- *)

let alloc_slot node size =
  let region = Memory.alloc size in
  (* Receive buffers come from the library's registered pool: pinned
     once at allocation, so per-connection descriptor posting pays
     only the post itself (the overhead §7.4 discusses), not a pin
     system call per buffer. *)
  Os.prepin (Node.os node) region;
  { sl_region = region; sl_current = None }

let post_slot ?on_complete ~ring emp slot ~src ~tag =
  let r =
    E.post_recv ?on_complete ~ring emp ~src ~tag slot.sl_region ~off:0
      ~len:(Memory.length slot.sl_region)
  in
  slot.sl_current <- Some r;
  r

let unpost_slot emp slot =
  match slot.sl_current with
  | Some r ->
    ignore (E.unpost_recv emp r);
    slot.sl_current <- None
  | None -> ()

(* A descriptor posted for an owner that died during the post: the
   owner's close found nothing to cancel and unpinned the slot's region
   before the post pinned it again, so both are undone here. *)
let take_back emp slot =
  unpost_slot emp slot;
  Os.unpin (Node.os (E.node emp)) slot.sl_region

let live t = not (t.closed || t.reset)

let post t ?on_complete slot kind =
  post_slot ?on_complete ~ring:(opts t).Options.rx_ring t.env.emp slot
    ~src:t.peer_node
    ~tag:(Tags.make kind t.id)

(* Post [slot] on a live connection; [true] if it stays posted. A close
   or reset during the post is undone by [take_back]. *)
let post_live t ?on_complete slot kind =
  live t
  && begin
    ignore (post t ?on_complete slot kind);
    if not (live t) then take_back t.env.emp slot;
    live t
  end

type posting = {
  slot : slot;
  src : int;
  tag : int;
  hook : (E.recv -> int -> unit) option;
  posted : slot -> E.recv -> unit;
}

(* Post [ps] for an owner alive while [live ()] holds, in order: with
   [ring] through the fill ring in one batch ([E.post_recv_batch]: one
   host post, and one doorbell per involved receive queue), otherwise
   one [E.post_recv] each. Each descriptor runs its [posted] once it
   stays posted; one posted after the owner died is taken back, as in
   [post_live]. *)
let post_slots emp ~ring ~live ps =
  let settle p r =
    p.slot.sl_current <- Some r;
    if live () then p.posted p.slot r else take_back emp p.slot
  in
  if ring then begin
    if live () then
      List.iter2 settle ps
        (E.post_recv_batch emp
           (List.map
              (fun p ->
                (p.src, p.tag, p.slot.sl_region, 0,
                 Memory.length p.slot.sl_region, p.hook))
              ps))
  end
  else
    List.iter
      (fun p ->
        if live () then
          settle p
            (post_slot ?on_complete:p.hook ~ring emp p.slot ~src:p.src
               ~tag:p.tag))
      ps

(* A posted data descriptor joins [rx] in posting order. One that
   completed while its post was still running (a batch's later slots,
   or the doorbell after it) found no queued item to kick. *)
let data_posted t slot r =
  let rx = Lazy.force t.rx in
  Serial.push rx (slot, r);
  if E.recv_done r then Serial.kick_ordered rx

let repost_data_slot t slot =
  if post_live t ?on_complete:t.rx_hook slot Tags.Data then
    data_posted t slot (Option.get slot.sl_current)

(* [slots] as data postings, in order, ahead of [tail]. *)
let data_postings t slots tail =
  let src = t.peer_node and tag = Tags.make Tags.Data t.id in
  let posted = data_posted t in
  List.fold_right
    (fun slot ps -> { slot; src; tag; hook = t.rx_hook; posted } :: ps)
    slots tail

let decode t kind slot len =
  Codec.decode kind ~owner:t.id ~peer:t.peer_node ~len
    (Memory.get_int64_le slot.sl_region)

(* --- receive paths ----------------------------------------------------- *)

let is_done (_, r) = E.recv_done r

(* The data descriptors' handler: the ordered instance [rx] reaps them
   in posting order (the order the eager scheme reuses its credit
   buffers in), one fiber per burst, and only once the head completes:
   under loss EMP completes a retransmitted message after its
   successors, which wait behind it. *)
(* The comm-thread scheme's per-message polling-thread synchronisation
   cost (§5.2: ~20 us). *)
let comm_thread_sync = Time.us 20

let receive t (slot, recv) =
  let len, _, _ = E.wait_recv t.env.emp recv in
  if len >= 0 && not t.closed then begin
    slot.sl_current <- None;
    let hdr = decode t Tags.Data slot len in
    add_credits t hdr.(1);
    if (opts t).Options.scheme = Options.Comm_thread then begin
      (* The communication thread notices the used descriptor and
         reposts a spare at once — paying the polling-thread
         synchronisation cost the paper measured (§5.2). *)
      Node.compute t.env.node comm_thread_sync;
      if t.spares_taken < Array.length t.spare_slots then begin
        repost_data_slot t t.spare_slots.(t.spares_taken);
        t.spares_taken <- t.spares_taken + 1
      end
    end;
    Int_tbl.replace t.rx_ready hdr.(0)
      { rd_seq = hdr.(0); rd_slot = slot;
        rd_len = len - Options.header_bytes; rd_off = 0 };
    notify_ready t
  end

(* §6.4: with the unexpected-queue option, ack messages carry no
   pre-posted descriptor at all — they land in the EMP unexpected queue
   (walked last), keeping the data-descriptor match walk short. The
   substrate routes each such arrival here. The [uq_ack] handler
   consumes the connection's queued acks one at a time, oldest first,
   each through its one ack slot. *)
let uq_ack_arrived t = Serial.kick (Lazy.force t.uq_ack)

let uq_ack_pending t =
  live t
  && E.uq_has_match t.env.emp ~src:t.peer_node
       ~tag:(Tags.make Tags.Credit_ack t.id)

let consume_uq_ack t =
  let slot = t.ack_slots.(0) in
  let len, _, _ = E.wait_recv t.env.emp (post t slot Tags.Credit_ack) in
  slot.sl_current <- None;
  if len >= 0 then add_credits t (decode t Tags.Credit_ack slot len).(0)

(* The credit-ack, rendezvous-request, grant and close slots each have
   a serial handler, so no fiber waits on them. A real completion
   (length >= 0, and with [while_open] the connection not closed) kicks
   it where a parked fiber's wake-up would have been scheduled, so its
   spawn takes that wake-up's place in the event order. It reaps
   through [E.wait_recv], which pays the reap charge, then runs
   [handle] with the decoded fields and [repost], which re-arms the
   slot. The result is the slot's first posting. *)
let ctrl_posting t slot kind ~name ~while_open handle =
  let open_ () = not (while_open && t.closed) in
  let has_work () =
    open_ () && match slot.sl_current with Some r -> E.recv_done r | None -> false
  in
  let rec h = lazy (Serial.create (sim t) ~name ~has_work reap)
  and reap () =
    let r = Option.get slot.sl_current in
    slot.sl_current <- None;
    let len, _, _ = E.wait_recv t.env.emp r in
    if len >= 0 && open_ () then handle t (decode t kind slot len) ~repost
  and repost () = ignore (post_live t slot kind ~on_complete)
  and on_complete _ len = if len >= 0 then Serial.kick (Lazy.force h) in
  { slot; src = t.peer_node; tag = Tags.make kind t.id; hook = Some on_complete;
    posted = (fun _ r -> if E.recv_done r then Serial.kick (Lazy.force h)) }

let on_credit_ack t fields ~repost =
  add_credits t fields.(0);
  repost ()

let on_rdvz_request t fields ~repost =
  repost ();
  let seq = fields.(0) in
  Hashtbl.replace t.req_q seq
    { rq_seq = seq; rq_id = fields.(1); rq_size = fields.(2) };
  notify_ready t

let on_rdvz_grant t fields ~repost =
  repost ();
  Hashtbl.replace t.granted fields.(0) ();
  Cond.broadcast t.grant_c

(* The peer's close is heard even after a local close (it stops
   [close_notify_fiber]'s retries). Nothing reposts. A close too short
   for its sequence number never gets here: read as "close at seq 0"
   it would discard in-flight data still due to the reader. A
   rendezvous read at or past the close sequence waits for data the
   peer abandoned: it is cancelled, and the reader sees EOF. *)
let on_peer_close t fields ~repost:_ =
  t.close_seq <- fields.(0);
  t.peer_closed <- true;
  (match t.rdvz_read with
  | Some (seq, r) when past_close t seq -> ignore (E.unpost_recv t.env.emp r)
  | _ -> ());
  wake_all t

(* --- write ------------------------------------------------------------ *)

(* The rendezvous transmit buffer stands in for the application's own
   (reused, hence pin-cached) large buffer; it grows when a bigger write
   appears, paying the pin for the new region — as a real first-time
   registration would. *)
let rdvz_tx_region t len =
  (match t.rdvz_tx_pending with
  | Some s when not (E.send_done s) -> (
    try E.wait_send t.env.emp s with E.Send_failed _ -> ())
  | _ -> ());
  t.rdvz_tx_pending <- None;
  if Memory.length t.rdvz_tx < len then begin
    Os.unpin (Node.os t.env.node) t.rdvz_tx;
    t.rdvz_tx <- Memory.alloc len
  end;
  t.rdvz_tx

let rendezvous_write t data =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.next_rdvz <- t.next_rdvz + 1;
  let rid = t.next_rdvz in
  if Trace.enabled t.env.trace then
    Trace.instant t.env.trace ~layer:Trace.Substrate ~node:(node_id t)
      ~conn:t.id ~seq "sub.rdvz_request"
      ~args:
        [ ("rid", string_of_int rid); ("len", string_of_int (String.length data)) ];
  t.rdvz_unsent <- seq :: t.rdvz_unsent;
  post_ctrl t Tags.Rdvz_request (Codec.encode [ seq; rid; String.length data ]);
  (* Block until the receiver has synchronised (Figure 6). Grants are
     routed by rid so concurrent writers each claim their own. *)
  timed_wait t ~seq "sub.rdvz_grant_wait" t.env.mh.h_rdvz_grant_wait_us (fun () ->
      Cond.wait_until t.grant_c (fun () ->
          t.closed || t.peer_closed || t.reset || Hashtbl.mem t.granted rid));
  if t.reset then raise Reset;
  if not (Hashtbl.mem t.granted rid) then raise Closed;
  Hashtbl.remove t.granted rid;
  if t.closed || t.peer_closed then raise Closed;
  t.rdvz_unsent <- List.filter (( <> ) seq) t.rdvz_unsent;
  let region = rdvz_tx_region t (String.length data) in
  Memory.blit_from_string data region ~off:0;
  let s =
    E.post_send t.env.emp ~dst:t.peer_node
      ~tag:(Tags.make Tags.Rdvz_data t.peer_conn)
      region ~off:0 ~len:(String.length data)
  in
  t.rdvz_tx_pending <- Some s

(* The next eager message on the wire: its header (sequence number and
   the credits it carries back, §6.1) followed by [payload]. *)
let eager_message t payload =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Codec.encode [ seq; piggyback_credits t ] ^ payload

let eager_write t data =
  let o = opts t in
  let cap = Options.chunk_capacity o in
  let len = String.length data in
  let uses_credits = o.Options.scheme <> Options.Comm_thread in
  let rec chunks off =
    if off < len then begin
      let n = min cap (len - off) in
      if uses_credits then take_credit t;
      ignore
        (Sendpool.send t.data_pool ~dst:t.peer_node
           ~tag:(Tags.make Tags.Data t.peer_conn)
           (eager_message t (String.sub data off n)));
      if uses_credits && o.Options.block_send then begin
        (* §6.1 "blocking the send": wait until the receiver has
           acknowledged (credits fully restored) — a round trip per
           message. *)
        Cond.wait_until t.credits_c (fun () ->
            t.closed || t.peer_closed || t.reset
            || t.credits = o.Options.credits);
        check_open t
      end;
      chunks (off + n)
    end
  in
  chunks 0

let uses_rendezvous t len =
  match (opts t).Options.scheme with
  | Options.Rendezvous -> true
  | Options.Comm_thread -> false
  | Options.Eager -> (
    match (opts t).Options.mode with
    | Options.Datagram ->
      len > (opts t).Options.eager_max || len > Options.chunk_capacity (opts t)
    | Options.Data_streaming -> false)

(* A message rides a write batch when it is one eager chunk that does
   not block for its ack. *)
let batchable t len =
  let o = opts t in
  o.Options.scheme = Options.Eager
  && (not o.Options.block_send)
  && len <= Options.chunk_capacity o
  && not (uses_rendezvous t len)

(* A public call inside its substrate trace span. Untraced it is the
   bare call: the span's optional arguments are boxed, and [args] built,
   only when tracing is on. *)
let no_args () = []

let in_span t name ~args f =
  if Trace.enabled t.env.trace then
    Trace.span t.env.trace ~layer:Trace.Substrate ~node:(node_id t) ~conn:t.id name
      ~args:(args ()) f
  else f ()

let count_write t len =
  Stats.Counter.incr t.env.mh.h_writes;
  Stats.Counter.add t.env.mh.h_bytes_written len

(* One message on the per-call path. *)
let dispatch t data =
  if uses_rendezvous t (String.length data) then rendezvous_write t data
  else eager_write t data

let write t data =
  check_open t;
  if String.length data > 0 then begin
    count_write t (String.length data);
    in_span t "sub.write"
      ~args:(fun () -> [ ("len", string_of_int (String.length data)) ])
      (fun () ->
        Node.compute t.env.node (opts t).Options.write_overhead;
        dispatch t data)
  end

(* Gathered write: stage up to a send-pool's worth of eager messages,
   then post them all through the endpoint's tx ring under a single
   doorbell ([Endpoint.post_sendv]). The substrate bookkeeping
   ([write_overhead]) is paid once per batch — that amortization, plus
   the doorbell batching underneath, is the point. A singleton
   degenerates to {!write} exactly. A message that cannot ride the
   batch flushes what is staged (preserving FIFO seq order) and takes
   the per-call path; a stalled credit wait flushes first too, so the
   credits the staged messages earn back can arrive. *)
let writev t datas =
  match datas with
  | [] -> ()
  | [ data ] -> write t data
  | _ ->
    check_open t;
    in_span t "sub.writev"
      ~args:(fun () -> [ ("msgs", string_of_int (List.length datas)) ])
      (fun () ->
        Node.compute t.env.node (opts t).Options.write_overhead;
        let staged = ref [] and count = ref 0 in
        let flush () =
          if !count > 0 then begin
            let batch = List.rev !staged in
            staged := [];
            count := 0;
            Sendpool.post t.data_pool batch;
            (* Opportunistically retire already-acknowledged ring sends
               so pool-slot reuse doesn't block on them later. *)
            ignore (E.reap_sent t.env.emp)
          end
        in
        List.iter
          (fun data ->
            (* Staging past the pool size would wrap onto a slot staged
               earlier in this very batch. *)
            if !count >= Sendpool.slots t.data_pool then flush ();
            check_open t;
            let len = String.length data in
            if len > 0 then
              if batchable t len then begin
                count_write t len;
                if t.credits = 0 then flush ();
                take_credit t;
                staged :=
                  Sendpool.stage t.data_pool ~dst:t.peer_node
                    ~tag:(Tags.make Tags.Data t.peer_conn)
                    (eager_message t data)
                  :: !staged;
                incr count
              end
              else begin
                flush ();
                count_write t len;
                dispatch t data
              end)
          datas;
        flush ())

(* --- read -------------------------------------------------------------- *)

type next_item =
  | Nothing
  | Eof
  | Leftover  (* the tail of a rendezvous message a short read left *)
  | Eager_msg of ready
  | Rdvz of rdvz_req

let next_item t =
  if t.rdvz_leftover <> "" then Leftover
  else if past_close t t.expected_seq then Eof
  else
  match Int_tbl.find_opt t.rx_ready t.expected_seq with
  | Some r -> Eager_msg r
  | None -> (
    match Hashtbl.find_opt t.req_q t.expected_seq with
    | Some q -> Rdvz q
    | None -> Nothing)

(* The blocking head-of-line wait: the next in-order item, or EOF. *)
let rec wait_item t =
  if t.reset then raise Reset;
  if t.closed then raise Closed;
  match next_item t with
  | Nothing ->
    Cond.wait t.readable_c;
    wait_item t
  | item -> item

(* With piggy-backing on, hold the explicit ack briefly: a reverse-
   direction write inside the holdoff carries the credits for free
   (§6.1); otherwise the timer sends the explicit ack. *)
let piggyback_holdoff = Time.us 15

let ack_due t =
  if (opts t).Options.piggyback then begin
    if not t.ack_holdoff_armed then begin
      t.ack_holdoff_armed <- true;
      Stats.Counter.incr t.env.mh.h_ack_holdoffs_armed;
      if Trace.enabled t.env.trace then
        Trace.instant t.env.trace ~layer:Trace.Substrate ~node:(node_id t)
          ~conn:t.id "sub.ack_holdoff";
      Sim.at (sim t)
        (Sim.now (sim t) + piggyback_holdoff)
        (fun () ->
          t.ack_holdoff_armed <- false;
          if
            t.consumed_since_ack >= Options.ack_threshold (opts t)
            && not t.closed
          then Sim.spawn (sim t) ~name:"sub-ack-timer" (fun () -> send_credit_ack t))
    end
  end
  else send_credit_ack t

(* Credit accounting for [k] consumed messages (§6.1); the
   comm-thread scheme has no credits. *)
let acknowledge t k =
  if k > 0 && (opts t).Options.scheme <> Options.Comm_thread then begin
    t.consumed_since_ack <- t.consumed_since_ack + k;
    if t.consumed_since_ack >= Options.ack_threshold (opts t) then ack_due t
  end

(* The reader moves past the head message and takes its slot back. *)
let retire t r =
  Int_tbl.remove t.rx_ready r.rd_seq;
  t.expected_seq <- t.expected_seq + 1;
  r.rd_slot

(* A consumed message's slot goes back to the NIC at once, or, with
   [freed], is collected so a whole drain's worth of descriptors can go
   back in one fill-ring batch ([flush_reposts]). *)
let message_consumed ?freed t r =
  match freed with
  | Some l -> l := retire t r :: !l
  | None ->
    repost_data_slot t (retire t r);
    acknowledge t 1

let flush_reposts t freed_rev =
  post_slots t.env.emp ~ring:true ~live:(fun () -> live t)
    (data_postings t (List.rev freed_rev) []);
  acknowledge t (List.length freed_rev)

let copy_out t region ~off ~len =
  let s = Memory.sub_string region ~off ~len in
  (* The receiver-side copy the eager scheme pays (§5.2). *)
  Node.compute t.env.node (Cost_model.copy_cost (Node.model t.env.node) len);
  s

(* Up to [n] bytes of the head eager message. A datagram read consumes
   the message whatever it leaves; a streaming read only once drained. *)
let read_eager ?freed t r n =
  let m = min n (r.rd_len - r.rd_off) in
  let s =
    copy_out t r.rd_slot.sl_region ~off:(Options.header_bytes + r.rd_off) ~len:m
  in
  r.rd_off <- r.rd_off + m;
  if r.rd_off = r.rd_len || (opts t).Options.mode = Options.Datagram then
    message_consumed ?freed t r;
  s

(* Rendezvous receive: post the user buffer directly (zero-copy: the NIC
   DMAs into it), grant, and wait for the data. The reusable rdvz_rx
   region models the application's own receive buffer. A cancelled
   descriptor is a local close or reset, or the peer's close abandoning
   this message: the last reads as EOF, and the message stays unread
   so every later read sees EOF too. *)
let read_rdvz t (q : rdvz_req) n =
  Hashtbl.remove t.req_q q.rq_seq;
  let streaming = (opts t).Options.mode = Options.Data_streaming in
  (* Datagram semantics truncate to the reader's buffer; streaming must
     not lose bytes, so receive the whole message and keep the tail for
     later reads. *)
  let cap = if streaming then max 1 q.rq_size else max 1 (min n q.rq_size) in
  if Memory.length t.rdvz_rx < cap then begin
    Os.unpin (Node.os t.env.node) t.rdvz_rx;
    t.rdvz_rx <- Memory.alloc cap
  end;
  let region = t.rdvz_rx in
  let r =
    E.post_recv t.env.emp ~src:t.peer_node
      ~tag:(Tags.make Tags.Rdvz_data t.id)
      region ~off:0 ~len:cap
  in
  t.rdvz_read <- Some (q.rq_seq, r);
  (* A close on either side, or a reset, during the post found no read
     to cancel. *)
  if t.closed || t.reset || past_close t q.rq_seq then
    ignore (E.unpost_recv t.env.emp r)
  else begin
    if Trace.enabled t.env.trace then
      Trace.instant t.env.trace ~layer:Trace.Substrate ~node:(node_id t)
        ~conn:t.id ~seq:q.rq_seq "sub.rdvz_grant"
        ~args:[ ("rid", string_of_int q.rq_id) ];
    post_ctrl t Tags.Rdvz_grant (Codec.encode [ q.rq_id ])
  end;
  let len, _, _ = E.wait_recv t.env.emp r in
  t.rdvz_read <- None;
  if Trace.enabled t.env.trace then
    Trace.instant t.env.trace ~layer:Trace.Substrate ~node:(node_id t)
      ~conn:t.id ~seq:q.rq_seq "sub.rdvz_data"
      ~args:[ ("len", string_of_int (max 0 len)) ];
  if len < 0 then begin
    if t.reset then raise Reset;
    if t.closed then raise Closed;
    ""
  end
  else begin
    t.expected_seq <- t.expected_seq + 1;
    let got = min len cap in
    let m = min n got in
    if streaming && m < got then
      t.rdvz_leftover <- Memory.sub_string region ~off:m ~len:(got - m);
    Memory.sub_string region ~off:0 ~len:m
  end

let read_leftover t n =
  let m = min n (String.length t.rdvz_leftover) in
  let s = String.sub t.rdvz_leftover 0 m in
  t.rdvz_leftover <-
    String.sub t.rdvz_leftover m (String.length t.rdvz_leftover - m);
  (* The receiver-side copy out of the retained tail. *)
  Node.compute t.env.node (Cost_model.copy_cost (Node.model t.env.node) m);
  s

(* The eager take: up to [n] bytes of [item]. *)
let take ?freed t item n =
  match item with
  | Leftover -> read_leftover t n
  | Eager_msg r -> read_eager ?freed t r n
  | Rdvz q -> read_rdvz t q n
  | Eof | Nothing -> ""

let count_read t s =
  Stats.Counter.incr t.env.mh.h_reads;
  Stats.Counter.add t.env.mh.h_bytes_read (String.length s)

let read t n =
  if t.closed then raise Closed;
  if n <= 0 then ""
  else
    in_span t "sub.read" ~args:no_args (fun () ->
        Node.compute t.env.node (opts t).Options.read_overhead;
        let s = take t (wait_item t) n in
        count_read t s;
        s)

(* Batched read: block for the first item, then drain every consecutive
   ready eager message (up to [max]) without further blocking. Each
   returned string is a whole item, as a read of [max_int] bytes would
   return it. With [Options.rx_ring] the consumed data slots go back to
   the NIC through the fill ring in one batch; otherwise each is
   reposted per-call, exactly as {!read} would. Returns [[]] on EOF. *)
let readv t ~max:maxn =
  if t.closed then raise Closed;
  if maxn <= 0 then []
  else
    in_span t "sub.readv" ~args:no_args (fun () ->
        Node.compute t.env.node (opts t).Options.read_overhead;
        let freed = if (opts t).Options.rx_ring then Some (ref []) else None in
        let rec drain acc got item =
          match take ?freed t item max_int with
          | "" -> acc  (* an abandoned rendezvous: EOF *)
          | s -> (
            count_read t s;
            match next_item t with
            | Eager_msg _ as next when got + 1 < maxn ->
              drain (s :: acc) (got + 1) next
            | _ -> s :: acc)
        in
        let acc = match wait_item t with Eof -> [] | item -> drain [] 0 item in
        Option.iter (fun l -> flush_reposts t !l) freed;
        List.rev acc)

let readable t =
  t.closed || t.peer_closed || t.reset
  || (match next_item t with Nothing -> false | _ -> true)

(* --- lifecycle ---------------------------------------------------------- *)

(* Every receive slot the connection owns. A spare stays listed once
   posted, so teardown finds it. *)
let iter_slots t f =
  Array.iter f t.data_slots;
  Array.iter f t.spare_slots;
  Array.iter f t.ack_slots;
  f t.req_slot;
  f t.grant_slot;
  f t.close_slot

(* The "closed" message is load-bearing: if the peer never hears it, the
   peer's 2N+3 descriptors stay posted forever (§5.3's leak). EMP already
   retransmits each attempt up to its own retry budget; this fiber
   re-issues the whole send a few more times with backoff in case an
   attempt exhausts it under heavy loss. *)
let close_notify_attempts = 5

let close_notify_fiber t seq () =
  let tag = Tags.make Tags.Close t.peer_conn in
  let rec attempt n backoff =
    if (not t.peer_closed) && n <= close_notify_attempts then begin
      let s = Sendpool.send t.env.ctrl_pool ~dst:t.peer_node ~tag
          (Codec.encode [ seq ])
      in
      match E.wait_send t.env.emp s with
      | () -> ()
      | exception E.Send_failed _ ->
        Stats.Counter.incr t.env.mh.h_close_retries;
        Trace.instant t.env.trace ~layer:Trace.Substrate ~node:(node_id t)
          ~conn:t.id "sub.close_retry"
          ~args:[ ("attempt", string_of_int n) ];
        Sim.delay (sim t) backoff;
        attempt (n + 1) (2 * backoff)
    end
  in
  attempt 1 (Time.ms 1)

(* Tell the peer, if it is known and still listening. *)
let notify_close t =
  if t.peer_conn >= 0 && not t.peer_closed && not t.reset then
    Sim.spawn (sim t) ~name:"sub-close-notify"
      (close_notify_fiber t (List.fold_left min t.next_seq t.rdvz_unsent))

(* The client learns its peer from the connect reply. A close before it
   could not tell the peer, which would keep its connection open for
   good: it is told now. *)
let set_peer t ~conn ~addr =
  t.peer_conn <- conn;
  t.peer_addr <- addr;
  if t.closed then notify_close t

let data_pool t = t.data_pool

(* Every region the connection registered: receive slots, the send
   pool's ring and the rendezvous buffers. *)
let iter_regions t f =
  iter_slots t (fun s -> f s.sl_region);
  Sendpool.iter_regions t.data_pool f;
  f t.rdvz_tx;
  f t.rdvz_rx

(* What a dead connection gives back (§5.3): its descriptors, its entry
   in the active-socket table (the substrate keeps its data pool only
   while sends are still in flight) and its regions' pin-table entries —
   free of simulated cost, since a dead region is never pinned again. *)
let teardown t =
  (* The data queue goes first, so the cancellations kick nothing. *)
  Serial.retain (Lazy.force t.rx) (fun _ -> false);
  iter_slots t (unpost_slot t.env.emp);
  Option.iter (fun (_, r) -> ignore (E.unpost_recv t.env.emp r)) t.rdvz_read;
  wake_all t;
  t.env.release t;
  iter_regions t (Os.unpin (Node.os t.env.node))

let close t =
  if not t.closed then begin
    t.closed <- true;
    if Trace.enabled t.env.trace then
      Trace.instant t.env.trace ~layer:Trace.Substrate ~node:(node_id t)
        ~conn:t.id "sub.close";
    notify_close t;
    teardown t
  end

let mark_reset t =
  if live t then begin
    t.reset <- true;
    Stats.Counter.incr t.env.mh.h_resets;
    Trace.instant t.env.trace ~layer:Trace.Substrate ~node:(node_id t) ~conn:t.id
      "sub.reset";
    teardown t
  end

let is_reset t = t.reset
let is_closed t = t.closed

(* Test fixture: re-post one receive slot as if close had missed it —
   the seeded known-bad input for the sanitizer's leak scan. *)
let debug_leak_slot t = ignore (post t t.data_slots.(0) Tags.Data)

(* Receive-slot leak scan (sanitizer): after [close]/[mark_reset] every
   slot's descriptor, and a rendezvous read's, must have been unposted
   or consumed. *)
let leaked_slots t =
  let pending = function Some (_, r) -> not (E.recv_done r) | None -> false in
  let count = ref (if pending t.rdvz_read then 1 else 0) in
  iter_slots t (fun s -> if s.sl_current <> None then incr count);
  !count

let handles node =
  let metrics = Metrics.for_sim (Node.sim node) in
  let counter name = Metrics.counter metrics ~node:(Node.id node) name in
  let histogram name = Metrics.histogram metrics ~node:(Node.id node) name in
  {
    h_credit_acks_sent = counter "sub.credit_acks_sent";
    h_credit_wait_us = histogram "sub.credit_wait_us";
    h_rdvz_grant_wait_us = histogram "sub.rdvz_grant_wait_us";
    h_writes = counter "sub.writes";
    h_bytes_written = counter "sub.bytes_written";
    h_ack_holdoffs_armed = counter "sub.ack_holdoffs_armed";
    h_reads = counter "sub.reads";
    h_bytes_read = counter "sub.bytes_read";
    h_close_retries = counter "sub.close_retries";
    h_resets = counter "sub.resets";
  }

let create env ~id ~peer_node ~peer_conn ~local_addr ~peer_addr =
  let opts = env.opts in
  let sim = Node.sim env.node in
  let mk_slot = alloc_slot env.node in
  let n = opts.Options.credits in
  let label = ( ^ ) ("conn:" ^ string_of_int id) in
  let rec t =
    {
      env;
      id;
      peer_node;
      peer_conn;
      local_addr;
      peer_addr;
      credits = n;
      credits_c = Cond.create ~label:(label " credits") sim;
      next_seq = 0;
      next_rdvz = 0;
      data_pool =
        Sendpool.create env.node env.emp ~ring:opts.Options.rx_ring
          ~slots:(max 2 n)
          ~size:opts.Options.buffer_size;
      rdvz_tx = Memory.alloc 16;
      rdvz_tx_pending = None;
      rdvz_unsent = [];
      rdvz_rx = Memory.alloc 16;
      rdvz_read = None;
      granted = Hashtbl.create 4;
      grant_c = Cond.create ~label:(label " grant") sim;
      rdvz_leftover = "";
      data_slots = Array.init n (fun _ -> mk_slot opts.Options.buffer_size);
      spare_slots =
        (if opts.Options.scheme = Options.Comm_thread then
           Array.init n (fun _ -> mk_slot opts.Options.buffer_size)
         else [||]);
      spares_taken = 0;
      ack_slots =
        (if opts.Options.unexpected_queue then [| mk_slot 16 |]
         else if opts.Options.scheme = Options.Comm_thread then [||]
         else Array.init n (fun _ -> mk_slot 16));
      uq_ack =
        lazy
          (Serial.create sim ~name:"sub-uq-ack"
             ~has_work:(fun () -> uq_ack_pending t)
             (fun () -> consume_uq_ack t));
      req_slot = mk_slot 64;
      grant_slot = mk_slot 64;
      close_slot = mk_slot 16;
      rx = lazy (Serial.ordered sim ~name:"sub-rx" ~ready:is_done (receive t));
      rx_hook = Some (fun _ _ -> Serial.kick_ordered (Lazy.force t.rx));
      rx_ready = Int_tbl.create n;
      req_q = Hashtbl.create 16;
      expected_seq = 0;
      consumed_since_ack = 0;
      ack_holdoff_armed = false;
      readable_c = Cond.create ~label:(label " readable") sim;
      watchers = [];
      peer_closed = false;
      close_seq = max_int;
      closed = false;
      reset = false;
    }
  in
  t

(* Post the connection's descriptors: N data (+ N ack unless UQ) plus
   the three control descriptors — the 2N provisioning of §6.1 — and
   the client's connect reply slot, all in one fill-ring batch under
   [rx_ring]. *)
let provision ?reply t =
  let ctrl slot kind name handle =
    ctrl_posting t slot kind ~name ~while_open:(kind <> Tags.Close) handle
  in
  let reply =
    match reply with
    | Some slot ->
      [ { slot; src = t.peer_node; tag = Tags.make Tags.Conn_reply t.id;
          hook = None; posted = (fun _ _ -> ()) } ]
    | None -> []
  in
  let ctrls =
    ctrl t.req_slot Tags.Rdvz_request "sub-req" on_rdvz_request
    :: ctrl t.grant_slot Tags.Rdvz_grant "sub-grant" on_rdvz_grant
    :: ctrl t.close_slot Tags.Close "sub-close" on_peer_close
    :: reply
  in
  let ctrls =
    if (opts t).Options.unexpected_queue then ctrls
    else
      Array.fold_right
        (fun slot ps -> ctrl slot Tags.Credit_ack "sub-ack" on_credit_ack :: ps)
        t.ack_slots ctrls
  in
  post_slots t.env.emp ~ring:(opts t).Options.rx_ring
    ~live:(fun () -> live t)
    (data_postings t (Array.to_list t.data_slots) ctrls)
