(** One substrate connection.

    Receive side: N pre-posted data descriptors pointing at temporary
    credit buffers (eager scheme, §5.2), plus either N pre-posted ack
    descriptors or unexpected-queue ack consumption (§6.4), plus one
    descriptor each for rendezvous requests, rendezvous grants and the
    "closed" control message (§5.3). Send side: credit-based flow
    control with delayed and piggy-backed acknowledgments (§6.1–6.3).
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

(* Metric handles resolved once at create: stream reads/writes bump a
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
  mutable rdvz_rx : Memory.region;
  granted : (int, unit) Hashtbl.t;
  (** rendezvous grants received but not yet claimed, keyed by rid:
      concurrent writers must each pick up their own grant *)
  grant_c : Cond.t;
  mutable rdvz_leftover : string;
  (** Data_streaming only: tail of a rendezvous message the reader
      asked too few bytes for — served by subsequent reads *)
  (* receive side *)
  data_slots : slot array;
  spare_slots : slot Queue.t;  (* Comm_thread scheme: repost pool *)
  ack_slots : slot array;
  req_slot : slot;
  grant_slot : slot;
  close_slot : slot;
  rx_handles : (slot * E.recv) Mailbox.t;
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
  metrics : Metrics.t;
  mh : handles;
  trace : Trace.t;
  inv : Invariant.t;
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
let set_peer t ~conn ~addr =
  t.peer_conn <- conn;
  t.peer_addr <- addr

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

let post_ctrl t ~tag data =
  ignore (Sendpool.send t.env.ctrl_pool ~dst:t.peer_node ~tag data)

let post_data t ~tag data =
  ignore (Sendpool.send t.data_pool ~dst:t.peer_node ~tag data)

let send_credit_ack t =
  if t.consumed_since_ack > 0 && t.peer_conn >= 0 && not t.peer_closed then begin
    let count = t.consumed_since_ack in
    t.consumed_since_ack <- 0;
    Stats.Counter.incr t.mh.h_credit_acks_sent;
    Trace.instant t.trace ~layer:Trace.Substrate ~node:(node_id t) ~conn:t.id
      "sub.credit_ack"
      ~args:[ ("credits", string_of_int count) ];
    post_ctrl t ~tag:(Tags.make Tags.Credit_ack t.peer_conn) (Codec.encode [ count ])
  end

let piggyback_credits t =
  if (opts t).Options.piggyback && t.consumed_since_ack > 0 then begin
    let c = t.consumed_since_ack in
    t.consumed_since_ack <- 0;
    c
  end
  else 0

let take_credit t =
  let rec wait () =
    if t.reset then raise Reset;
    if t.closed || t.peer_closed then raise Closed;
    if t.credits = 0 then begin
      Cond.wait t.credits_c;
      wait ()
    end
    else begin
      t.credits <- t.credits - 1;
      Invariant.check t.inv ~name:"sub.credit_range" (t.credits >= 0)
        (fun () ->
          Printf.sprintf "conn %d: credits went negative (%d)" t.id t.credits)
    end
  in
  if t.credits = 0 && not (t.closed || t.peer_closed || t.reset) then begin
    (* Writer stalled on flow control: account how long (§6.1). *)
    let t0 = Sim.now (sim t) in
    let id =
      Trace.span_begin t.trace ~layer:Trace.Substrate ~node:(node_id t)
        ~conn:t.id "sub.credit_wait"
    in
    Fun.protect
      ~finally:(fun () ->
        Trace.span_end t.trace ~layer:Trace.Substrate ~node:(node_id t)
          ~conn:t.id "sub.credit_wait" id;
        Stats.Summary.add t.mh.h_credit_wait_us
          (float_of_int (Sim.now (sim t) - t0) /. 1_000.))
      wait
  end
  else wait ()

let add_credits t n =
  if n > 0 then begin
    t.credits <- t.credits + n;
    (* Conservation (§6.1): the receiver acks exactly what it consumed,
       so restored credits can never exceed the provisioned window — a
       double-granted ack shows up here. *)
    Invariant.check t.inv ~name:"sub.credit_range"
      (t.credits <= (opts t).Options.credits)
      (fun () ->
        Printf.sprintf "conn %d: credits %d exceed window %d (double grant?)"
          t.id t.credits (opts t).Options.credits);
    Cond.broadcast t.credits_c
  end

(* --- descriptor posting ---------------------------------------------- *)

let post_slot t slot ~tag =
  let r =
    E.post_recv t.env.emp ~src:t.peer_node ~tag slot.sl_region ~off:0
      ~len:(Memory.length slot.sl_region)
  in
  slot.sl_current <- Some r;
  r

let repost_data_slot t slot =
  let r = post_slot t slot ~tag:(Tags.make Tags.Data t.id) in
  Mailbox.send t.rx_handles (slot, r)

(* --- receive fibers --------------------------------------------------- *)

let rx_fiber t () =
  let rec loop () =
    let slot, recv = Mailbox.recv t.rx_handles in
    let len, _, _ = E.wait_recv t.env.emp recv in
    if len >= 0 && not t.closed then begin
      slot.sl_current <- None;
      if len < Options.header_bytes then
        Codec.protocol_error
          "conn %d: data message from node %d too short for its header (%d B < %d B)"
          t.id t.peer_node len Options.header_bytes;
      match Codec.decode_region slot.sl_region ~off:0 ~count:2 with
      | [ seq; piggy ] ->
        add_credits t piggy;
        if (opts t).Options.scheme = Options.Comm_thread then begin
          (* The communication thread notices the used descriptor and
             reposts a spare at once — paying the polling-thread
             synchronisation cost the paper measured (§5.2). *)
          Node.compute t.env.node (opts t).Options.comm_thread_sync;
          match Queue.take_opt t.spare_slots with
          | Some spare -> repost_data_slot t spare
          | None -> ()
        end;
        Int_tbl.replace t.rx_ready seq
          { rd_seq = seq; rd_slot = slot;
            rd_len = len - Options.header_bytes; rd_off = 0 };
        notify_ready t;
        loop ()
      | _ ->
        Codec.protocol_error "conn %d: undecodable data header from node %d"
          t.id t.peer_node
    end
  in
  loop ()

let ack_fiber t slot () =
  let rec loop () =
    match slot.sl_current with
    | None -> ()
    | Some recv ->
      let len, _, _ = E.wait_recv t.env.emp recv in
      if len >= 0 && not t.closed then begin
        if len < Codec.int_bytes then
          Codec.protocol_error
            "conn %d: credit ack from node %d too short (%d B < %d B)" t.id
            t.peer_node len Codec.int_bytes;
        (match Codec.decode_region slot.sl_region ~off:0 ~count:1 with
        | [ count ] -> add_credits t count
        | _ ->
          Codec.protocol_error "conn %d: undecodable credit ack from node %d"
            t.id t.peer_node);
        ignore (post_slot t slot ~tag:(Tags.make Tags.Credit_ack t.id));
        loop ()
      end
  in
  loop ()

(* §6.4: with the unexpected-queue option, ack messages carry no
   pre-posted descriptor at all — they land in the EMP unexpected queue
   (walked last), keeping the data-descriptor match walk short. *)
let uq_ack_fiber t () =
  let tag = Tags.make Tags.Credit_ack t.id in
  let region = Memory.alloc 16 in
  let os = Node.os t.env.node in
  Os.prepin os region;
  let rec loop () =
    if t.closed || t.reset then ()
    else if E.uq_has_match t.env.emp ~src:t.peer_node ~tag then begin
      let r = E.post_recv t.env.emp ~src:t.peer_node ~tag region ~off:0 ~len:16 in
      let len, _, _ = E.wait_recv t.env.emp r in
      if len >= 0 then begin
        if len < Codec.int_bytes then
          Codec.protocol_error
            "conn %d: unexpected-queue credit ack from node %d too short (%d B)"
            t.id t.peer_node len;
        (match Codec.decode_region region ~off:0 ~count:1 with
        | [ count ] -> add_credits t count
        | _ ->
          Codec.protocol_error
            "conn %d: undecodable unexpected-queue credit ack from node %d"
            t.id t.peer_node);
        loop ()
      end
    end
    else begin
      (* Event-driven: the endpoint broadcasts on UQ arrivals, and close
         broadcasts too so this fiber can exit. *)
      Cond.wait (E.uq_arrival_cond t.env.emp);
      loop ()
    end
  in
  loop ();
  (* The fiber owned its ack buffer; nothing posts it again. *)
  Os.unpin os region

(* The rendezvous-request, grant and close descriptors complete rarely
   (a large write, a peer's close), so no fiber waits on them. Each is
   posted with a completion hook instead: a real completion (length
   >= 0, and with [while_open] the connection not closed) spawns a
   one-shot handler fiber at the point where a parked fiber's wake-up
   would have been scheduled, so it takes that wake-up's place in the
   event order. Its first step is [E.wait_recv], which finds the
   descriptor done and pays the reap charge; then [handle] runs with
   the length and [repost], which re-arms the slot. *)
let post_ctrl_slot t slot ~tag ~name ~while_open handle =
  let rec post () =
    slot.sl_current <-
      Some
        (E.post_recv t.env.emp ~src:t.peer_node ~tag slot.sl_region ~off:0
           ~len:(Memory.length slot.sl_region) ~on_complete)
  and on_complete r len =
    if len >= 0 && not (while_open && t.closed) then
      Sim.spawn (sim t) ~name ~daemon:true (fun () -> step r)
  and step r =
    let len, _, _ = E.wait_recv t.env.emp r in
    if len >= 0 && not (while_open && t.closed) then handle t len ~repost:post
  in
  post ()

let on_rdvz_request t len ~repost =
  if len < 3 * Codec.int_bytes then
    Codec.protocol_error
      "conn %d: rendezvous request from node %d too short (%d B < %d B)" t.id
      t.peer_node len (3 * Codec.int_bytes);
  match Codec.decode_region t.req_slot.sl_region ~off:0 ~count:3 with
  | [ seq; rid; size ] ->
    repost ();
    Hashtbl.replace t.req_q seq { rq_seq = seq; rq_id = rid; rq_size = size };
    notify_ready t
  | _ ->
    Codec.protocol_error "conn %d: undecodable rendezvous request from node %d"
      t.id t.peer_node

let on_rdvz_grant t len ~repost =
  if len < Codec.int_bytes then
    Codec.protocol_error
      "conn %d: rendezvous grant from node %d too short (%d B)" t.id
      t.peer_node len;
  match Codec.decode_region t.grant_slot.sl_region ~off:0 ~count:1 with
  | [ rid ] ->
    repost ();
    Hashtbl.replace t.granted rid ();
    Cond.broadcast t.grant_c
  | _ ->
    Codec.protocol_error "conn %d: undecodable rendezvous grant from node %d"
      t.id t.peer_node

(* The peer's close is heard even after a local close (it stops
   [close_notify_fiber]'s retries). Nothing reposts. *)
let on_peer_close t len ~repost:_ =
  if len < Codec.int_bytes then
    Codec.protocol_error
      "conn %d: close message from node %d too short (%d B < %d B)" t.id
      t.peer_node len Codec.int_bytes;
  (match Codec.decode_region t.close_slot.sl_region ~off:0 ~count:1 with
  | [ seq ] -> t.close_seq <- seq
  | _ ->
    (* Treating this as "close at seq 0" would discard in-flight
       data still due to the reader. *)
    Codec.protocol_error "conn %d: undecodable close message from node %d"
      t.id t.peer_node);
  t.peer_closed <- true;
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
  Trace.instant t.trace ~layer:Trace.Substrate ~node:(node_id t) ~conn:t.id
    ~seq "sub.rdvz_request"
    ~args:[ ("rid", string_of_int rid); ("len", string_of_int (String.length data)) ];
  post_ctrl t
    ~tag:(Tags.make Tags.Rdvz_request t.peer_conn)
    (Codec.encode [ seq; rid; String.length data ]);
  (* Block until the receiver has synchronised (Figure 6). Grants are
     routed by rid so concurrent writers each claim their own. *)
  let grant_wait =
    Trace.span_begin t.trace ~layer:Trace.Substrate ~node:(node_id t)
      ~conn:t.id ~seq "sub.rdvz_grant_wait"
  in
  let t0 = Sim.now (sim t) in
  Cond.wait_until t.grant_c (fun () ->
      t.closed || t.peer_closed || t.reset || Hashtbl.mem t.granted rid);
  Trace.span_end t.trace ~layer:Trace.Substrate ~node:(node_id t) ~conn:t.id
    ~seq "sub.rdvz_grant_wait" grant_wait;
  Stats.Summary.add t.mh.h_rdvz_grant_wait_us
    (float_of_int (Sim.now (sim t) - t0) /. 1_000.);
  if t.reset then raise Reset;
  if not (Hashtbl.mem t.granted rid) then raise Closed;
  Hashtbl.remove t.granted rid;
  if t.closed || t.peer_closed then raise Closed;
  let region = rdvz_tx_region t (String.length data) in
  Memory.blit_from_string data region ~off:0;
  let s =
    E.post_send t.env.emp ~dst:t.peer_node
      ~tag:(Tags.make Tags.Rdvz_data t.peer_conn)
      region ~off:0 ~len:(String.length data)
  in
  t.rdvz_tx_pending <- Some s

let eager_write t data =
  let o = opts t in
  let cap = Options.chunk_capacity o in
  let len = String.length data in
  let uses_credits = o.Options.scheme <> Options.Comm_thread in
  let rec chunks off =
    if off < len then begin
      let n = min cap (len - off) in
      if uses_credits then take_credit t;
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      let hdr = Codec.encode [ seq; piggyback_credits t ] in
      post_data t
        ~tag:(Tags.make Tags.Data t.peer_conn)
        (hdr ^ String.sub data off n);
      if uses_credits && o.Options.block_send then begin
        (* §6.1 "blocking the send": wait until the receiver has
           acknowledged (credits fully restored) — a round trip per
           message. *)
        Cond.wait_until t.credits_c (fun () ->
            t.closed || t.peer_closed || t.reset
            || t.credits = o.Options.credits);
        if t.reset then raise Reset;
        if t.closed || t.peer_closed then raise Closed
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

(* A public call inside its substrate trace span. Untraced it is the
   bare call: the span's optional arguments are boxed, and [args] built,
   only when tracing is on. *)
let no_args () = []

let in_span t name ~args f =
  if Trace.enabled t.trace then
    Trace.span t.trace ~layer:Trace.Substrate ~node:(node_id t) ~conn:t.id name
      ~args:(args ()) f
  else f ()

let write t data =
  if t.reset then raise Reset;
  if t.closed || t.peer_closed then raise Closed;
  if t.peer_conn < 0 then raise Closed;
  if String.length data > 0 then begin
    Stats.Counter.incr t.mh.h_writes;
    Stats.Counter.add t.mh.h_bytes_written (String.length data);
    in_span t "sub.write"
      ~args:(fun () -> [ ("len", string_of_int (String.length data)) ])
      (fun () ->
        Node.compute t.env.node (opts t).Options.write_overhead;
        if uses_rendezvous t (String.length data) then rendezvous_write t data
        else eager_write t data)
  end

(* --- batched write (tx ring) ------------------------------------------ *)

(* Stage one message of a batch: claim a send-pool slot and build the
   descriptor spec without posting. Only single-chunk eager messages
   without per-message blocking can ride a batch; anything else makes
   the caller flush what is staged (preserving FIFO seq order) and take
   the per-call path. [flush] is invoked before blocking on flow
   control, so credits the staged-but-unposted messages would earn back
   can actually arrive. *)
let stage_for_batch t data ~flush =
  if t.reset then raise Reset;
  if t.closed || t.peer_closed then raise Closed;
  if t.peer_conn < 0 then raise Closed;
  let o = opts t in
  let len = String.length data in
  if len = 0 then `Skip
  else if
    o.Options.scheme <> Options.Eager
    || o.Options.block_send
    || len > Options.chunk_capacity o
    || uses_rendezvous t len
  then `Fallback
  else begin
    Stats.Counter.incr t.mh.h_writes;
    Stats.Counter.add t.mh.h_bytes_written len;
    if t.credits = 0 then flush ();
    take_credit t;
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let hdr = Codec.encode [ seq; piggyback_credits t ] in
    `Staged
      (Sendpool.stage t.data_pool ~dst:t.peer_node
         ~tag:(Tags.make Tags.Data t.peer_conn)
         (hdr ^ data))
  end

let data_pool_slots t = Sendpool.slots t.data_pool
let data_pool t = t.data_pool

(* Gathered write: stage up to a send-pool's worth of eager messages,
   then post them all through the endpoint's tx ring under a single
   doorbell ([Endpoint.post_sendv]). The substrate bookkeeping
   ([write_overhead]) is paid once per batch — that amortization, plus
   the doorbell batching underneath, is the point. A singleton
   degenerates to {!write} exactly. *)
let writev t datas =
  match datas with
  | [] -> ()
  | [ data ] -> write t data
  | _ ->
    if t.reset then raise Reset;
    if t.closed || t.peer_closed then raise Closed;
    if t.peer_conn < 0 then raise Closed;
    in_span t "sub.writev"
      ~args:(fun () -> [ ("msgs", string_of_int (List.length datas)) ])
      (fun () ->
        Node.compute t.env.node (opts t).Options.write_overhead;
        let staged = ref [] and count = ref 0 in
        let pool_cap = data_pool_slots t in
        let flush () =
          if !count > 0 then begin
            let l = List.rev !staged in
            staged := [];
            count := 0;
            let sends = E.post_sendv t.env.emp (List.map snd l) in
            Sendpool.commit (List.map fst l) sends;
            (* Opportunistically retire already-acknowledged ring sends
               so pool-slot reuse doesn't block on them later. *)
            ignore (E.reap_sent t.env.emp)
          end
        in
        List.iter
          (fun data ->
            (* Staging past the pool size would wrap onto a slot staged
               earlier in this very batch. *)
            if !count >= pool_cap then flush ();
            match stage_for_batch t data ~flush with
            | `Skip -> ()
            | `Staged sl ->
              staged := sl :: !staged;
              incr count
            | `Fallback ->
              flush ();
              Stats.Counter.incr t.mh.h_writes;
              Stats.Counter.add t.mh.h_bytes_written (String.length data);
              if uses_rendezvous t (String.length data) then
                rendezvous_write t data
              else eager_write t data)
          datas;
        flush ())

(* --- read -------------------------------------------------------------- *)

type next_item =
  | Nothing
  | Eof
  | Eager_msg of ready
  | Rdvz of rdvz_req

let next_item t =
  match Int_tbl.find_opt t.rx_ready t.expected_seq with
  | Some r -> Eager_msg r
  | None -> (
    match Hashtbl.find_opt t.req_q t.expected_seq with
    | Some q -> Rdvz q
    | None ->
      if
        Int_tbl.length t.rx_ready = 0
        && Hashtbl.length t.req_q = 0
        && t.peer_closed
        && t.expected_seq >= t.close_seq
      then Eof
      else Nothing)

(* With piggy-backing on, hold the explicit ack briefly: a reverse-
   direction write inside the holdoff carries the credits for free
   (§6.1); otherwise the timer sends the explicit ack. *)
let piggyback_holdoff = Time.us 15

let ack_due t =
  if (opts t).Options.piggyback then begin
    if not t.ack_holdoff_armed then begin
      t.ack_holdoff_armed <- true;
      Stats.Counter.incr t.mh.h_ack_holdoffs_armed;
      Trace.instant t.trace ~layer:Trace.Substrate ~node:(node_id t)
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

let message_consumed t r =
  let slot = r.rd_slot in
  Int_tbl.remove t.rx_ready r.rd_seq;
  t.expected_seq <- t.expected_seq + 1;
  if (opts t).Options.scheme = Options.Comm_thread then
    (* No credits/acks: the comm thread reposts the freed buffer so a
       previously overloaded connection can make progress again. *)
    repost_data_slot t slot
  else begin
    repost_data_slot t slot;
    t.consumed_since_ack <- t.consumed_since_ack + 1;
    if t.consumed_since_ack >= Options.ack_threshold (opts t) then ack_due t
  end

let copy_out t region ~off ~len =
  let s = Memory.sub_string region ~off ~len in
  (* The receiver-side copy the eager scheme pays (§5.2). *)
  Node.compute t.env.node (Cost_model.copy_cost (Node.model t.env.node) len);
  s

let read_eager t r n =
  match (opts t).Options.mode with
  | Options.Data_streaming ->
    let m = min n (r.rd_len - r.rd_off) in
    let s =
      copy_out t r.rd_slot.sl_region ~off:(Options.header_bytes + r.rd_off) ~len:m
    in
    r.rd_off <- r.rd_off + m;
    if r.rd_off = r.rd_len then message_consumed t r;
    s
  | Options.Datagram ->
    let m = min n r.rd_len in
    let s = copy_out t r.rd_slot.sl_region ~off:Options.header_bytes ~len:m in
    message_consumed t r;
    s

(* Rendezvous receive: post the user buffer directly (zero-copy: the NIC
   DMAs into it), grant, and wait for the data. The reusable rdvz_rx
   region models the application's own receive buffer. *)
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
  Trace.instant t.trace ~layer:Trace.Substrate ~node:(node_id t) ~conn:t.id
    ~seq:q.rq_seq "sub.rdvz_grant"
    ~args:[ ("rid", string_of_int q.rq_id) ];
  post_ctrl t
    ~tag:(Tags.make Tags.Rdvz_grant t.peer_conn)
    (Codec.encode [ q.rq_id ]);
  let len, _, _ = E.wait_recv t.env.emp r in
  Trace.instant t.trace ~layer:Trace.Substrate ~node:(node_id t) ~conn:t.id
    ~seq:q.rq_seq "sub.rdvz_data"
    ~args:[ ("len", string_of_int (max 0 len)) ];
  t.expected_seq <- t.expected_seq + 1;
  if len < 0 then ""
  else begin
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

let read t n =
  if t.closed then raise Closed;
  if n <= 0 then ""
  else
    in_span t "sub.read" ~args:no_args (fun () ->
        Node.compute t.env.node (opts t).Options.read_overhead;
        let rec wait () =
          if t.reset then raise Reset;
          if t.closed then raise Closed;
          if t.rdvz_leftover <> "" then read_leftover t n
          else
          match next_item t with
          | Eager_msg r -> read_eager t r n
          | Rdvz q -> read_rdvz t q n
          | Eof -> ""
          | Nothing ->
            Cond.wait t.readable_c;
            wait ()
        in
        let s = wait () in
        Stats.Counter.incr t.mh.h_reads;
        Stats.Counter.add t.mh.h_bytes_read (String.length s);
        s)

(* --- batched read (fill ring) ----------------------------------------- *)

(* Deferred variant of [message_consumed]: the slot is collected instead
   of reposted, so a whole drain's worth of descriptors can go back to
   the NIC in one fill-ring batch. Credit accounting is settled by
   [flush_reposts]. *)
let message_consumed_deferred t r freed =
  Int_tbl.remove t.rx_ready r.rd_seq;
  t.expected_seq <- t.expected_seq + 1;
  freed := r.rd_slot :: !freed

let flush_reposts t freed_rev =
  let slots = List.rev freed_rev in
  (match slots with
  | [] -> ()
  | [ slot ] -> repost_data_slot t slot
  | _ ->
    let specs =
      List.map
        (fun slot ->
          ( t.peer_node,
            Tags.make Tags.Data t.id,
            slot.sl_region,
            0,
            Memory.length slot.sl_region ))
        slots
    in
    let rs = E.post_recv_batch t.env.emp specs in
    List.iter2
      (fun slot r ->
        slot.sl_current <- Some r;
        Mailbox.send t.rx_handles (slot, r))
      slots rs);
  let k = List.length slots in
  if k > 0 && (opts t).Options.scheme <> Options.Comm_thread then begin
    t.consumed_since_ack <- t.consumed_since_ack + k;
    if t.consumed_since_ack >= Options.ack_threshold (opts t) then ack_due t
  end

(* Batched read: block for the first item, then drain every consecutive
   ready message (up to [max]) without further blocking. Each returned
   string is one whole message (datagram) or the remaining bytes of the
   next message (streaming). With [Options.rx_ring] the consumed data
   slots are returned to the NIC through the fill ring in one batch;
   otherwise each is reposted per-call, exactly as {!read} would.
   Returns [[]] on EOF. *)
let readv t ~max:maxn =
  if t.closed then raise Closed;
  if maxn <= 0 then []
  else
    in_span t "sub.readv" ~args:no_args (fun () ->
        Node.compute t.env.node (opts t).Options.read_overhead;
        let use_ring = (opts t).Options.rx_ring in
        let acc = ref [] and freed = ref [] and got = ref 0 in
        let take s =
          Stats.Counter.incr t.mh.h_reads;
          Stats.Counter.add t.mh.h_bytes_read (String.length s);
          acc := s :: !acc;
          incr got
        in
        let take_eager r =
          let len = r.rd_len - r.rd_off in
          let s =
            copy_out t r.rd_slot.sl_region
              ~off:(Options.header_bytes + r.rd_off)
              ~len
          in
          if use_ring then message_consumed_deferred t r freed
          else message_consumed t r;
          take s
        in
        let rec first () =
          if t.reset then raise Reset;
          if t.closed then raise Closed;
          if t.rdvz_leftover <> "" then
            take (read_leftover t max_int)
          else
            match next_item t with
            | Eager_msg r -> take_eager r
            | Rdvz q -> take (read_rdvz t q max_int)
            | Eof -> ()
            | Nothing ->
              Cond.wait t.readable_c;
              first ()
        in
        first ();
        (* Non-blocking drain of whatever else is already in order. *)
        let continue = ref (!got > 0) in
        while !continue && !got < maxn do
          match next_item t with
          | Eager_msg r -> take_eager r
          | Rdvz _ | Eof | Nothing -> continue := false
        done;
        if use_ring then flush_reposts t !freed;
        List.rev !acc)

let readable t =
  t.closed || t.peer_closed || t.reset || t.rdvz_leftover <> ""
  || (match next_item t with Nothing -> false | _ -> true)

(* --- lifecycle ---------------------------------------------------------- *)

let unpost_everything t =
  let unpost slot =
    match slot.sl_current with
    | Some r ->
      ignore (E.unpost_recv t.env.emp r);
      slot.sl_current <- None
    | None -> ()
  in
  Array.iter unpost t.data_slots;
  Array.iter unpost t.ack_slots;
  unpost t.req_slot;
  unpost t.grant_slot;
  unpost t.close_slot;
  (* Descriptors whose completion is already queued for the rx fiber. *)
  let rec drain () =
    match Mailbox.try_recv t.rx_handles with
    | Some (slot, r) ->
      ignore (E.unpost_recv t.env.emp r);
      ignore slot;
      drain ()
    | None -> ()
  in
  drain ()

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
        Stats.Counter.incr t.mh.h_close_retries;
        Trace.instant t.trace ~layer:Trace.Substrate ~node:(node_id t)
          ~conn:t.id "sub.close_retry"
          ~args:[ ("attempt", string_of_int n) ];
        Sim.delay (sim t) backoff;
        attempt (n + 1) (2 * backoff)
    end
  in
  attempt 1 (Time.ms 1)

(* Every region the connection registered: receive slots, the send
   pool's ring and the rendezvous buffers. *)
let regions t =
  let slot_regions slots = List.map (fun s -> s.sl_region) slots in
  slot_regions (Array.to_list t.data_slots)
  @ slot_regions (List.of_seq (Queue.to_seq t.spare_slots))
  @ slot_regions (Array.to_list t.ack_slots)
  @ slot_regions [ t.req_slot; t.grant_slot; t.close_slot ]
  @ Sendpool.regions t.data_pool
  @ [ t.rdvz_tx; t.rdvz_rx ]

(* What a dead connection gives back (§5.3): its descriptors, its entry
   in the active-socket table (the substrate keeps its data pool only
   while sends are still in flight) and its regions' pin-table entries —
   free of simulated cost, since a dead region is never pinned again. *)
let teardown t =
  unpost_everything t;
  wake_all t;
  (* Wake the UQ ack fiber so it observes [closed]/[reset] and exits. *)
  Cond.broadcast (E.uq_arrival_cond t.env.emp);
  t.env.release t;
  let os = Node.os t.env.node in
  List.iter (Os.unpin os) (regions t)

let close t =
  if not t.closed then begin
    t.closed <- true;
    Trace.instant t.trace ~layer:Trace.Substrate ~node:(node_id t) ~conn:t.id
      "sub.close";
    if t.peer_conn >= 0 && not t.peer_closed && not t.reset then
      Sim.spawn (sim t) ~name:"sub-close-notify"
        (close_notify_fiber t t.next_seq);
    teardown t
  end

let mark_reset t =
  if not (t.closed || t.reset) then begin
    t.reset <- true;
    Stats.Counter.incr t.mh.h_resets;
    Trace.instant t.trace ~layer:Trace.Substrate ~node:(node_id t) ~conn:t.id
      "sub.reset";
    teardown t
  end

let is_reset t = t.reset
let is_closed t = t.closed

(* Test fixture: re-post one receive slot as if close had missed it —
   the seeded known-bad input for the sanitizer's leak scan. *)
let debug_leak_slot t =
  ignore (post_slot t t.data_slots.(0) ~tag:(Tags.make Tags.Data t.id))

(* Receive-slot leak scan (sanitizer): after [close]/[mark_reset] every
   slot's descriptor must have been unposted or consumed. *)
let leaked_slots t =
  let count = ref 0 in
  let chk slot = if slot.sl_current <> None then incr count in
  Array.iter chk t.data_slots;
  Queue.iter chk t.spare_slots;
  Array.iter chk t.ack_slots;
  chk t.req_slot;
  chk t.grant_slot;
  chk t.close_slot;
  !count

let create env ~id ~peer_node ~peer_conn ~local_addr ~peer_addr =
  let opts = env.opts in
  let metrics = Metrics.for_sim (Node.sim env.node) in
  let node_id = Node.id env.node in
  let counter name = Metrics.counter metrics ~node:node_id name in
  let histogram name = Metrics.histogram metrics ~node:node_id name in
  let mk_slot size =
    let region = Memory.alloc size in
    (* Credit buffers come from the library's registered pool: pinned
       once at allocation, so per-connection descriptor posting pays
       only the post itself (the overhead §7.4 discusses), not a pin
       system call per buffer. *)
    Os.prepin (Node.os env.node) region;
    { sl_region = region; sl_current = None }
  in
  let n = opts.Options.credits in
  let t =
    {
      env;
      id;
      peer_node;
      peer_conn;
      local_addr;
      peer_addr;
      credits = n;
      credits_c =
        Cond.create
          ~label:(Printf.sprintf "conn:%d credits" id)
          (Node.sim env.node);
      next_seq = 0;
      next_rdvz = 0;
      data_pool =
        Sendpool.create env.node env.emp ~slots:(max 2 n)
          ~size:opts.Options.buffer_size;
      rdvz_tx = Memory.alloc 16;
      rdvz_tx_pending = None;
      rdvz_rx = Memory.alloc 16;
      granted = Hashtbl.create 4;
      grant_c =
        Cond.create
          ~label:(Printf.sprintf "conn:%d grant" id)
          (Node.sim env.node);
      rdvz_leftover = "";
      data_slots = Array.init n (fun _ -> mk_slot opts.Options.buffer_size);
      spare_slots =
        (let q = Queue.create () in
         if opts.Options.scheme = Options.Comm_thread then
           for _ = 1 to n do
             Queue.push (mk_slot opts.Options.buffer_size) q
           done;
         q);
      ack_slots =
        (if opts.Options.unexpected_queue || opts.Options.scheme = Options.Comm_thread
         then [||]
         else Array.init n (fun _ -> mk_slot 16));
      req_slot = mk_slot 64;
      grant_slot = mk_slot 64;
      close_slot = mk_slot 16;
      rx_handles =
        Mailbox.create
          ~label:(Printf.sprintf "conn:%d rx-handles" id)
          (Node.sim env.node);
      rx_ready = Int_tbl.create 64;
      req_q = Hashtbl.create 16;
      expected_seq = 0;
      consumed_since_ack = 0;
      ack_holdoff_armed = false;
      readable_c =
        Cond.create
          ~label:(Printf.sprintf "conn:%d readable" id)
          (Node.sim env.node);
      watchers = [];
      peer_closed = false;
      close_seq = max_int;
      closed = false;
      reset = false;
      metrics;
      mh =
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
        };
      trace = Trace.for_sim (Node.sim env.node);
      inv = Invariant.for_sim (Node.sim env.node);
    }
  in
  (* Post the connection's descriptors: N data (+ N ack unless UQ) plus
     the three control descriptors — the 2N provisioning of §6.1. *)
  Array.iter (fun slot -> repost_data_slot t slot) t.data_slots;
  Array.iter
    (fun slot ->
      ignore (post_slot t slot ~tag:(Tags.make Tags.Credit_ack t.id));
      Sim.spawn (sim t) ~name:"sub-ack" ~daemon:true (ack_fiber t slot))
    t.ack_slots;
  post_ctrl_slot t t.req_slot
    ~tag:(Tags.make Tags.Rdvz_request t.id)
    ~name:"sub-req" ~while_open:true on_rdvz_request;
  post_ctrl_slot t t.grant_slot
    ~tag:(Tags.make Tags.Rdvz_grant t.id)
    ~name:"sub-grant" ~while_open:true on_rdvz_grant;
  post_ctrl_slot t t.close_slot
    ~tag:(Tags.make Tags.Close t.id)
    ~name:"sub-close" ~while_open:false on_peer_close;
  (* Service fibers park forever once the connection quiesces, so they
     are daemons: only application fibers count for deadlock detection. *)
  Sim.spawn (sim t) ~name:"sub-rx" ~daemon:true (rx_fiber t);
  if opts.Options.unexpected_queue then
    Sim.spawn (sim t) ~name:"sub-uq-ack" ~daemon:true (uq_ack_fiber t);
  t
