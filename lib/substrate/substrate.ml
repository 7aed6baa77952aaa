(** Per-node substrate instance: the user-level library that maps the
    sockets interface onto EMP (Figure 5). Connection management is the
    data-message-exchange scheme of §5.1: [listen] pre-posts [backlog]
    request descriptors on the port's tag; [connect] sends an explicit
    request message carrying the client's identity and waits for the
    reply. An active-socket table tracks every open connection so close
    reclaims all NIC descriptors (§5.3). *)

open Uls_engine
open Uls_host
module E = Uls_emp.Endpoint

type request = {
  rq_node : int;
  rq_conn : int;
  rq_port : int;
}

type listener = {
  l_port : int;
  l_requests : request Queue.t;  (** taken requests, waiting for accept *)
  l_slots : Conn.slot array;
  l_backlog : (Conn.slot * E.recv) Serial.ordered Lazy.t;
      (** the posted backlog descriptors, in posting order *)
  l_hook : (E.recv -> int -> unit) option;  (** kicks [l_backlog] *)
  mutable l_watchers : (unit -> unit) list;
      (** accept-readiness watchers: fired when a request is queued and
          when the listener closes (the event engine's accept path) *)
  mutable l_closed : bool;
}

(* Control-path metric handles, resolved once at create. *)
type handles = {
  h_refusals_sent : Stats.Counter.t;
  h_accept_dups : Stats.Counter.t;
  h_accepts : Stats.Counter.t;
  h_connect_retries : Stats.Counter.t;
  h_connects : Stats.Counter.t;
}

type t = {
  node : Node.t;
  emp : E.t;
  mh : handles;
  opts : Options.t;
  ctrl_pool : Sendpool.t;
  env : Conn.env;  (** what every connection of this node shares *)
  conns : (int, Conn.t) Hashtbl.t;
  listeners : (int, listener) Hashtbl.t;
  accepted : (int * int, int) Hashtbl.t;
      (** (client node, client conn id) -> server conn id, for every live
          accepted connection: a client that never heard our reply resends
          its request, which must re-answer — not build a second
          connection. The key is the accepted connection's own
          (peer node, peer conn), so release drops it in O(1). *)
  mutable draining : Sendpool.t list;
      (** data pools of released connections that still had sends in
          flight: the leak scan must see them until they drain *)
  mutable draining_len : int;
  mutable draining_sweep_at : int;
  activity : Cond.t;
  unanswered : request Queue.t;
      (** requests a closed listener's backlog had taken, waiting for
          the [refuser] *)
  refuser : Serial.t Lazy.t;
  mutable next_id : int;
  mutable next_eport : int;
}

let node_id t = Node.id t.node
let sim t = Node.sim t.node
let active_connections t = Hashtbl.length t.conns

let conn_ids t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.conns [] |> List.sort compare

let conns t =
  Hashtbl.fold (fun _ c acc -> c :: acc) t.conns []
  |> List.sort (fun a b -> compare (Conn.id a) (Conn.id b))

(* A send that exhausted every retransmission round names a dead
   connection: route the failed message's tag back to the connection that
   owns it (our conn whose peer is [(dst, id)]) and reset it, so blocked
   readers and writers surface [Connection_reset] instead of hanging.
   Connection-setup tags are excluded — [connect] has its own
   timeout-and-retry and no connection to reset yet. *)
let on_send_failure t ~dst ~tag ~retries:_ =
  match Tags.split tag with
  | (Tags.Conn_request | Tags.Conn_reply), _ -> ()
  | _, peer_id ->
    let victims =
      Hashtbl.fold
        (fun _ c acc ->
          if Conn.peer_node c = dst && Conn.peer_conn c = peer_id then c :: acc
          else acc)
        t.conns []
    in
    List.iter Conn.mark_reset victims

(* Answer client connection [conn] on [node]: the server-side
   connection id, or [-1] for a refusal. *)
let reply t ~node ~conn answer =
  ignore
    (Sendpool.send t.ctrl_pool ~dst:node
       ~tag:(Tags.make Tags.Conn_reply conn)
       (Codec.encode [ answer ]))

(* A request from a client we already accepted (it retried because our
   reply was lost) is answered again with the connection already built. *)
let answer_dup t rq =
  match Hashtbl.find_opt t.accepted (rq.rq_node, rq.rq_conn) with
  | Some id when Hashtbl.mem t.conns id ->
    Stats.Counter.incr t.mh.h_accept_dups;
    Trace.instant t.env.Conn.trace ~layer:Trace.Substrate
      ~node:(node_id t) ~conn:id "sub.accept_dup"
      ~args:[ ("peer", string_of_int rq.rq_node) ];
    reply t ~node:rq.rq_node ~conn:rq.rq_conn id;
    true
  | _ -> false

let refuse t ~node ~conn =
  if conn >= 0 && conn <= Tags.max_id then begin
    Stats.Counter.incr t.mh.h_refusals_sent;
    Trace.instant t.env.Conn.trace ~layer:Trace.Substrate
      ~node:(node_id t) "sub.refuse"
      ~args:[ ("peer", string_of_int node) ];
    reply t ~node ~conn (-1)
  end

(* Connection requests nobody will accept are answered with an explicit
   refusal ([-1] in the reply), so the client fails fast instead of
   burning its retry budget: with the unexpected queue on, a request
   aimed at a port nobody listens on completes into the UQ; and a
   closing listener leaves the requests its backlog already took in
   [unanswered]. The [refuser] handler refuses them one at a time, the
   taken ones first; it is kicked when one arrives, or when
   [close_listener] leaves requests without a listener. A taken request
   that is a retry from a client already accepted gets its connection
   again instead. *)
let orphan t ~src:_ ~tag =
  match Tags.split tag with
  | Tags.Conn_request, port -> not (Hashtbl.mem t.listeners port)
  | _ -> false

let refusals_due t =
  (not (Queue.is_empty t.unanswered))
  || E.uq_has_match t.emp ~pred:(orphan t) ~src:(-1) ~tag:(-1)

let refuse_one t =
  match Queue.take_opt t.unanswered with
  | Some rq ->
    if not (answer_dup t rq) then refuse t ~node:rq.rq_node ~conn:rq.rq_conn
  | None -> (
    match E.uq_take t.emp ~pred:(orphan t) with
    | None -> ()
    | Some (data, src, tag) ->
      let rq =
        Codec.decode Tags.Conn_request ~owner:(snd (Tags.split tag))
          ~peer:src ~len:(String.length data) (String.get_int64_le data)
      in
      refuse t ~node:rq.(0) ~conn:rq.(1))

let refuse_pending t = Serial.kick (Lazy.force t.refuser)

let refuse_later t rq =
  Queue.push rq t.unanswered;
  refuse_pending t

(* Each message that completes into the unexpected queue goes to its
   owner alone: a credit ack to its connection, a connection request
   for a port nobody listens on to the refusal handler. A close for a
   connection that is gone, or whose id now belongs to another peer's,
   has no owner: both sides of a connection send one, and the later
   lands after the receiver released its close descriptor. It is
   dropped at once, or such closes would hold every unexpected-queue
   slot until they go stale and starve live traffic of the queue. *)
let on_unexpected t ~src ~tag =
  match Tags.split tag with
  | Tags.Credit_ack, id -> (
    match Hashtbl.find_opt t.conns id with
    | Some c when Conn.peer_node c = src -> Conn.uq_ack_arrived c
    | _ -> ())
  | Tags.Close, id -> (
    match Hashtbl.find_opt t.conns id with
    | Some c when Conn.peer_node c = src -> ()
    | _ ->
      ignore
        (E.uq_take t.emp ~pred:(fun ~src:s ~tag:g -> s = src && g = tag)))
  | _ -> if orphan t ~src ~tag then refuse_pending t

(* A released connection's data pool stays owned only while it may
   still hold a send ([Sendpool.busy]). Drained pools are swept out
   whenever the list doubles, so upkeep is amortized O(1) per release
   and the list stays within twice the pools that really hold a send. *)
let retire_pool t pool =
  if Sendpool.busy pool then begin
    t.draining <- pool :: t.draining;
    t.draining_len <- t.draining_len + 1;
    if t.draining_len >= t.draining_sweep_at then begin
      t.draining <- List.filter Sendpool.busy t.draining;
      t.draining_len <- List.length t.draining;
      t.draining_sweep_at <- max 16 (2 * t.draining_len)
    end
  end

(* Close and reset both release; only the first release of this very
   connection acts (its id may already belong to a newer one). *)
let release t c =
  let id = Conn.id c in
  match Hashtbl.find_opt t.conns id with
  | Some c' when c' == c ->
    Hashtbl.remove t.conns id;
    (* Drop the accept-dedup binding too, or a recycled conn id would
       answer a stranger's retried request. *)
    let key = (Conn.peer_node c, Conn.peer_conn c) in
    (match Hashtbl.find_opt t.accepted key with
    | Some v when v = id -> Hashtbl.remove t.accepted key
    | _ -> ());
    retire_pool t (Conn.data_pool c)
  | _ -> ()

let create ?(opts = Options.data_streaming_enhanced) node emp =
  if opts.Options.unexpected_queue then
    E.provision_unexpected emp ~slots:((4 * opts.Options.credits) + 32) ~size:64;
  let sim = Node.sim node in
  let metrics = Metrics.for_sim sim in
  let counter name = Metrics.counter metrics ~node:(Node.id node) name in
  let ctrl_pool =
    Sendpool.create node emp ~ring:opts.Options.rx_ring ~slots:64 ~size:256
  in
  let rec t =
    {
      node;
      emp;
      mh =
        {
          h_refusals_sent = counter "sub.refusals_sent";
          h_accept_dups = counter "sub.accept_dups";
          h_accepts = counter "sub.accepts";
          h_connect_retries = counter "sub.connect_retries";
          h_connects = counter "sub.connects";
        };
      opts;
      ctrl_pool;
      env =
        {
          Conn.node;
          emp;
          opts;
          ctrl_pool;
          notify = (fun () -> Cond.broadcast t.activity);
          release = (fun c -> release t c);
          mh = Conn.handles node;
          trace = Trace.for_sim sim;
          inv = Invariant.for_sim sim;
        };
      conns = Hashtbl.create 32;
      listeners = Hashtbl.create 8;
      accepted = Hashtbl.create 32;
      draining = [];
      draining_len = 0;
      draining_sweep_at = 16;
      activity = Cond.create ~label:"sub:activity" sim;
      unanswered = Queue.create ();
      refuser =
        lazy
          (Serial.create sim ~name:"sub-refuse"
             ~has_work:(fun () -> refusals_due t)
             (fun () -> refuse_one t));
      next_id = 0;
      next_eport = 40_000;
    }
  in
  E.set_send_failure_handler emp (on_send_failure t);
  E.set_unexpected_handler emp (on_unexpected t);
  t

let alloc_id t =
  let rec search tries =
    if tries > Tags.max_id then failwith "substrate: connection ids exhausted";
    t.next_id <- (t.next_id + 1) land Tags.max_id;
    if Hashtbl.mem t.conns t.next_id then search (tries + 1) else t.next_id
  in
  search 0

let send_pools t =
  t.ctrl_pool
  :: List.map Conn.data_pool (conns t)
  @ List.filter Sendpool.busy t.draining

(* --- listen / accept -------------------------------------------------- *)

(* Backlog descriptors take a request from any node. *)
let request_tag l = Tags.make Tags.Conn_request l.l_port

let post_request_slot t l slot =
  ( slot,
    Conn.post_slot ?on_complete:l.l_hook ~ring:t.opts.Options.rx_ring t.emp slot
      ~src:(-1)
      ~tag:(request_tag l) )

(* Like a connection's data descriptors, the backlog descriptors are
   reaped in posting order, by an ordered serial handler. A request
   that landed before the listener closed is refused, as is one that
   landed while its descriptor was being reposted: a close during the
   post has already unposted and unpinned the slots, so the fresh
   descriptor is taken back too (taking back a slot the close already
   took is a no-op). *)
let take_request t l (slot, recv) =
  let len, src, _ = E.wait_recv t.emp recv in
  if len >= 0 then begin
    let rq =
      Codec.decode Tags.Conn_request ~owner:l.l_port ~peer:src ~len
        (Memory.get_int64_le slot.Conn.sl_region)
    in
    let rq = { rq_node = rq.(0); rq_conn = rq.(1); rq_port = rq.(2) } in
    if not l.l_closed then
      Serial.push (Lazy.force l.l_backlog) (post_request_slot t l slot);
    if l.l_closed then begin
      Conn.take_back t.emp slot;
      refuse_later t rq
    end
    else begin
      Queue.push rq l.l_requests;
      Cond.broadcast t.activity;
      List.iter (fun f -> f ()) l.l_watchers
    end
  end

(* A backlog slot holds one connection request. *)
let backlog_request_bytes = 64

let listen t ~port ~backlog =
  if port < 0 || port > Tags.max_id then invalid_arg "substrate: port > 4095";
  if Hashtbl.mem t.listeners port then
    raise (Uls_api.Sockets_api.Bind_in_use { node = node_id t; port });
  let backlog = max 1 backlog in
  let rec l =
    {
      l_port = port;
      l_requests = Queue.create ();
      l_slots =
        Array.init backlog (fun _ ->
            Conn.alloc_slot t.node backlog_request_bytes);
      l_backlog =
        lazy
          (Serial.ordered (sim t) ~name:"sub-listen" ~ready:Conn.is_done
             (take_request t l));
      l_hook = Some (fun _ _ -> Serial.kick_ordered (Lazy.force l.l_backlog));
      l_watchers = [];
      l_closed = false;
    }
  in
  (* The backlog goes to the NIC in one fill-ring batch under
     [rx_ring]. Reaping starts once the whole backlog is posted:
     requests that complete meanwhile wait for the kick below. *)
  let posted = ref [] in
  let add slot r = posted := (slot, r) :: !posted in
  Conn.post_slots t.emp ~ring:t.opts.Options.rx_ring
    ~live:(fun () -> not l.l_closed)
    (Array.fold_right
       (fun slot ps ->
         { Conn.slot; src = -1; tag = request_tag l; hook = l.l_hook;
           posted = add }
         :: ps)
       l.l_slots []);
  Hashtbl.replace t.listeners port l;
  List.iter (Serial.push (Lazy.force l.l_backlog)) (List.rev !posted);
  Serial.kick_ordered (Lazy.force l.l_backlog);
  l

(* Non-blocking: drains duplicate requests (a retried connect whose
   reply was lost — resolved by resending the reply) until a fresh one
   or an empty queue. Event-driven accept loops must use this: a
   duplicate makes the queue non-empty without making a blocking
   [accept] safe to call. *)
let rec try_accept t l =
  if l.l_closed then raise Uls_api.Sockets_api.Connection_closed;
  match Queue.take_opt l.l_requests with
  | None -> None
  | Some rq when answer_dup t rq ->
    (* A retry answered again: look for the next fresh request. *)
    try_accept t l
  | Some rq ->
  let id = alloc_id t in
  let peer_addr = { Uls_api.Sockets_api.node = rq.rq_node; port = rq.rq_port } in
  let conn =
    Conn.create t.env ~id ~peer_node:rq.rq_node ~peer_conn:rq.rq_conn
      ~local_addr:{ Uls_api.Sockets_api.node = node_id t; port = l.l_port }
      ~peer_addr
  in
  (* The connection joins the active-socket table only once its
     descriptors are posted: nothing can close or reset it before. *)
  Conn.provision conn;
  Hashtbl.replace t.conns id conn;
  Hashtbl.replace t.accepted (rq.rq_node, rq.rq_conn) id;
  Stats.Counter.incr t.mh.h_accepts;
  if Trace.enabled t.env.Conn.trace then
    Trace.instant t.env.Conn.trace ~layer:Trace.Substrate ~node:(node_id t)
      ~conn:id "sub.accept"
      ~args:[ ("peer", string_of_int rq.rq_node) ];
  reply t ~node:rq.rq_node ~conn:rq.rq_conn id;
  Some (conn, peer_addr)

let rec accept t l =
  match try_accept t l with
  | Some r -> r
  | None ->
    (* Park on the substrate's activity condition so close_listener can
       wake us (a plain Mailbox.recv would sleep through it forever). *)
    Cond.wait t.activity;
    accept t l

let acceptable l = not (Queue.is_empty l.l_requests)
let listener_pending l = Queue.length l.l_requests
let add_accept_watcher l f = l.l_watchers <- f :: l.l_watchers

let close_listener t l =
  if not l.l_closed then begin
    l.l_closed <- true;
    Hashtbl.remove t.listeners l.l_port;
    (* Only requests the backlog already took are left to reap, and
       refuse; the descriptors cancelled below leave the queue first. *)
    Serial.retain (Lazy.force l.l_backlog) Conn.is_done;
    Array.iter (Conn.take_back t.emp) l.l_slots;
    (* Wake fibers parked in accept so they observe l_closed. *)
    Cond.broadcast t.activity;
    List.iter (fun f -> f ()) l.l_watchers;
    (* Requests the backlog already took are refused, and so are those
       for the port still queued in the UQ: they are orphans now. *)
    Queue.transfer l.l_requests t.unanswered;
    refuse_pending t
  end

(* --- connect ----------------------------------------------------------- *)

exception Refused = Uls_api.Sockets_api.Connection_refused
exception Timed_out = Uls_api.Sockets_api.Connection_timeout

let connect_blocking t (server : Uls_api.Sockets_api.addr) =
  let id = alloc_id t in
  t.next_eport <- t.next_eport + 1;
  let local = { Uls_api.Sockets_api.node = node_id t; port = t.next_eport } in
  let conn =
    Conn.create t.env ~id ~peer_node:server.node ~peer_conn:(-1)
      ~local_addr:local ~peer_addr:server
  in
  (* Pre-post the reply descriptor with the connection's own; it stays
     posted across retries. As on accept, the connection joins the
     active-socket table once they are all posted. *)
  let reply_slot = Conn.alloc_slot t.node 16 in
  Conn.provision ~reply:reply_slot conn;
  let reply = Option.get reply_slot.Conn.sl_current in
  Hashtbl.replace t.conns id conn;
  (* Failure must not leak: the reply descriptor is unposted and the
     half-built connection torn down (removing it from the active-socket
     table) before the exception escapes. *)
  let give_up exn =
    Conn.unpost_slot t.emp reply_slot;
    Conn.close conn;
    raise exn
  in
  let attempts = max 1 t.opts.Options.connect_attempts in
  (* The request (or its reply) can be lost: resend with exponential
     backoff. A reply of [-1] is an explicit refusal — final, no retry;
     exhausting the attempts without any reply is a timeout — the caller
     may retry later (the server may simply not have listened yet). *)
  let rec attempt n timeout =
    if n > 1 then begin
      Stats.Counter.incr t.mh.h_connect_retries;
      Trace.instant t.env.Conn.trace ~layer:Trace.Substrate
        ~node:(node_id t) ~conn:id "sub.connect_retry"
        ~args:[ ("attempt", string_of_int n) ]
    end;
    ignore
      (Sendpool.send t.ctrl_pool ~dst:server.node
         ~tag:(Tags.make Tags.Conn_request server.port)
         (Codec.encode [ node_id t; id; local.port ]));
    match E.wait_recv_timeout t.emp reply timeout with
    | Some (len, src, _) ->
      let server_conn =
        (Codec.decode Tags.Conn_reply ~owner:id ~peer:src ~len
           (Memory.get_int64_le reply_slot.Conn.sl_region)).(0)
      in
      if server_conn < 0 then give_up (Refused server)
      else begin
        Conn.set_peer conn ~conn:server_conn ~addr:server;
        (* A close or reset while the reply was on its way fails the
           connect. *)
        if Conn.is_reset conn then give_up Uls_api.Sockets_api.Connection_reset;
        if Conn.is_closed conn then
          give_up Uls_api.Sockets_api.Connection_closed;
        conn
      end
    | None ->
      if n < attempts then attempt (n + 1) (2 * timeout)
      else give_up (Timed_out server)
  in
  (* The reply buffer serves this handshake only: once it resolves,
     nothing posts it again. *)
  Fun.protect
    ~finally:(fun () -> Os.unpin (Node.os t.node) reply_slot.Conn.sl_region)
    (fun () -> attempt 1 t.opts.Options.connect_timeout)

let connect t (server : Uls_api.Sockets_api.addr) =
  if server.port < 0 || server.port > Tags.max_id then
    invalid_arg "substrate: port > 4095";
  Stats.Counter.incr t.mh.h_connects;
  if Trace.enabled t.env.Conn.trace then
    Trace.span t.env.Conn.trace ~layer:Trace.Substrate ~node:(node_id t)
      "sub.connect" (fun () -> connect_blocking t server)
  else connect_blocking t server

(* --- stack-agnostic API ------------------------------------------------ *)

let stream_of_conn (c : Conn.t) : Uls_api.Sockets_api.stream =
  {
    send = (fun data -> Conn.write c data);
    recv = (fun n -> Conn.read c n);
    close = (fun () -> Conn.close c);
    readable = (fun () -> Conn.readable c);
    watch = (fun f -> Conn.add_watcher c f);
    peer = (fun () -> Conn.peer_addr c);
    local = (fun () -> Conn.local_addr c);
  }

let api (subs : t array) : Uls_api.Sockets_api.stack =
  let name =
    if Array.length subs = 0 then "emp-substrate"
    else "emp-" ^ Options.mode_name subs.(0).opts
  in
  let listen ~node ~port ~backlog =
    let s = subs.(node) in
    let l = listen s ~port ~backlog in
    {
      Uls_api.Sockets_api.accept =
        (fun () ->
          let c, peer = accept s l in
          (stream_of_conn c, peer));
      try_accept =
        (fun () ->
          match try_accept s l with
          | Some (c, peer) -> Some (stream_of_conn c, peer)
          | None -> None);
      acceptable = (fun () -> acceptable l);
      watch_accept = (fun f -> add_accept_watcher l f);
      pending = (fun () -> listener_pending l);
      close_listener = (fun () -> close_listener s l);
    }
  in
  let connect ~node addr = stream_of_conn (connect subs.(node) addr) in
  let select ~node streams =
    let s = subs.(node) in
    let m = Metrics.for_sim (sim s) in
    let h_scans = Metrics.counter m ~node "api.select_scans" in
    let h_scanned = Metrics.counter m ~node "api.select_streams_scanned" in
    let ready () =
      (* The O(registered) scan the event engine exists to avoid; the
         counters let experiments compare it against evq wakeups. *)
      Stats.Counter.incr h_scans;
      Stats.Counter.add h_scanned (List.length streams);
      List.filter (fun (st : Uls_api.Sockets_api.stream) -> st.readable ()) streams
    in
    let rec wait () =
      match ready () with
      | _ :: _ as r -> r
      | [] ->
        Cond.wait s.activity;
        wait ()
    in
    wait ()
  in
  { Uls_api.Sockets_api.stack_name = name; listen; connect; select }
