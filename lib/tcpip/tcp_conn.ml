(** One TCP connection: state machine, socket buffers, sender fiber with
    go-back-N retransmission, delayed acks, window updates, persist
    probes, and the blocking app-side operations with their syscall /
    copy / scheduler-wakeup costs. *)

open Uls_engine
open Uls_host

type state =
  | Syn_sent
  | Syn_rcvd
  | Established
  | Fin_wait_1
  | Fin_wait_2
  | Close_wait
  | Closing
  | Last_ack
  | Time_wait
  | Closed_st

type t = {
  env : env;
  local : Uls_api.Sockets_api.addr;
  remote : Uls_api.Sockets_api.addr;
  mutable state : state;
  (* send side; stream byte k has sequence number k+1 (SYN = seq 0) *)
  snd_buf : Bytebuf.t;
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable snd_max : int;  (* highest sequence ever sent (go-back-N rewinds
                             move snd_nxt below it; acks up to snd_max
                             remain valid) *)
  mutable snd_wnd : int;
  mutable fin_pending : bool;
  mutable fin_sent : bool;
  mutable dup_acks : int;
  mutable cwnd : int;  (* congestion window, bytes *)
  mutable ssthresh : int;
  mutable rto : Time.ns;
  mutable dead_since : Time.ns;
      (* start of the current run of silent RTOs with no cumulative-ack
         progress (-1 = none); Config.dead_rto_abort of unbroken silence
         aborts the connection *)
  mutable synack_tries : int;
  mutable aborted : bool;
      (* retransmission gave up (the ETIMEDOUT analogue): app-side ops
         raise Connection_reset instead of reporting a clean close *)
  (* receive side *)
  rcv_buf : Bytebuf.t;
  mutable rcv_nxt : int;
  mutable ooo : (int * string) list; (* seq-sorted out-of-order data *)
  mutable fin_rcvd : bool;
  mutable rst_rcvd : bool;
  mutable pending_ack : int;
  mutable delack_armed : bool;
  mutable last_advertised : int;
  (* app *)
  mutable app_closed : bool;
  mutable on_established : (t -> unit) option;
  mutable watchers : (unit -> unit) list;
  (* per-connection readiness watchers (the event engine's O(ready)
     notification path, vs the node-wide activity broadcast) *)
  readable_c : Cond.t;
  writable_c : Cond.t;
  state_c : Cond.t;
  send_c : Cond.t;
}

and env = {
  node : Node.t;
  cpu : Resource.t;
  config : Config.t;
  ip_send : dst:int -> Segment.tcp_segment -> unit;
  unregister : t -> unit;
  notify : unit -> unit;  (* select() activity hook *)
  trace : Trace.t;
  (* node-wide metric handles, resolved once by the kernel *)
  h_retransmits : Stats.Counter.t;
  h_aborts : Stats.Counter.t;
  h_syscalls : Stats.Counter.t;
}

let sim t = Node.sim t.env.node
let model t = Node.model t.env.node
let local t = t.local
let remote t = t.remote
let state t = t.state

let alive t = t.state <> Closed_st && not t.rst_rcvd
let in_flight t = t.snd_nxt - t.snd_una
let unsent_bytes t = Bytebuf.available t.snd_buf - in_flight t

(* Effective send window: peer's advertised window clamped by the
   congestion window (slow start / congestion avoidance). *)
let send_window t = min t.snd_wnd t.cwnd

let on_ack_progress t ~data_bytes =
  if data_bytes > 0 then begin
    if t.cwnd < t.ssthresh then
      (* slow start: exponential per-ack growth *)
      t.cwnd <- t.cwnd + min data_bytes Segment.mss
    else
      (* congestion avoidance: ~one MSS per window *)
      t.cwnd <- t.cwnd + max 1 (Segment.mss * Segment.mss / t.cwnd)
  end

let on_loss t =
  t.ssthresh <- max (2 * Segment.mss) (in_flight t / 2);
  t.cwnd <- max (2 * Segment.mss) t.ssthresh

let add_watcher t f = t.watchers <- f :: t.watchers
let fire_watchers t = List.iter (fun f -> f ()) t.watchers

let wake_all t =
  Cond.broadcast t.readable_c;
  Cond.broadcast t.writable_c;
  Cond.broadcast t.state_c;
  Cond.broadcast t.send_c;
  fire_watchers t

let set_state t s =
  if t.state <> s then begin
    t.state <- s;
    if s = Closed_st then t.env.unregister t;
    Cond.broadcast t.state_c;
    Cond.broadcast t.send_c;
    if s = Closed_st then wake_all t;
    if s = Established then begin
      match t.on_established with
      | Some f ->
        t.on_established <- None;
        f t
      | None -> ()
    end;
    t.env.notify ()
  end

let enter_time_wait t =
  set_state t Time_wait;
  Sim.at (sim t)
    (Sim.now (sim t) + Config.time_wait)
    (fun () -> if t.state = Time_wait then set_state t Closed_st)

(* --- segment emission ----------------------------------------------- *)

(* Linux 2.4 reserves part of the receive buffer for sk_buff overhead
   (tcp_adv_win_scale); the advertised window is 3/4 of free space. This
   is a first-order term in why small socket buffers cap bandwidth. *)
let advertised_window t = Bytebuf.free_space t.rcv_buf * 3 / 4

let emit t ?(data = "") ~flags ~seq () =
  let m = model t in
  let tx_cost =
    (* Pure acks are far cheaper than data-bearing output processing. *)
    if data = "" && not (flags.Segment.syn || flags.Segment.fin) then
      m.Cost_model.tcp_tx_per_segment / 2
    else m.Cost_model.tcp_tx_per_segment
  in
  Resource.use t.env.cpu tx_cost;
  let wnd = advertised_window t in
  t.last_advertised <- wnd;
  t.pending_ack <- 0;
  let seg =
    {
      Segment.src_port = t.local.port;
      dst_port = t.remote.port;
      seq;
      ack_no = t.rcv_nxt;
      flags;
      wnd;
      data;
    }
  in
  t.env.ip_send ~dst:t.remote.node seg

let send_pure_ack t = emit t ~flags:(Segment.flag ~ack:true ()) ~seq:t.snd_nxt ()

let maybe_arm_delack t =
  if not t.delack_armed then begin
    t.delack_armed <- true;
    Sim.at (sim t)
      (Sim.now (sim t) + Config.delack_timeout)
      (fun () ->
        t.delack_armed <- false;
        if t.pending_ack > 0 && alive t then
          Sim.spawn (sim t) ~name:"tcp-delack" (fun () -> send_pure_ack t))
  end

(* --- sender fiber ---------------------------------------------------- *)

let seg_flags_for_data t =
  (* FIN is carried separately; data segments always ack. *)
  ignore t;
  Segment.flag ~ack:true ()

let send_data_segment t ~probe =
  let offset = in_flight t in
  let window_room = max 0 (send_window t - offset) in
  let len =
    if probe then min 1 (unsent_bytes t)
    else min (min Segment.mss (unsent_bytes t)) window_room
  in
  if len > 0 then begin
    let data = Bytebuf.peek t.snd_buf ~off:offset ~len in
    let seq = t.snd_nxt in
    t.snd_nxt <- t.snd_nxt + len;
    t.snd_max <- max t.snd_max t.snd_nxt;
    emit t ~data ~flags:(seg_flags_for_data t) ~seq ();
    true
  end
  else false

let send_fin_segment t =
  let seq = t.snd_nxt in
  t.snd_nxt <- t.snd_nxt + 1;
  t.snd_max <- max t.snd_max t.snd_nxt;
  t.fin_sent <- true;
  (match t.state with
  | Established -> set_state t Fin_wait_1
  | Close_wait -> set_state t Last_ack
  | _ -> ());
  emit t ~flags:(Segment.flag ~ack:true ~fin:true ()) ~seq ()

let can_send_data t =
  (match t.state with
  | Established | Close_wait | Fin_wait_1 | Closing | Last_ack -> true
  | Syn_sent | Syn_rcvd | Fin_wait_2 | Time_wait | Closed_st -> false)
  && unsent_bytes t > 0
  && in_flight t < send_window t

let can_send_fin t =
  t.fin_pending && not t.fin_sent && unsent_bytes t = 0
  && match t.state with Established | Close_wait -> true | _ -> false

let rewind t =
  if in_flight t > 0 then begin
    Stats.Counter.incr t.env.h_retransmits;
    on_loss t;
    (* Go-back-N: resend from the cumulative ack point. FIN, if it was
       sent, will be re-emitted after the data. *)
    if t.fin_sent && t.snd_nxt = t.snd_una + Bytebuf.available t.snd_buf + 1
    then t.fin_sent <- false;
    t.snd_nxt <- t.snd_una;
    t.rto <- min (2 * t.rto) (Time.ms 200)
  end

(* Retransmission gave up: drop all state and surface a typed reset to
   the application. Real TCP sends nothing here (the path is presumed
   dead); peers discover via their own timers. *)
let abort t =
  if not t.aborted then begin
    t.aborted <- true;
    Stats.Counter.incr t.env.h_aborts;
    set_state t Closed_st;
    wake_all t
  end

let sender_fiber t () =
  let rec loop () =
    if t.state = Closed_st || t.rst_rcvd then ()
    else if t.state = Syn_sent then begin
      (* SYN retransmission is driven by the connect() caller. *)
      Cond.wait t.send_c;
      loop ()
    end
    else if t.state = Syn_rcvd then begin
      (* Retransmit SYN|ACK until the handshake completes — or the
         tcp_synack_retries budget runs out and the half-open connection
         is quietly dropped (the peer may be long gone). *)
      (match Cond.wait_timeout t.send_c t.rto with
      | `Ok -> ()
      | `Timeout ->
        if t.state = Syn_rcvd then begin
          t.synack_tries <- t.synack_tries + 1;
          if t.synack_tries > Config.synack_retries then set_state t Closed_st
          else begin
            (* Back off like the data path: at a flat min_rto the whole
               budget is a few ms, and a handshake ACK queued behind a
               request burst is enough to orphan the client. *)
            t.rto <- min (2 * t.rto) (Time.ms 200);
            emit t ~flags:(Segment.flag ~syn:true ~ack:true ()) ~seq:0 ()
          end
        end);
      loop ()
    end
    else if can_send_data t then begin
      ignore (send_data_segment t ~probe:false);
      loop ()
    end
    else if can_send_fin t then begin
      send_fin_segment t;
      loop ()
    end
    else if in_flight t > 0 then begin
      (* Await ack progress; on a silent RTO, go-back-N. *)
      let una = t.snd_una in
      (match Cond.wait_timeout t.send_c t.rto with
      | `Ok -> ()
      | `Timeout ->
        if t.snd_una = una && in_flight t > 0 then begin
          let now = Sim.now (sim t) in
          if t.dead_since < 0 then t.dead_since <- now;
          if now - t.dead_since >= Config.dead_rto_abort then abort t
          else rewind t
        end);
      loop ()
    end
    else if unsent_bytes t > 0 && t.snd_wnd = 0 then begin
      (* Zero-window persist probe. *)
      match Cond.wait_timeout t.send_c Config.persist_interval with
      | `Ok -> loop ()
      | `Timeout ->
        if t.snd_wnd = 0 && unsent_bytes t > 0 then
          ignore (send_data_segment t ~probe:true);
        loop ()
    end
    else begin
      Cond.wait t.send_c;
      loop ()
    end
  in
  loop ()

(* --- input processing (runs in the interrupt dispatcher fiber) ------- *)

let ooo_insert t seq data =
  if List.length t.ooo < 64 then begin
    let entry = (seq, data) in
    t.ooo <-
      List.sort (fun (a, _) (b, _) -> compare a b) (entry :: t.ooo)
  end

let rec drain_ooo t =
  match t.ooo with
  | (seq, data) :: rest when seq <= t.rcv_nxt ->
    t.ooo <- rest;
    let skip = t.rcv_nxt - seq in
    if skip < String.length data then begin
      let fresh = String.sub data skip (String.length data - skip) in
      let accepted = Bytebuf.write t.rcv_buf fresh ~off:0 ~len:(String.length fresh) in
      t.rcv_nxt <- t.rcv_nxt + accepted
    end;
    drain_ooo t
  | _ -> ()

let process_ack t (seg : Segment.tcp_segment) =
  if seg.flags.Segment.ack then begin
    let new_una = seg.ack_no in
    if new_una > t.snd_una && new_una <= t.snd_max then begin
      let delta = new_una - t.snd_una in
      let data_bytes = min delta (Bytebuf.available t.snd_buf) in
      Bytebuf.drop t.snd_buf data_bytes;
      t.snd_una <- new_una;
      (* An ack can cover data sent before a rewind: skip retransmitting
         what the receiver already has. *)
      if t.snd_nxt < new_una then t.snd_nxt <- new_una;
      t.dup_acks <- 0;
      t.dead_since <- -1;
      t.rto <- Config.min_rto;
      on_ack_progress t ~data_bytes;
      Cond.broadcast t.writable_c;
      Cond.broadcast t.send_c;
      (* FIN acknowledged? *)
      if t.fin_sent && t.snd_una = t.snd_nxt then begin
        match t.state with
        | Fin_wait_1 -> set_state t Fin_wait_2
        | Closing -> enter_time_wait t
        | Last_ack -> set_state t Closed_st
        | _ -> ()
      end
    end
    else if
      new_una = t.snd_una && in_flight t > 0 && String.length seg.data = 0
    then begin
      t.dup_acks <- t.dup_acks + 1;
      if t.dup_acks = 3 then begin
        (* Fast retransmit. *)
        t.dup_acks <- 0;
        rewind t;
        t.rto <- Config.min_rto;
        Cond.broadcast t.send_c
      end
    end;
    (* Window update (also on pure acks). *)
    if seg.wnd <> t.snd_wnd then begin
      t.snd_wnd <- seg.wnd;
      Cond.broadcast t.send_c
    end
  end

let process_data t (seg : Segment.tcp_segment) =
  let len = String.length seg.data in
  if len > 0 then begin
    if seg.seq = t.rcv_nxt then begin
      let accepted = Bytebuf.write t.rcv_buf seg.data ~off:0 ~len in
      t.rcv_nxt <- t.rcv_nxt + accepted;
      drain_ooo t;
      t.pending_ack <- t.pending_ack + 1;
      Cond.broadcast t.readable_c;
      t.env.notify ();
      fire_watchers t;
      if t.pending_ack >= Config.ack_every then send_pure_ack t
      else maybe_arm_delack t
    end
    else if seg.seq > t.rcv_nxt then begin
      ooo_insert t seg.seq seg.data;
      (* Duplicate ack to trigger fast retransmit. *)
      send_pure_ack t
    end
    else
      (* Entirely old segment: re-ack. *)
      send_pure_ack t
  end

let process_fin t (seg : Segment.tcp_segment) =
  if seg.flags.Segment.fin then begin
    let fin_seq = seg.seq + String.length seg.data in
    if fin_seq = t.rcv_nxt then begin
      t.rcv_nxt <- t.rcv_nxt + 1;
      t.fin_rcvd <- true;
      Cond.broadcast t.readable_c;
      t.env.notify ();
      fire_watchers t;
      (match t.state with
      | Established -> set_state t Close_wait
      | Fin_wait_1 ->
        if t.fin_sent && t.snd_una = t.snd_nxt then enter_time_wait t
        else set_state t Closing
      | Fin_wait_2 -> enter_time_wait t
      | _ -> ());
      send_pure_ack t
    end
    else if fin_seq < t.rcv_nxt then send_pure_ack t
  end

let input t (seg : Segment.tcp_segment) =
  if seg.flags.Segment.rst then begin
    t.rst_rcvd <- true;
    set_state t Closed_st;
    wake_all t
  end
  else begin
    (match t.state with
    | Syn_sent ->
      if seg.flags.Segment.syn && seg.flags.Segment.ack && seg.ack_no = 1
      then begin
        t.rcv_nxt <- seg.seq + 1;
        t.snd_una <- 1;
        set_state t Established;
        send_pure_ack t
      end
    | Syn_rcvd ->
      if seg.flags.Segment.syn then
        (* Retransmitted SYN: our SYN|ACK was lost; resend. *)
        emit t ~flags:(Segment.flag ~syn:true ~ack:true ()) ~seq:0 ()
      else if seg.flags.Segment.ack && seg.ack_no >= 1 then begin
        t.snd_una <- max t.snd_una 1;
        set_state t Established;
        process_ack t seg;
        process_data t seg;
        process_fin t seg
      end
    | Established | Fin_wait_1 | Fin_wait_2 | Close_wait | Closing | Last_ack
      ->
      if seg.flags.Segment.syn then ()
      else begin
        process_ack t seg;
        process_data t seg;
        process_fin t seg
      end
    | Time_wait ->
      (* Peer retransmitted its FIN: re-ack it. *)
      if seg.flags.Segment.fin then send_pure_ack t
    | Closed_st -> ());
    ()
  end

(* --- app-side operations -------------------------------------------- *)

exception App_closed = Uls_api.Sockets_api.Connection_closed

let syscall t =
  Stats.Counter.incr t.env.h_syscalls;
  Os.syscall (Node.os t.env.node)

let charge_wakeup t = Sim.delay (sim t) (model t).Cost_model.sched_wakeup

let app_send t data =
  syscall t;
  if t.app_closed then raise App_closed;
  let len = String.length data in
  let m = model t in
  let rec push off =
    if off < len then begin
      if t.aborted then raise Uls_api.Sockets_api.Connection_reset;
      if t.rst_rcvd || t.state = Closed_st || t.app_closed then raise App_closed;
      let space = Bytebuf.free_space t.snd_buf in
      if space = 0 then begin
        Cond.wait t.writable_c;
        charge_wakeup t;
        push off
      end
      else begin
        let n = Bytebuf.write t.snd_buf data ~off ~len:(len - off) in
        (* user -> kernel copy *)
        Resource.use t.env.cpu (Cost_model.copy_cost m n);
        Cond.broadcast t.send_c;
        push (off + n)
      end
    end
  in
  if Trace.enabled t.env.trace then
    Trace.span t.env.trace ~layer:Trace.Tcpip ~node:(Node.id t.env.node)
      "tcp.send"
      ~args:[ ("len", string_of_int len) ]
      (fun () -> push 0)
  else push 0

let maybe_window_update t =
  let wnd = advertised_window t in
  let opened = wnd - t.last_advertised in
  if
    opened >= 2 * Segment.mss
    || (opened > 0 && wnd >= Bytebuf.capacity t.rcv_buf / 2 && t.last_advertised < 2 * Segment.mss)
  then send_pure_ack t

let app_recv t n =
  syscall t;
  let m = model t in
  let rec pull () =
    let avail = Bytebuf.available t.rcv_buf in
    if avail > 0 then begin
      let s = Bytebuf.read t.rcv_buf (min n avail) in
      (* kernel -> user copy *)
      Resource.use t.env.cpu (Cost_model.copy_cost m (String.length s));
      maybe_window_update t;
      s
    end
    else if t.aborted then raise Uls_api.Sockets_api.Connection_reset
    else if t.fin_rcvd || t.rst_rcvd || t.state = Closed_st then ""
    else begin
      Cond.wait t.readable_c;
      charge_wakeup t;
      pull ()
    end
  in
  if n <= 0 then ""
  else if Trace.enabled t.env.trace then
    Trace.span t.env.trace ~layer:Trace.Tcpip ~node:(Node.id t.env.node)
      "tcp.recv" pull
  else pull ()

let app_readable t =
  Bytebuf.available t.rcv_buf > 0 || t.fin_rcvd || t.rst_rcvd
  || t.state = Closed_st

let app_close t =
  if not t.app_closed then begin
    t.app_closed <- true;
    syscall t;
    match t.state with
    | Syn_sent | Syn_rcvd ->
      set_state t Closed_st
    | Established | Close_wait ->
      t.fin_pending <- true;
      Cond.broadcast t.send_c
    | Fin_wait_1 | Fin_wait_2 | Closing | Last_ack | Time_wait | Closed_st ->
      ()
  end

(* --- construction ---------------------------------------------------- *)

let make env ~local ~remote ~state =
  let cfg = env.config in
  let t =
    {
      env;
      local;
      remote;
      state;
      snd_buf = Bytebuf.create ~capacity:cfg.Config.sndbuf;
      snd_una = 0;
      snd_nxt = 1;
      snd_max = 1;
      snd_wnd = cfg.Config.rcvbuf;
      fin_pending = false;
      fin_sent = false;
      dup_acks = 0;
      cwnd = Config.initial_cwnd_segments * Segment.mss;
      ssthresh = max_int / 4;
      rto = Config.min_rto;
      dead_since = -1;
      synack_tries = 0;
      aborted = false;
      rcv_buf = Bytebuf.create ~capacity:cfg.Config.rcvbuf;
      rcv_nxt = 0;
      ooo = [];
      fin_rcvd = false;
      rst_rcvd = false;
      pending_ack = 0;
      delack_armed = false;
      last_advertised = cfg.Config.rcvbuf;
      app_closed = false;
      on_established = None;
      watchers = [];
      readable_c = Cond.create ~label:"tcp:readable" (Node.sim env.node);
      writable_c = Cond.create ~label:"tcp:writable" (Node.sim env.node);
      state_c = Cond.create ~label:"tcp:state" (Node.sim env.node);
      send_c = Cond.create ~label:"tcp:send" (Node.sim env.node);
    }
  in
  Sim.spawn (Node.sim env.node) ~name:"tcp-sender" ~daemon:true (sender_fiber t);
  t

(* Client side: create in SYN_SENT and transmit the SYN. *)
let connect env ~local ~remote =
  let t = make env ~local ~remote ~state:Syn_sent in
  emit t ~flags:(Segment.flag ~syn:true ()) ~seq:0 ();
  t

(* Server side: triggered by an incoming SYN. *)
let accept_syn env ~local ~remote (syn : Segment.tcp_segment) =
  let t = make env ~local ~remote ~state:Syn_rcvd in
  t.rcv_nxt <- syn.Segment.seq + 1;
  t.snd_wnd <- syn.Segment.wnd;
  emit t ~flags:(Segment.flag ~syn:true ~ack:true ()) ~seq:0 ();
  t

let resend_syn t =
  if t.state = Syn_sent then emit t ~flags:(Segment.flag ~syn:true ()) ~seq:0 ()

let set_on_established t f = t.on_established <- Some f
let state_cond t = t.state_c
