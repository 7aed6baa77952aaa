(** Per-node kernel: TCP/UDP demultiplexing, listener backlog queues,
    ephemeral ports, RST generation, UDP sockets, and the blocking
    socket system calls used by the {!Tcp_stack} API. *)

open Uls_engine
open Uls_host

type addr = Uls_api.Sockets_api.addr

type listener = {
  l_port : int;
  l_backlog : int;
  accept_q : Tcp_conn.t Queue.t;
  mutable l_pending : int; (* embryonic (SYN_RCVD) connections *)
  accept_c : Cond.t;
  mutable l_watchers : (unit -> unit) list;
      (* accept-readiness watchers: fired when a connection reaches the
         accept queue and when the listener closes (event-engine path) *)
  mutable l_closed : bool;
}

type udp_sock = {
  u_port : int;
  u_queue : (addr * string) Queue.t;
  mutable u_queued_bytes : int;
  u_capacity : int;
  u_cond : Cond.t;
  mutable u_closed : bool;
}

type handles = {
  h_syscalls : Stats.Counter.t;
  h_tx_segments : Stats.Counter.t;
  h_rsts_sent : Stats.Counter.t;
  h_syn_backlog_drops : Stats.Counter.t;
  h_rx_segments : Stats.Counter.t;
  h_udp_rx_datagrams : Stats.Counter.t;
  h_tcp_retransmits : Stats.Counter.t;
  h_tcp_aborts : Stats.Counter.t;
}

type t = {
  node : Node.t;
  cpu : Resource.t;
  config : Config.t;
  ip : Ip.t;
  metrics : Metrics.t;
  mh : handles;
  trace : Trace.t;
  conns : (int * int * int, Tcp_conn.t) Hashtbl.t;
  listeners : (int, listener) Hashtbl.t;
  udp_socks : (int, udp_sock) Hashtbl.t;
  activity : Cond.t;
  mutable next_port : int;
}

let sim t = Node.sim t.node
let model t = Node.model t.node
let node_id t = Node.id t.node
let activity t = t.activity
let cpu t = t.cpu
let ip t = t.ip
let metrics t = t.metrics

let conn_key ~local_port ~remote:(r : addr) = (local_port, r.node, r.port)

(* Every blocking socket call crosses into the kernel; count the
   crossings per node — the per-byte contrast with the user-level
   substrate is the paper's central claim. *)
let syscall t name =
  Stats.Counter.incr t.mh.h_syscalls;
  if Trace.enabled t.trace then
    Trace.instant t.trace ~layer:Trace.Tcpip ~node:(node_id t) "os.syscall"
      ~args:[ ("call", name) ];
  Os.syscall (Node.os t.node)

let env_of t =
  {
    Tcp_conn.node = t.node;
    cpu = t.cpu;
    config = t.config;
    ip_send =
      (fun ~dst seg ->
        Stats.Counter.incr t.mh.h_tx_segments;
        Ip.send t.ip ~dst (Segment.Tcp seg));
    unregister =
      (fun c ->
        let key =
          conn_key ~local_port:(Tcp_conn.local c).port ~remote:(Tcp_conn.remote c)
        in
        (match Hashtbl.find_opt t.conns key with
        | Some c' when c' == c -> Hashtbl.remove t.conns key
        | _ -> ()));
    notify = (fun () -> Cond.broadcast t.activity);
    h_retransmits = t.mh.h_tcp_retransmits;
    h_aborts = t.mh.h_tcp_aborts;
    h_syscalls = t.mh.h_syscalls;
  }

let send_rst t ~dst (seg : Segment.tcp_segment) =
  Stats.Counter.incr t.mh.h_rsts_sent;
  let rst =
    {
      Segment.src_port = seg.Segment.dst_port;
      dst_port = seg.Segment.src_port;
      seq = seg.Segment.ack_no;
      ack_no = seg.Segment.seq + 1;
      flags = Segment.flag ~rst:true ~ack:true ();
      wnd = 0;
      data = "";
    }
  in
  Ip.send t.ip ~dst (Segment.Tcp rst)

let handle_syn t ~src (seg : Segment.tcp_segment) =
  match Hashtbl.find_opt t.listeners seg.Segment.dst_port with
  | Some l
    when (not l.l_closed) && Queue.length l.accept_q + l.l_pending < l.l_backlog
    ->
    let local = { Uls_api.Sockets_api.node = node_id t; port = seg.Segment.dst_port } in
    let remote = { Uls_api.Sockets_api.node = src; port = seg.Segment.src_port } in
    let c = Tcp_conn.accept_syn (env_of t) ~local ~remote seg in
    l.l_pending <- l.l_pending + 1;
    Tcp_conn.set_on_established c (fun c ->
        l.l_pending <- l.l_pending - 1;
        if l.l_closed then Tcp_conn.app_close c
        else begin
          Queue.push c l.accept_q;
          Cond.signal l.accept_c;
          Cond.broadcast t.activity;
          List.iter (fun f -> f ()) l.l_watchers
        end);
    Hashtbl.replace t.conns
      (conn_key ~local_port:seg.Segment.dst_port ~remote)
      c
  | Some _ ->
    (* Backlog full: drop the SYN; the client retries. The counter is
       the accept-path pressure signal the --metrics dump surfaces. *)
    Stats.Counter.incr t.mh.h_syn_backlog_drops
  | None -> send_rst t ~dst:src seg

let tcp_input t ~src (seg : Segment.tcp_segment) =
  Stats.Counter.incr t.mh.h_rx_segments;
  if Trace.enabled t.trace then
    Trace.instant t.trace ~layer:Trace.Tcpip ~node:(node_id t)
      ~seq:seg.Segment.seq "tcp.rx_segment"
      ~args:[ ("src", string_of_int src);
              ("bytes", string_of_int (String.length seg.Segment.data)) ];
  Resource.use t.cpu (model t).Cost_model.tcp_rx_per_segment;
  let key = (seg.Segment.dst_port, src, seg.Segment.src_port) in
  match Hashtbl.find_opt t.conns key with
  | Some c -> Tcp_conn.input c seg
  | None ->
    if seg.Segment.flags.Segment.syn && not seg.Segment.flags.Segment.ack then
      handle_syn t ~src seg
    else if not seg.Segment.flags.Segment.rst then send_rst t ~dst:src seg

let udp_input t ~src (d : Segment.udp_datagram) =
  Stats.Counter.incr t.mh.h_udp_rx_datagrams;
  Resource.use t.cpu (model t).Cost_model.tcp_rx_per_segment;
  match Hashtbl.find_opt t.udp_socks d.Segment.u_dst_port with
  | None -> () (* no ICMP in this model *)
  | Some s ->
    let len = String.length d.Segment.u_data in
    (* A closed socket or a full receive queue drops the datagram. *)
    if s.u_closed || s.u_queued_bytes + len > s.u_capacity then ()
    else begin
      let from = { Uls_api.Sockets_api.node = src; port = d.Segment.u_src_port } in
      Queue.push (from, d.Segment.u_data) s.u_queue;
      s.u_queued_bytes <- s.u_queued_bytes + len;
      Cond.signal s.u_cond;
      Cond.broadcast t.activity
    end

let create node nic ~config =
  let cpu = Resource.create (Node.sim node) ~name:(Printf.sprintf "kcpu-%d" (Node.id node)) in
  let metrics = Metrics.for_sim (Node.sim node) in
  let counter name = Metrics.counter metrics ~node:(Node.id node) name in
  let ip = Ip.create node nic ~cpu ~config in
  let t =
    {
      node;
      cpu;
      config;
      ip;
      metrics;
      mh =
        {
          h_syscalls = counter "os.syscalls";
          h_tx_segments = counter "tcp.tx_segments";
          h_rsts_sent = counter "tcp.rsts_sent";
          h_syn_backlog_drops = counter "tcp.syn_backlog_drops";
          h_rx_segments = counter "tcp.rx_segments";
          h_udp_rx_datagrams = counter "udp.rx_datagrams";
          h_tcp_retransmits = counter "tcp.retransmits";
          h_tcp_aborts = counter "tcp.aborts";
        };
      trace = Trace.for_sim (Node.sim node);
      conns = Hashtbl.create 64;
      listeners = Hashtbl.create 16;
      udp_socks = Hashtbl.create 16;
      activity =
        Cond.create
          ~label:(Printf.sprintf "tcp:%d activity" (Node.id node))
          (Node.sim node);
      next_port = 32_768;
    }
  in
  Ip.set_handler ip (fun ~src payload ->
      match payload with
      | Segment.Tcp seg -> tcp_input t ~src seg
      | Segment.Udp d -> udp_input t ~src d);
  t

let alloc_port t =
  t.next_port <- t.next_port + 1;
  t.next_port

(* --- TCP socket calls ------------------------------------------------ *)

exception Refused = Uls_api.Sockets_api.Connection_refused

let listen t ~port ~backlog =
  syscall t "listen";
  if Hashtbl.mem t.listeners port then
    raise (Uls_api.Sockets_api.Bind_in_use { node = node_id t; port });
  let l =
    {
      l_port = port;
      l_backlog = max 1 backlog;
      accept_q = Queue.create ();
      l_pending = 0;
      accept_c =
        Cond.create
          ~label:(Printf.sprintf "tcp:%d accept:%d" (node_id t) port)
          (sim t);
      l_watchers = [];
      l_closed = false;
    }
  in
  Hashtbl.replace t.listeners port l;
  l

let accept t l =
  syscall t "accept";
  let rec wait () =
    match Queue.take_opt l.accept_q with
    | Some c -> c
    | None ->
      if l.l_closed then raise Uls_api.Sockets_api.Connection_closed;
      Cond.wait l.accept_c;
      Sim.delay (sim t) (model t).Cost_model.sched_wakeup;
      wait ()
  in
  let c = wait () in
  Resource.use t.cpu (model t).Cost_model.tcp_connect_kernel;
  c

let acceptable l = not (Queue.is_empty l.accept_q)
let listener_pending l = Queue.length l.accept_q
let add_accept_watcher l f = l.l_watchers <- f :: l.l_watchers

let close_listener t l =
  if not l.l_closed then begin
    l.l_closed <- true;
    Hashtbl.remove t.listeners l.l_port;
    Cond.broadcast l.accept_c;
    (* Anything already accepted-but-unclaimed gets closed. *)
    Queue.iter Tcp_conn.app_close l.accept_q;
    Queue.clear l.accept_q;
    List.iter (fun f -> f ()) l.l_watchers
  end

let connect t (remote : addr) =
  syscall t "connect";
  Resource.use t.cpu (model t).Cost_model.tcp_connect_kernel;
  let local = { Uls_api.Sockets_api.node = node_id t; port = alloc_port t } in
  let c = Tcp_conn.connect (env_of t) ~local ~remote in
  Hashtbl.replace t.conns (conn_key ~local_port:local.port ~remote) c;
  let rec await tries =
    match Tcp_conn.state c with
    | Tcp_conn.Established | Tcp_conn.Close_wait -> ()
    | Tcp_conn.Closed_st -> raise (Refused remote)
    | _ ->
      if tries > 6 then raise (Refused remote);
      (match Cond.wait_timeout (Tcp_conn.state_cond c) t.config.Config.min_rto with
      | `Ok -> ()
      | `Timeout -> Tcp_conn.resend_syn c);
      await (tries + 1)
  in
  await 0;
  Sim.delay (sim t) (model t).Cost_model.sched_wakeup;
  c

(* --- UDP socket calls ------------------------------------------------ *)

let udp_bind t ~port =
  syscall t "bind";
  if Hashtbl.mem t.udp_socks port then
    raise (Uls_api.Sockets_api.Bind_in_use { node = node_id t; port });
  let s =
    {
      u_port = port;
      u_queue = Queue.create ();
      u_queued_bytes = 0;
      u_capacity = t.config.Config.rcvbuf;
      u_cond =
        Cond.create
          ~label:(Printf.sprintf "udp:%d port:%d" (node_id t) port)
          (sim t);
      u_closed = false;
    }
  in
  Hashtbl.replace t.udp_socks port s;
  s

let udp_sendto t s ~(dst : addr) data =
  syscall t "sendto";
  let m = model t in
  Resource.use t.cpu (Cost_model.copy_cost m (String.length data));
  Resource.use t.cpu m.Cost_model.tcp_tx_per_segment;
  Ip.send t.ip ~dst:dst.node
    (Segment.Udp
       { u_src_port = s.u_port; u_dst_port = dst.port; u_data = data })

let udp_recvfrom t s =
  syscall t "recvfrom";
  let m = model t in
  let rec wait () =
    match Queue.take_opt s.u_queue with
    | Some (from, data) ->
      s.u_queued_bytes <- s.u_queued_bytes - String.length data;
      Resource.use t.cpu (Cost_model.copy_cost m (String.length data));
      (from, data)
    | None ->
      if s.u_closed then raise Uls_api.Sockets_api.Connection_closed;
      Cond.wait s.u_cond;
      Sim.delay (sim t) m.Cost_model.sched_wakeup;
      wait ()
  in
  wait ()
