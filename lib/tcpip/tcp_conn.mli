(** One TCP connection: state machine, socket buffers, sender fiber with
    go-back-N retransmission, delayed acks, window updates, persist
    probes, and the blocking app-side operations with their syscall /
    copy / scheduler-wakeup costs. *)

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

type t

type env = {
  node : Uls_host.Node.t;
  cpu : Uls_engine.Resource.t;
  config : Config.t;
  ip_send : dst:int -> Segment.tcp_segment -> unit;
  unregister : t -> unit;  (** drop from the kernel's connection table *)
  notify : unit -> unit;  (** select() activity hook *)
  trace : Uls_engine.Trace.t;  (** the node's trace, resolved once *)
  h_retransmits : Uls_engine.Stats.Counter.t;
      (** node-wide metric handles, resolved once by the kernel *)
  h_aborts : Uls_engine.Stats.Counter.t;
  h_syscalls : Uls_engine.Stats.Counter.t;
}

val connect : env -> local:Uls_api.Sockets_api.addr -> remote:Uls_api.Sockets_api.addr -> t
(** Client side: create in SYN_SENT and transmit the SYN. *)

val accept_syn :
  env ->
  local:Uls_api.Sockets_api.addr ->
  remote:Uls_api.Sockets_api.addr ->
  Segment.tcp_segment ->
  t
(** Server side: triggered by an incoming SYN; replies SYN|ACK. *)

val resend_syn : t -> unit
(** No-op outside SYN_SENT (the connect() caller drives SYN
    retransmission). *)

val local : t -> Uls_api.Sockets_api.addr
val remote : t -> Uls_api.Sockets_api.addr
val state : t -> state

val state_cond : t -> Uls_engine.Cond.t
(** Broadcast on every state change (connect's handshake wait parks on
    it). *)

val set_on_established : t -> (t -> unit) -> unit
(** One-shot callback fired when the connection reaches ESTABLISHED (the
    kernel's accept path queues the connection from it). *)

val input : t -> Segment.tcp_segment -> unit
(** Process an incoming segment (runs in the interrupt dispatcher
    fiber). *)

val add_watcher : t -> (unit -> unit) -> unit
(** Per-connection readiness watcher (the event engine's O(ready)
    notification path, vs the node-wide activity broadcast). *)

(** {2 Blocking app-side operations} *)

val app_send : t -> string -> unit
val app_recv : t -> int -> string
val app_readable : t -> bool
val app_close : t -> unit
