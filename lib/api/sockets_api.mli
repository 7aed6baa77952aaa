(** The stack-agnostic sockets interface.

    Applications (ftp, web server, matrix multiplication, the examples)
    are written once against {!stack} and run unchanged over the kernel
    TCP implementation or over the EMP substrate — the OCaml rendering of
    the paper's claim that existing sockets applications need no changes.

    Semantics follow BSD sockets: [connect]/[accept] yield a full-duplex
    connection; [send] blocks for flow control and delivers every byte;
    [recv] blocks for at least one byte and returns [""] at end of
    stream. Stacks in {e data-streaming} mode give TCP byte-stream
    semantics (reads may split/merge message boundaries); stacks in
    {e datagram} mode (paper §6.2) preserve message boundaries: each
    [recv] returns exactly one message, truncated to the requested
    length. *)

type addr = {
  node : int;
  port : int;
}

exception Connection_refused of addr
(** The remote end answered and explicitly declined (no listener on the
    port). Not retryable. *)

exception Connection_timeout of addr
(** No reply within the configured attempts — the request or its reply
    may have been lost. Retryable. *)

exception Connection_closed

exception Connection_reset
(** The transport gave up delivering to the peer (every retransmission
    round exhausted): the connection is dead, in-flight data is lost. *)

exception Bind_in_use of addr

type stream = {
  send : string -> unit;  (** blocking; delivers the whole string *)
  recv : int -> string;  (** blocking; 1..n bytes, [""] = end of stream *)
  close : unit -> unit;
  readable : unit -> bool;  (** data available: [recv] would not block *)
  watch : (unit -> unit) -> unit;
      (** Register a readiness watcher: the callback fires (from the
          stack's internal fibers) every time the stream {e may} have
          become readable — data arrival, end of stream, reset. Spurious
          invocations are allowed; watchers persist for the life of the
          stream and cannot be unregistered (wrap the callback if it must
          be disarmed). This is the per-connection notification path the
          event engine ({!Uls_server.Evq}) builds its O(ready) wakeups
          on, in contrast to the O(registered) scan of {!stack.select}. *)
  peer : unit -> addr;
  local : unit -> addr;
}

type listener = {
  accept : unit -> stream * addr;  (** blocking *)
  try_accept : unit -> (stream * addr) option;
      (** Non-blocking accept: [None] when nothing fresh is queued.
          Stacks resolve protocol-level duplicates (e.g. a retried
          connect whose reply was lost) internally, so — unlike guarding
          a blocking [accept] with [acceptable] — this never blocks. An
          event-driven accept loop must drain with this. *)
  acceptable : unit -> bool;  (** a connection is waiting *)
  watch_accept : (unit -> unit) -> unit;
      (** Readiness watcher for the accept queue: fires whenever a new
          connection is queued (and when the listener closes), with the
          same spurious-call contract as {!stream.watch}. This makes
          listener readiness reachable from the portable API, so a
          server can multiplex accept with stream I/O in one event
          engine instead of dedicating a fiber to [accept]. *)
  pending : unit -> int;
      (** Connections queued and waiting to be accepted (the backlog
          occupancy a server's accept-path gauge reports). *)
  close_listener : unit -> unit;
}

type stack = {
  stack_name : string;
  listen : node:int -> port:int -> backlog:int -> listener;
  connect : node:int -> addr -> stream;  (** blocking until established *)
  select : node:int -> stream list -> stream list;
  (** Block until at least one stream of the set is readable or closed;
      returns the ready subset (the paper's matmul server uses this). *)
}

val select :
  nodes:int ->
  activity:(int -> Uls_engine.Cond.t) ->
  metrics:(int -> Uls_engine.Metrics.t) ->
  node:int ->
  stream list ->
  stream list
(** [select ~nodes ~activity ~metrics] is a stack's {!stack.select}
    over nodes [0 .. nodes - 1]: scan the set for readable streams and,
    while none is, park on the node's [activity] condition (which the
    stack broadcasts on any change) and scan again. Each scan counts in
    the node's ["api.select_scans"] and ["api.select_streams_scanned"]
    counters of [metrics node]; a node's condition and counters are
    resolved at its first select and reused. *)

val pp_addr : Format.formatter -> addr -> unit

val recv_exact : stream -> int -> string
(** Loop [recv] until exactly [n] bytes arrive.
    @raise Connection_closed on premature end of stream. *)
