(** The EMP substrate (the paper's contribution): a per-node user-level
    library mapping the sockets interface onto EMP (Figure 5).

    Connection management uses the data-message-exchange scheme of §5.1:
    [listen] pre-posts [backlog] connection-request descriptors on the
    port's tag, [connect] sends an explicit request message carrying the
    client's identity and waits for the reply; NIC-level tag matching
    separates connection traffic from data. An active-socket table tracks
    every open connection so close reclaims all NIC descriptors (§5.3).

    Most users go through {!api}, which packages substrate instances as a
    stack-agnostic {!Uls_api.Sockets_api.stack}. *)

type t
type listener
type request

val create : ?opts:Options.t -> Uls_host.Node.t -> Uls_emp.Endpoint.t -> t
(** One substrate instance per node. With the unexpected-queue option on,
    this provisions EMP UQ slots for credit-ack traffic (§6.4).
    @raise Invalid_argument if the endpoint's firmware is not the one
    [opts] names ({!Options.firmware}): a substrate never mixes modes. *)

val active_connections : t -> int
(** Size of the active-socket table (§5.3). *)

val conn_ids : t -> int list
(** Ids of every open connection, sorted — the schedule explorer hashes this
    connection table into its final-state fingerprint. *)

val conns : t -> Conn.t list
(** The open connections themselves, sorted by id (the leak sanitizer
    walks them). *)

val send_pools : t -> Sendpool.t list
(** Every send pool this substrate owns that can hold an in-flight send:
    the control pool, each open connection's data pool, and the data
    pools of released connections whose sends have not all completed
    (the leak sanitizer scans them). A closed connection's pool is
    dropped once it drains, so nothing outlives its last send. *)

val listen : t -> port:int -> backlog:int -> listener
(** Pre-posts [backlog] connection-request descriptors. Ports are 12-bit
    (tag-encoded). @raise Uls_api.Sockets_api.Bind_in_use *)

val accept : t -> listener -> Conn.t * Uls_api.Sockets_api.addr
(** Block for the next queued request, build the connection (posting its
    2N+3 descriptors), reply to the client. *)

val close_listener : t -> listener -> unit

val connect : t -> Uls_api.Sockets_api.addr -> Conn.t
(** Send the connection request and wait for the server's reply,
    resending with exponential backoff up to
    [Options.connect_attempts] times (the request or its reply can be
    lost on the wire). The server deduplicates retried requests against
    its accepted table, so a lost reply never yields two connections.
    @raise Uls_api.Sockets_api.Connection_refused when the server
    explicitly declines (no listener on the port — detected by the
    server's unexpected-queue refusal scanner when the UQ option is on).
    @raise Uls_api.Sockets_api.Connection_timeout when every attempt
    went unanswered; on either failure the half-built connection is torn
    down and removed from the active-socket table. *)

val api : t array -> Uls_api.Sockets_api.stack
(** Package one substrate per node as a sockets stack (the array index is
    the node id). *)
