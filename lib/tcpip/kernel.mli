(** Per-node kernel of the baseline stack: TCP/UDP demultiplexing,
    listener backlog queues, ephemeral ports, RST generation, and the
    blocking socket system calls. One instance per simulated host;
    everything it does is charged to the node's kernel-CPU resource. *)

type t
type listener
type udp_sock

val create : Uls_host.Node.t -> Uls_nic.Tigon.t -> config:Config.t -> t

val cpu : t -> Uls_engine.Resource.t
(** The kernel execution resource: interrupts, protocol processing and
    copies all serialise here (its busy time is the host-CPU cost the
    paper's NIC-driven design avoids). *)

val ip : t -> Ip.t
val metrics : t -> Uls_engine.Metrics.t
val activity : t -> Uls_engine.Cond.t
(** Broadcast on any socket readiness change; select() blocks on it. *)

(** {1 TCP socket calls} (blocking; call from fibers) *)

val listen : t -> port:int -> backlog:int -> listener
(** @raise Uls_api.Sockets_api.Bind_in_use *)

val accept : t -> listener -> Tcp_conn.t
val acceptable : listener -> bool

val listener_pending : listener -> int
(** Established connections queued for [accept] (backlog occupancy). *)

val add_accept_watcher : listener -> (unit -> unit) -> unit
(** Register an accept-readiness watcher: fired when a connection
    reaches the accept queue and when the listener closes. *)

val close_listener : t -> listener -> unit

val connect : t -> Uls_api.Sockets_api.addr -> Tcp_conn.t
(** Three-way handshake with SYN retransmission.
    @raise Uls_api.Sockets_api.Connection_refused *)

(** {1 UDP socket calls} *)

val udp_bind : t -> port:int -> udp_sock
val udp_sendto : t -> udp_sock -> dst:Uls_api.Sockets_api.addr -> string -> unit
val udp_recvfrom : t -> udp_sock -> Uls_api.Sockets_api.addr * string
(** Blocking; datagram boundaries preserved. *)
