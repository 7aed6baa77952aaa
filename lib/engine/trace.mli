(** Structured cross-layer event tracing.

    Disabled by default (recording is a no-op until {!enable}). Each
    simulation has one shared trace reachable via {!for_sim}; the layers
    of the stack record {e instants} (point events) and {e spans}
    (begin/end pairs matched by id, so overlapping operations — e.g.
    messages in flight — nest correctly). Events carry the layer, node,
    optional connection id and sequence number, and the virtual
    timestamp. The buffer exports as a Chrome-trace JSON array loadable
    in chrome://tracing or Perfetto. *)

type layer = Net | Nic | Emp | Substrate | Tcpip | Collective | App | Engine

val layer_name : layer -> string

type kind = Span_begin of int | Span_end of int | Instant

type event = {
  ev_time : Time.ns;
  ev_layer : layer;
  ev_name : string;
  ev_kind : kind;
  ev_node : int;  (** -1 when not tied to a node *)
  ev_conn : int;  (** -1 when not tied to a connection *)
  ev_seq : int;  (** -1 when not tied to a sequence number *)
  ev_args : (string * string) list;
}

type t

val create : Sim.t -> t
(** A fresh, private trace (mostly for tests). *)

val for_sim : Sim.t -> t
(** The simulation's shared trace, created on first use. All stack
    instrumentation records here. Held in an ephemeron table: when the
    sim is collected, its trace goes too. *)

val registered_sims : unit -> int
(** Number of live sims with a trace (dead entries swept first). *)

val enable : t -> unit
val enabled : t -> bool

val instant :
  t ->
  layer:layer ->
  ?node:int ->
  ?conn:int ->
  ?seq:int ->
  ?args:(string * string) list ->
  string ->
  unit

val span_begin :
  t ->
  layer:layer ->
  ?node:int ->
  ?conn:int ->
  ?seq:int ->
  ?args:(string * string) list ->
  string ->
  int
(** Open a span; returns its id (0 when tracing is disabled — feeding 0
    back to {!span_end} is then a no-op). *)

val span_end :
  t ->
  layer:layer ->
  ?node:int ->
  ?conn:int ->
  ?seq:int ->
  ?args:(string * string) list ->
  string ->
  int ->
  unit

val span :
  t ->
  layer:layer ->
  ?node:int ->
  ?conn:int ->
  ?seq:int ->
  ?args:(string * string) list ->
  string ->
  (unit -> 'a) ->
  'a
(** [span t ~layer name f] wraps [f] in a begin/end pair (the end is
    recorded even if [f] raises). *)

val events : t -> event list
(** Everything recorded while enabled, oldest first. *)

val clear : t -> unit

val span_totals : t -> (layer * string * int * int) list
(** Closed spans aggregated by (layer, name): [(layer, name, count,
    total_ns)], sorted. The basis for per-layer latency breakdowns. *)

val to_chrome_json : t -> string
(** The whole buffer as a Chrome-trace JSON array ([chrome://tracing]):
    pid = node, tid = layer, async spans keyed by span id. *)
