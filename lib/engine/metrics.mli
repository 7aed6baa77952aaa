(** Named counters, gauges and histograms, optionally per node.

    One registry per simulation ({!for_sim}, held in the sim's observer
    store, {!Sim.get}) so any layer can account events without a handle threaded through every
    constructor. Metric names follow ["<layer>.<event>"] with a unit
    suffix where one applies (e.g. ["emp.match_walk_descs"],
    ["sub.credit_wait_us"]). Unlike {!Trace}, metrics are always on:
    counters are too cheap to gate. *)

type t

val for_sim : Sim.t -> t
(** The simulation's shared registry, created on first use. The sim
    holds it, so it lives exactly as long as the sim. *)

(** {2 Counters} *)

val counter : t -> ?node:int -> string -> Stats.Counter.t
val counter_value : t -> ?node:int -> string -> int

(** {2 Gauges} *)

val gauge : t -> ?node:int -> string -> float ref

(** {2 Histograms} *)

val histogram : t -> ?node:int -> string -> Stats.Summary.t
(** Full sample summary: count, mean, max, percentiles. *)

(** {2 Registry} *)

val counters_snapshot : t -> (int * string * int) list
(** Every registered counter as [(node, name, value)], sorted — a
    canonical ordering usable for final-state fingerprints (node [-1]
    means not tied to a node). *)

val dump : t -> Format.formatter -> unit
(** Per-node listing: counters and gauges with values, histograms with
    count / mean / p50 / p95 / max. *)
