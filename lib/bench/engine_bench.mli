(** Event-core throughput benchmark: events/sec through {!Uls_engine.Sim}
    on synthetic timer workloads shaped like the real benchmarks
    (pingpong, serve-512, fabric at 4096 and 65536 connections), run on
    both event-queue implementations.

    Each shape is a pure-engine workload — no protocol stack — so the
    measurement isolates queue cost: every connection runs a fixed number
    of request cycles, each cycle arming a stale retransmission timer
    the way a real stack does, so the standing timer population scales
    with connection count (the regime where the binary heap pays
    O(log n) per operation and the timing wheel does not). Fabric shapes
    additionally arm far-future idle/lease timers that land in the
    wheel's top levels and overflow heap.

    The event structure is a pure function of the shape, so [events] is
    deterministic and identical across schedulers (dispatch parity);
    only [elapsed_s] and [events_per_sec] depend on the machine. *)

type sched = [ `Heap | `Wheel ]

type shape = {
  sh_name : string;
  sh_conns : int;
  sh_cycles : int;  (** request cycles per connection *)
  sh_timeout : Uls_engine.Time.ns;
      (** stale-timer horizon per cycle; with the cycle period this sets
          the standing queue population *)
  sh_far : bool;  (** arm far-future idle/lease timers (top wheel levels) *)
}

val shapes : shape list
(** pingpong, serve-512, fabric-4096, fabric-65536. *)

type row = {
  scenario : string;
  conns : int;
  sched : sched;
  events : int;  (** {!Uls_engine.Sim.events_executed} — deterministic *)
  elapsed_s : float;  (** process CPU seconds *)
  events_per_sec : float;
  minor_words_per_event : float;
      (** [Gc.minor_words] gained across the run divided by events
          dispatched. The steady-state cost is the per-cycle closures the
          workload itself arms; the dispatch loop contributes nothing, so
          a rise here means the engine hot path started allocating (the
          allocation-sanitizer gate in [check engine] enforces a
          ceiling). *)
}

val run_all : unit -> row list
(** Every shape under both schedulers, heap first. Each shape runs five
    interleaved heap/wheel pairs and returns the pair with the median
    wheel-vs-heap speedup, so one disturbed run cannot move the ratio
    the [check engine] gate reads. *)
