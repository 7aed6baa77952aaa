(** Per-node operating-system model: traps, interrupts, scheduler wake
    latency, and the page-pinning path with its translation cache (EMP
    §2: the first descriptor post for a memory area pays a system call to
    translate and pin; later posts hit the cache and bypass the OS). *)

type t

val create : Uls_engine.Sim.t -> Cost_model.t -> t

val syscall : t -> unit
(** Trap + return cost, charged to the calling fiber. *)

val interrupt : t -> unit
(** Interrupt entry/dispatch cost (rx path fibers pay this). *)

val context_switch : t -> unit

val wakeup_latency : t -> Uls_engine.Time.ns
(** Delay between an event completing and a process blocked on it
    actually running again. *)

val pin_region : t -> Memory.region -> off:int -> len:int -> unit
(** Translate-and-pin for a descriptor post. First use of a region pays
    the pin system call (per covered page); later uses hit the
    translation cache for free. *)

val prepin : t -> Memory.region -> unit
(** Setup-time registration: enter a region into the translation cache
    without charging the pin cost. Used for buffers registered during
    connection establishment, outside any timed path. *)

val unpin : t -> Memory.region -> unit
(** Forget a dead region's translation-cache entry (its owner closed and
    will never post it again), so the pin table tracks live regions
    only. Free of simulated cost, and no later pin can tell the
    difference: a dead region is never pinned again. *)

val pinned_regions : t -> int
(** Entries in the pin table. *)

val translation_cache_hits : t -> int
val translation_cache_misses : t -> int
val flush_translation_cache : t -> unit
val syscalls_made : t -> int
