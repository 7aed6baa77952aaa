(** Virtual time. All simulator timestamps and durations are integer
    nanoseconds, so a 1 Gb/s link transmits exactly one bit per tick. *)

type ns = int

val us : int -> ns
val ms : int -> ns
val s : int -> ns

val to_ms : ns -> float
val to_s : ns -> float

val pp : Format.formatter -> ns -> unit
(** Human-readable rendering with an adaptive unit (ns / us / ms / s). *)

val mbps : bytes_transferred:int -> elapsed:ns -> float
(** Throughput in megabits per second (decimal Mb: 1e6 bits). *)
