(** Measurement collection for experiments. *)

module Counter : sig
  type t

  val create : unit -> t
  val incr : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Summary : sig
  (** Bounded-reservoir sample summary. [count]/[sum]/[mean]/[max] are
      exact over everything observed (running accumulators); percentiles are exact up to the reservoir capacity
      (8192 samples) and computed over a deterministic uniform
      subsample beyond it, so unbounded runs no longer retain every
      sample. Identical observation streams produce identical
      summaries (the reservoir PRNG is fixed-seeded). *)

  type t

  val create : unit -> t
  val add : t -> float -> unit

  val count : t -> int
  (** Total observations, not the retained-reservoir size. *)

  val mean : t -> float
  val max : t -> float

  val percentile : t -> float -> float
  (** [percentile t 0.5] is the median. Nearest-rank on the sorted
      (reservoir) samples. *)

  val sum : t -> float
end
