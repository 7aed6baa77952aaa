(** Request-latency accounting shared by the serving drivers ({!Load},
    {!Fleet}): one accumulator per run, one summary record in every
    report, one way to print it. *)

type t

val create : unit -> t

val sent : t -> now:Uls_engine.Time.ns -> unit
(** A request left the client at [now]; the earliest send opens the
    measured interval. *)

val completed : t -> t0:Uls_engine.Time.ns -> now:Uls_engine.Time.ns -> unit
(** A request whose latency is measured from [t0] completed at [now];
    the latest completion closes the measured interval. *)

type summary = {
  elapsed_ms : float;  (** first send to last completion, virtual *)
  rps : float;  (** completions per second of [elapsed_ms] *)
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  p999_us : float;
}
(** All zeros for a run that completed nothing. *)

val summary : t -> summary

val pp : Format.formatter -> summary -> unit
(** The report's two lines: elapsed and throughput, then the latency
    mean and percentiles. *)
