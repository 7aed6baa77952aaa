(** Per-simulation invariant monitors ("sanitizers").

    Protocol layers assert conserved quantities (credit counts in
    [0, N], descriptor posted/completed balance, buffer-ring occupancy)
    by calling {!check} at every state transition. When monitoring is
    disabled — the default — a check costs a field read and a branch, so
    the hooks live permanently in production paths; the analysis layer
    enables them for sanitized runs and reads back {!violations}.

    Like {!Metrics} and {!Trace}, one registry exists per simulation
    ({!for_sim}, held in the sim's observer store), so no handle is
    threaded through constructors. *)

type t

type violation = {
  v_name : string;  (** invariant name, e.g. ["sub.credit_range"] *)
  v_detail : string;
  v_fiber : string;  (** fiber running when the violation was recorded *)
  v_time : Time.ns;  (** virtual time of the violation *)
}

exception Violation of string
(** Raised by {!check}/{!fail} only under [enable ~strict:true]. *)

val for_sim : Sim.t -> t
(** The simulation's shared monitor, created on first use. The sim
    holds it, so it lives exactly as long as the sim. *)

val enable : ?strict:bool -> t -> unit
(** Turn monitoring on. With [strict], the first violation raises
    {!Violation} at the offending transition instead of only recording;
    without it, violations accumulate and the run continues (the race
    detector's mode: the fingerprint includes them). *)

val check : t -> name:string -> bool -> (unit -> string) -> unit
(** [check t ~name ok detail] records a violation when monitoring is on
    and [ok] is false. [detail] is only forced on failure, so checks are
    free to interpolate state into the message. *)

val fail : t -> name:string -> string -> unit
(** Unconditionally record a violation (monitors that detect rather than
    assert, e.g. a leak scan). *)

val violations : t -> violation list
(** Oldest first. *)

val string_of_violation : violation -> string
