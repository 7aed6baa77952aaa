(** Deterministic, seeded fault injection for the simulated network.

    A {!t} is a fault-plan engine: each wire hop (uplink, switch stage,
    downlink) asks for a {!decision} per frame and applies the verdict
    itself — the engine owns all randomness (one SplitMix64 stream per
    link, derived from the engine seed and the link name, so a link's
    fault pattern is independent of the traffic on other links and of
    link creation order), the scheduled outage windows, and the per-kind
    accounting. Two runs with the same seed and plans see byte-identical
    fault sequences.

    When no plan is installed {!decide} short-circuits to {!Deliver}
    without drawing randomness, so an idle fault engine adds no cost and
    no nondeterminism. *)

type decision =
  | Deliver
  | Drop of string
      (** Frame lost on the wire. The argument names the cause:
          ["loss"], ["burst"], ["down"], ["pause"] or ["filter"]. *)
  | Corrupt
      (** Deliver with damaged payload bytes; the receiving NIC's CRC
          check catches it and drops the frame (so corruption consumes
          wire time and RX work, unlike a plain drop). *)
  | Duplicate  (** Deliver twice, back to back. *)
  | Delay of Time.ns
      (** Deliver late by the given extra delay. Delays larger than the
          inter-frame gap reorder frames on the link. *)

(** Fault plan. Every link follows it, each drawing from its own random
    stream. All probabilities are per frame in [0, 1]. *)
type plan = {
  drop_p : float;  (** independent Bernoulli frame loss *)
  burst_p : float;  (** probability a frame starts a loss burst *)
  burst_len : int;  (** frames lost per burst (including the first) *)
  corrupt_p : float;  (** byte corruption (caught by the NIC CRC) *)
  dup_p : float;  (** frame duplication *)
  delay_p : float;  (** probability of extra delay (reordering) *)
  delay_max : Time.ns;  (** extra delay is uniform in [1, delay_max] *)
  down : (Time.ns * Time.ns) list;
      (** scheduled link-down windows [(from, until))]: every frame in a
          window is dropped *)
}

val clean : plan
(** No faults: every field zero/empty. *)

val uniform_loss : float -> plan
(** [clean] with [drop_p] set — the loss-sweep workhorse. *)

type t

val create : ?seed:int -> Sim.t -> t
(** A fault engine for [sim]. Defaults to seed 0. *)

val set_plan : t -> plan -> unit
(** Install the plan every link follows from now on. *)

val pause_node : t -> node:int -> from:Time.ns -> until:Time.ns -> unit
(** Node outage: every frame to or from [node] inside the window is
    dropped on every hop, as if the host stopped responding. *)

val decide : t -> link:string -> src:int -> dst:int -> decision
(** Verdict for one frame crossing [link] now. [src]/[dst] are station
    ids (used only by node pause windows). Counts the verdict per kind
    in {!Metrics} (["fault.drop.<cause>"], ["fault.corrupt"], ...) and
    emits a {!Trace} instant for every non-[Deliver] verdict. *)

val faults_injected : t -> int
(** Total non-[Deliver] verdicts. *)
