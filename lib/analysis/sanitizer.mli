(** End-of-run resource sanitizers. Run after the simulation reaches
    quiescence; each scan checks a conservation law that only a finished
    run can witness:

    - {b descriptor conservation} — every EMP receive descriptor ever
      posted is completed or still live ([posted = completed + live]);
    - {b closed-connection descriptor leak} — a closed or reset
      substrate connection has zero still-posted receive slots;
    - {b send-pool occupancy} — no registered send-ring slot is still
      awaiting an acknowledgment that can no longer arrive.

    Findings are returned and also recorded into the simulation's
    {!Uls_engine.Invariant} monitor (so they reach the explorer's
    fingerprint). *)

type finding = {
  f_check : string;  (** invariant name, e.g. ["emp.desc_conservation"] *)
  f_node : int;  (** node id, [-1] when not attributable to one node *)
  f_detail : string;
}

val scan :
  ?conns:(int * Uls_substrate.Conn.t) list ->
  Uls_bench.Cluster.t ->
  finding list
(** [scan ~conns cluster] after a quiescent run. [conns] are the
    [(node, connection)] pairs the scenario tracked — closed connections
    leave the substrate's table, so the caller must hand them over for
    the leak check. *)
