(** Small-message datagram firehose over the ring-based batched I/O
    subsystem: one source sprays patterned datagrams at [sinks] sink
    nodes, sweeping message size x submission batch depth. [batch = 1]
    is the per-call ablation (byte-identical legacy write/read path);
    [batch > 1] runs gathered writes through the endpoint tx ring (one
    doorbell per batch) and batched receive-descriptor reposting through
    the fill ring. Deterministic per config; with [loss] set it doubles
    as the rings chaos leg. *)

type config = {
  sinks : int;  (** sink nodes (the source is node 0) *)
  count : int;  (** messages per sink *)
  size : int;  (** payload bytes per message *)
  batch : int;  (** submission batch depth; 1 = per-call ablation *)
  busy_poll : bool;  (** tx ring in wakeup-free busy-poll mode *)
  seed : int;
  loss : float;  (** uniform frame-loss probability (chaos leg) *)
  match_engine : Uls_nic.Match_list.engine;
}

val default : config
(** 4 sinks x 2000 messages x 64 B, batch 32, wakeup mode, seed 42. *)

type report = {
  messages : int;  (** sinks x count *)
  delivered : int;
  mismatches : int;  (** messages whose bytes differed from expected *)
  bytes : int;
  elapsed_ms : float;
  pps : float;  (** delivered messages per second of virtual time *)
  mbps : float;
  doorbells : int;  (** source-node [nic.doorbells] *)
  mailbox_fetches : int;  (** source-node [nic.mailbox_fetches] *)
  ring_submitted : int;  (** descriptors through the source tx ring *)
  ring_doorbells : int;  (** doorbells the tx ring issued *)
  faults_injected : int;
  retransmits : int;  (** EMP frame retransmissions, all nodes *)
  intact : bool;  (** every message delivered byte-exact, in order *)
  completed_run : bool;
}

val run :
  ?on_metrics:(Uls_engine.Metrics.t -> unit) ->
  ?progress:int * (unit -> unit) ->
  config ->
  report
(** One firehose run on a fresh cluster. Deterministic: same config,
    byte-identical report. [progress = (n, f)] calls [f] from inside the
    run after every [n]th delivered message, with the whole cluster
    live. *)

val print_report : Format.formatter -> config -> report -> unit
