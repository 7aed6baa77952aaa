(** The ring workloads: what batching buys on the EMP submission path.
    The paper's EMP pays one host post, one MMIO doorbell and one NIC
    mailbox fetch per descriptor (§2); the endpoint's tx ring covers a
    whole batch with one of each. A run is one spec with two axes:

    - {e workload}: who submits what.
      [Firehose]: one source node (node 0) sprays patterned datagrams at
      [sinks] sink nodes over substrate connections, one source fiber
      per sink; the sinks check every message byte for byte, in order.
      With [batch > 1] writes are gathered ([Conn.writev]) through the
      tx ring, and connection set-up, listen backlogs and the sinks'
      receive reposts go through the fill ring ([Options.rx_ring]);
      [loss] makes it the rings chaos leg.
      [Storm]: ZMap-style scanners (nodes [0..scanners-1]) fire windowed
      connection probes at substrate listeners on [targets] nodes. Each
      scanner is a raw-EMP probe engine: a window of slots, each with a
      pre-pinned request buffer, a connection-reply descriptor and a
      standing close-message descriptor (the target's accept-and-close
      drainer sends a close notification per probe, which must be
      absorbed or it retransmits). Up to [batch] free slots go out per
      doorbell ([post_sendv]), their reply descriptors through the fill
      ring ([post_recv_batch]).
    - {e submission path}: [batch] descriptors per doorbell ([1] is the
      per-call ablation, byte-identical to the pre-ring path), the tx
      ring in busy-poll mode, and the NIC tag-match engine.

    Every submitting endpoint (the firehose source, each scanner) gets
    the busy-poll ring when asked; its node's [nic.doorbells] and
    [nic.mailbox_fetches] and its ring's counters make the report's
    audit columns. Runs stop at a 60 s virtual-time bound and are
    deterministic: same spec, byte-identical report. *)

type firehose = {
  sinks : int;  (** sink nodes (the source is node 0) *)
  count : int;  (** messages per sink *)
  size : int;  (** payload bytes per message *)
  seed : int;  (** message pattern and fault-engine seed *)
  loss : float;  (** uniform frame-loss probability (chaos leg) *)
}

type storm = {
  scanners : int;
  targets : int;
  window : int;  (** probe slots (concurrent probes) per scanner *)
  probes : int;  (** probes per scanner *)
  backlog : int;  (** per-target listen backlog *)
}

type workload = Firehose of firehose | Storm of storm

type config = {
  workload : workload;
  batch : int;  (** descriptors per doorbell; 1 = per-call ablation *)
  busy_poll : bool;  (** tx ring in wakeup-free busy-poll mode *)
  match_engine : Uls_nic.Match_list.engine;
}

val firehose : firehose
(** 4 sinks x 2000 messages x 64 B, seed 42, no loss. *)

val storm : storm
(** 2 scanners x 2000 probes, window 64, against 2 targets with
    backlog 64. *)

val default : config
(** [Firehose firehose] at batch 32, wakeup mode, hashed matching. *)

type report = {
  offered : int;  (** messages (sinks x count) or probes (scanners x probes) *)
  completed : int;  (** messages delivered or probes answered *)
  failed : int;
      (** completed operations that failed: messages whose bytes
          differed, or probes the target refused *)
  bytes : int;
      (** payload bytes of the completed operations (a probe carries a
          24-byte connection request) *)
  elapsed_ms : float;  (** first submission to last completion *)
  rate : float;  (** completed per virtual second; 0 unless [completed_run] *)
  mbps : float;  (** [bytes] per virtual second; 0 unless [completed_run] *)
  doorbells : int;  (** [nic.doorbells] over the submitting nodes *)
  mailbox_fetches : int;  (** [nic.mailbox_fetches], same nodes *)
  ring_submitted : int;  (** descriptors through their tx rings *)
  ring_doorbells : int;  (** doorbells those rings rang *)
  faults : int;  (** frames the fault engine did not deliver *)
  retransmits : int;  (** EMP frame retransmissions, all nodes *)
  intact : bool;
      (** every operation completed and none failed; for a storm, the
          targets also built exactly one connection per accepted probe *)
  completed_run : bool;
      (** quiesced within the bound with every operation completed *)
}

val run :
  ?on_metrics:(Uls_engine.Metrics.t -> unit) ->
  ?progress:int * (unit -> unit) ->
  config ->
  report
(** One run on a fresh cluster. [on_metrics] sees the metrics registry
    after the run, with the cluster still alive. [progress = (n, f)]
    calls [f] from inside the run after every [n]th completed
    operation, with the whole cluster live (the soak gate's sampling
    point). *)

val print_report : Format.formatter -> config -> report -> unit
(** The workload's header and rate line (msg/s and Mb/s for a firehose,
    attempts/s and Mpps for a storm), the audit counters, the chaos line
    when anything was lost, and the verdict. *)
