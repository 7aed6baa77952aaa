(** Connection storm: ZMap-style scanners fire windowed connection
    probes at substrate targets, measuring connect-attempt rate. Each
    scanner is a raw-EMP probe engine with [window] slots; [batch]
    probes are submitted per doorbell through the endpoint tx ring, with
    reply descriptors posted through the fill ring. [batch = 1] is the
    per-call ablation. Targets run real substrate listeners with an
    accept-and-close drainer. Deterministic per config. *)

type config = {
  scanners : int;
  targets : int;
  window : int;  (** probe slots (concurrent probes) per scanner *)
  probes : int;  (** probes per scanner *)
  batch : int;  (** probes submitted per doorbell; 1 = per-call *)
  backlog : int;  (** per-target listen backlog *)
  busy_poll : bool;
  seed : int;
  match_engine : Uls_nic.Match_list.engine;
}

val default : config
(** 2 scanners x 2000 probes (window 64, batch 32) against 2 targets. *)

type report = {
  attempts : int;  (** scanners x probes *)
  accepted : int;  (** replies carrying a server connection id *)
  refused : int;  (** explicit refusals (none expected here) *)
  server_accepts : int;  (** connections the targets actually built *)
  elapsed_ms : float;
  attempts_per_sec : float;
  mpps : float;  (** attempts_per_sec / 1e6 *)
  doorbells : int;  (** scanner-node [nic.doorbells], summed *)
  mailbox_fetches : int;  (** scanner-node [nic.mailbox_fetches], summed *)
  intact : bool;  (** every probe answered, none refused *)
  completed_run : bool;
}

val run : config -> report
(** One storm run on a fresh cluster. Deterministic: same config,
    byte-identical report. *)

val print_report : Format.formatter -> config -> report -> unit
