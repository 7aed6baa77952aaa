(** Loss-sweep chaos driver: streams a checksummed payload through a
    sockets stack under seeded fault injection and reports goodput and
    recovery work per loss rate. Deterministic for a given seed. *)

type row = {
  loss_pct : float;
  goodput_mbps : float;  (** 0 when the run hung or never started *)
  elapsed_ms : float;  (** virtual time of the data phase *)
  faults_injected : int;  (** non-deliver verdicts from the fault engine *)
  retransmits : int;  (** EMP frames or TCP go-back-N rewinds, both nodes *)
  nacks : int;  (** EMP only; 0 for TCP *)
  intact : bool;  (** receiver saw the byte-exact payload *)
  completed : bool;  (** quiesced within the virtual-time liveness bound *)
}

val stream_run :
  kind:Cluster.stream -> seed:int -> loss:float -> total:int -> msg:int -> row
(** One streaming run: [total] patterned bytes in [msg]-byte writes under
    uniform per-frame loss probability [loss], verified byte-for-byte at
    the receiver. *)

val default_rates : float list
(** [0; 0.005; 0.02; 0.05] — the sweep of the loss experiments. *)

val sweep :
  ?seed:int ->
  ?rates:float list ->
  ?total:int ->
  ?msg:int ->
  kind:Cluster.stream ->
  unit ->
  row list

val print_table :
  Format.formatter -> kind:Cluster.stream -> row list -> unit
