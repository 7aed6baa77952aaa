(** Alteon Tigon2 NIC model. The chip's two embedded MIPS cores are
    modelled as a send-side and a receive-side FIFO resource (the EMP
    firmware dedicates one core to each direction); the DMA engine /
    PCI bus is a third shared resource. Firmware behaviour (EMP or the
    standard Acenic-style driver interface) is layered on top by the
    protocol libraries via {!set_firmware_rx} and the work/DMA hooks. *)

type t

val create :
  ?match_engine:Match_list.engine ->
  Uls_engine.Sim.t ->
  Uls_host.Cost_model.t ->
  Uls_ether.Network.t ->
  node:int ->
  t
(** [match_engine] selects the firmware tag-match generation (default
    [Linear], the measured original). [Hashed] also enables the second
    embedded receive core: frames are RSS-steered across two receive
    queues via {!steer}. *)

val match_engine : t -> Match_list.engine

val rx_queues : t -> int
(** Number of receive queues (1 linear, 2 hashed). *)

val steer : t -> flow:int -> int
(** RSS steering: which receive queue handles flows hashing from [flow]
    (callers use the peer node id). A pure function of [flow]: Fibonacci
    hashing that keeps the product's top bits, so consecutive flows
    alternate queues. Always 0 with a single queue. *)

val match_cost : t -> Match_list.probe -> Uls_engine.Time.ns
(** Firmware time for one descriptor lookup: walked descriptors at
    [nic_tag_match_per_desc] plus hash probes at [nic_hash_lookup]. *)

val observe_match : t -> Match_list.probe -> unit
(** Record [nic.match_walk_descs] (every lookup, both engines) and
    [nic.match_hash_lookups] (hashed probes only). *)

val set_firmware_rx :
  ?rss:bool -> t -> (queue:int -> Uls_ether.Frame.t -> unit) -> unit
(** Install the handler invoked (in plain event context) for each frame
    the MAC delivers to this NIC, with the receive queue that serves it:
    with [~rss:true] the queue {!steer} picks for the frame's source
    node, otherwise queue 0 (the default). Each frame is counted on its
    queue ({!queue_frames}) before the handler runs. *)

val transmit : t -> Uls_ether.Frame.t -> unit
(** Hand a frame to the MAC for transmission on the station uplink. *)

val tx_work : t -> Uls_engine.Time.ns -> unit
(** Occupy the send core for the given processing time (fiber). *)

val rx_work : ?queue:int -> t -> Uls_engine.Time.ns -> unit
(** Occupy a receive core (default queue 0) for the given time (fiber). *)

val dma : ?pipelined:bool -> t -> bytes:int -> unit
(** One DMA transaction over the PCI bus (fiber): setup + per-byte.
    With [~pipelined:true] (ring-fed gather-DMA), a transfer that finds
    the engine already busy skips [dma_setup] and pays byte time only —
    it rides the in-progress burst. An idle engine always charges the
    full setup, so sparse traffic is unchanged. *)

val dma_with_header : pipelined:bool -> t -> bytes:int -> unit
(** A ring-slot frame's payload DMA (as {!dma}) and its
    [nic_tx_per_frame] header build on the send core, reserved together
    (fiber): the caller resumes when both are done, at the later of the
    two, instead of after their sum. Each resource's busy time is the
    same as {!dma} followed by {!tx_work}. *)

val doorbell : t -> unit
(** Host doorbell: one [pio_write] charged to the caller (fiber) and one
    [nic.doorbells] count. The firmware pickup charges its own
    [nic_mailbox_fetch] (and bumps [nic.mailbox_fetches]) when it
    services the mailbox — never here, so a same-tick pickup is charged
    exactly once. The audit invariant is
    [nic.doorbells = nic.mailbox_fetches] once a run drains. *)

val count_doorbell : t -> unit
(** Bump [nic.doorbells] without charging — for the ring path, where
    {!Uls_rings.Ringpair} charges the PIO itself. *)

val count_mailbox_fetch : t -> unit
(** Bump [nic.mailbox_fetches] — callers that charge
    [nic_mailbox_fetch] (or the ring path's [nic_doorbell_batch])
    directly on a NIC core pair it with this count. *)

val tx_cpu : t -> Uls_engine.Resource.t
val rx_cpu : ?queue:int -> t -> Uls_engine.Resource.t
val dma_engine : t -> Uls_engine.Resource.t
val frames_received : t -> int

val queue_frames : t -> queue:int -> int
(** Frames delivered to receive queue [queue] (metric
    [nic.rx_frames.q<queue>]): the firmware's frames on the queue
    {!set_firmware_rx} handed them to, collective frames on queue 0.
    Summed over the queues this is {!frames_received}. *)

(** {1 Forward-on-match (NIC-assisted collectives)}

    The NIC-based collective message-passing protocol of Yu et al.
    (Quadrics/Myrinet): the host posts {e forward descriptors} that the
    firmware matches against incoming collective frames. A descriptor
    counts [need] arrivals (frames from children plus, via
    {!coll_signal}, the local process's own arrival); on the last one
    the firmware emits follow-on frames (to the parent, or down to the
    children) and optionally DMAs a completion up to the host — all in
    NIC context, never waking the host mid-tree. *)

val set_coll_classifier : t -> (Uls_ether.Frame.t -> (int * int) option) -> unit
(** Install the firmware-side classifier: [Some (src, tag)] routes the
    frame to the forward-on-match engine instead of {!set_firmware_rx}'s
    handler. The collective library supplies this since the frame payload
    type is its own extension. *)

val post_forward :
  t ->
  src:int ->
  tag:int ->
  need:int ->
  ?deliver:(Uls_ether.Frame.t option -> unit) ->
  emit:(Uls_ether.Frame.t option -> Uls_ether.Frame.t list) ->
  unit ->
  unit
(** Post a forward descriptor ([src = -1] is a wildcard). After [need]
    matching arrivals the firmware unposts it, transmits [emit frame]
    (called with the completing frame, [None] if it was a host signal)
    and, if [deliver] is given, DMAs the completion to the host and
    calls it (plain event context). Caller must be a fiber (one PIO
    write is charged). Frames arriving before the descriptor wait in a
    bounded NIC-side pending queue. *)

val coll_signal : t -> tag:int -> unit
(** Host doorbell counting as a local arrival for the matching forward
    descriptor (source = own node). Caller must be a fiber. *)

val coll_inject : t -> Uls_ether.Frame.t -> unit
(** Hand one collective frame to the firmware for transmission (root of
    a NIC-forwarded broadcast). Charges the PIO write to the caller and
    the descriptor fetch / payload DMA / transmit to the NIC
    asynchronously. Caller must be a fiber. *)
