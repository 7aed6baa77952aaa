(** A submission/completion ring pair shared between a host fiber and a
    NIC core — the AF_XDP/io_uring-shaped batched alternative to the
    per-operation mailbox.

    Host side: [submit] stages descriptors ([ring_slot_post] each, a
    cached write — no MMIO), then one [ring_doorbell] covers the whole
    batch (one [pio_write] plus one [nic_doorbell_batch] mailbox-word
    fetch on the NIC, instead of one [nic_mailbox_fetch] per
    descriptor). Completions come back through the CQ and are reaped in
    bulk: [emp_host_reap] for the first plus [ring_reap_slot] for each
    further completion in the same reap.

    [Busy_poll] mode is wakeup-free: doorbells are no-ops (nothing
    charged, nothing counted) and the NIC poller discovers the ring tail
    itself after a [poll_gap] delay — trading notification cost for
    discovery latency. The poller parks on a condition when idle, so it
    never blocks simulation quiescence. *)

type mode = Wakeup | Busy_poll

type stats = {
  mutable doorbells : int;
  mutable coalesced : int;
      (** doorbells that joined a fetch already due or running, so
          [doorbells = fetch_batches + coalesced] in [Wakeup] mode once
          the fetch fiber is idle *)
  mutable fetch_batches : int;
  mutable fetched : int;
  mutable submitted : int;
  mutable cq_overflows : int;
  mutable completed : int;
  mutable reaped : int;
  mutable cq_flushes : int;
      (** coalesced completion-write bursts (see [on_cq_flush]) *)
}

type ('s, 'c) t
(** ['s] submission descriptor, ['c] completion record. *)

val create :
  ?mode:mode ->
  ?capacity:int ->
  ?label:string ->
  ?on_doorbell:(unit -> unit) ->
  ?on_fetch:(int -> unit) ->
  on_cq_flush:(int -> unit) ->
  Uls_engine.Sim.t ->
  model:Uls_host.Cost_model.t ->
  nic_cpu:Uls_engine.Resource.t ->
  dummy_sub:'s ->
  dummy_comp:'c ->
  consume:('s -> unit) ->
  unit ->
  ('s, 'c) t
(** [consume] runs on the NIC fetch fiber once per descriptor, after the
    batch fetch charge; it must not block — spawn a fiber for blocking
    work. [on_doorbell] fires when the host rings (wakeup mode only);
    [on_fetch n] fires when the NIC services a wakeup-mode doorbell
    covering [n] descriptors. Completion writes are coalesced (CQ
    moderation): a dedicated flush fiber calls [on_cq_flush k] with the
    number of completions accumulated since its last call, instead of
    one completion write per entry — the callback should charge the
    single coalesced DMA burst. [capacity] (of each ring, default 1024)
    must be a power of two. *)

val submit : ('s, 'c) t -> 's -> unit
(** Stage one descriptor. On a full SQ it flushes (rings the doorbell)
    and waits for space. *)

val ring_doorbell : ('s, 'c) t -> unit
(** Notify the NIC of everything staged since the last doorbell. No-op
    when the SQ is empty or in [Busy_poll] mode. *)

val complete : ('s, 'c) t -> 'c -> unit
(** NIC side: push a completion. A full CQ drops its oldest entry
    (counted in [cq_overflows]) rather than blocking firmware. *)

val reap : ('s, 'c) t -> max:int -> 'c list
(** Host side, non-blocking: pop up to [max] completions (oldest first),
    charging [emp_host_reap] + (k-1)·[ring_reap_slot] when k > 0. *)

val stats : ('s, 'c) t -> stats
