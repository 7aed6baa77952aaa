(** IP layer + Acenic-style driver model: fragmentation/reassembly,
    per-frame driver costs on the kernel CPU, and NIC receive interrupt
    coalescing (the Alteon firmware batches receive interrupts; this is
    what lets kernel TCP stream at hundreds of Mb/s while paying ~100 us
    small-message latency). *)

type t

val create :
  Uls_host.Node.t ->
  Uls_nic.Tigon.t ->
  cpu:Uls_engine.Resource.t ->
  t

val set_handler : t -> (src:int -> Segment.ip_payload -> unit) -> unit
(** Upper-protocol input, invoked from the interrupt dispatcher fiber
    after reassembly; it may (and does) charge further kernel CPU time. *)

val send : t -> dst:int -> Segment.ip_payload -> unit
(** Fragment and transmit a datagram. Charges per-fragment driver cost
    on the kernel CPU in the calling fiber; NIC-side DMA/transmit
    proceeds asynchronously in order. *)

val datagrams_delivered : t -> int
val datagrams_dropped : t -> int
(** Reassembly failures (fragment loss), counted lazily on eviction. *)
