(** Every latency/occupancy constant of the simulated testbed, in one
    record. The [paper_testbed] preset is calibrated so the reproduced
    micro-benchmarks land near the paper's headline numbers (EMP ~28 us,
    substrate datagram ~28.5 us, data streaming ~37 us, TCP ~120 us for
    4-byte messages; TCP ~340 Mb/s at 16 KB buffers, ~550 Mb/s tuned;
    substrate >840 Mb/s). Experiments vary fields explicitly rather than
    editing the preset. *)

type t = {
  (* Wire and switch *)
  link_bits_per_ns : float;
  link_propagation : Uls_engine.Time.ns;
  switch_fwd_latency : Uls_engine.Time.ns;
  (* Host CPU (Pentium III 700 MHz) *)
  host_copy_ns_per_byte : float;
  syscall : Uls_engine.Time.ns;
  interrupt : Uls_engine.Time.ns;
  sched_wakeup : Uls_engine.Time.ns;  (** blocked process: event -> running *)
  page_pin_syscall : Uls_engine.Time.ns;
  page_pin_per_page : Uls_engine.Time.ns;
  page_size : int;
  pio_write : Uls_engine.Time.ns;  (** MMIO doorbell over PCI *)
  poll_gap : Uls_engine.Time.ns;  (** host polling loop iteration *)
  (* Tigon2 NIC (two 88 MHz MIPS cores) *)
  nic_mailbox_fetch : Uls_engine.Time.ns;
  nic_tx_per_msg : Uls_engine.Time.ns;
  nic_tx_per_frame : Uls_engine.Time.ns;
  nic_rx_classify : Uls_engine.Time.ns;
  nic_rx_per_frame : Uls_engine.Time.ns;
  nic_tag_match_per_desc : Uls_engine.Time.ns;  (** 550 ns: paper §6.3 *)
  nic_hash_lookup : Uls_engine.Time.ns;
      (** one hash-table probe of the firmware match index (hashed
          engine); a concrete lookup makes at most four *)
  nic_ack_gen : Uls_engine.Time.ns;
  nic_coll_forward : Uls_engine.Time.ns;
      (** per-frame firmware cost to re-emit a matched collective frame
          (forward-on-match descriptors are prebuilt, so this is cheaper
          than the host-initiated transmit path) *)
  dma_setup : Uls_engine.Time.ns;
  dma_ns_per_byte : float;  (** PCI 64/66: ~528 MB/s *)
  (* Kernel TCP/IP stack + Acenic-style driver *)
  tcp_tx_per_segment : Uls_engine.Time.ns;
  tcp_rx_per_segment : Uls_engine.Time.ns;
  driver_tx_per_frame : Uls_engine.Time.ns;
  driver_rx_per_frame : Uls_engine.Time.ns;
  tcp_connect_kernel : Uls_engine.Time.ns;  (** per-end handshake bookkeeping *)
  (* EMP host library *)
  emp_host_post : Uls_engine.Time.ns;  (** descriptor build, user space *)
  emp_host_reap : Uls_engine.Time.ns;  (** completion processing *)
  (* Submission/completion rings (AF_XDP / io_uring style batched path) *)
  nic_doorbell_batch : Uls_engine.Time.ns;
      (** firmware cost to service one doorbell: fetch the mailbox word
          and locate the submission ring tail — paid once per doorbell,
          however many descriptors the batch covers *)
  nic_ring_slot_fetch : Uls_engine.Time.ns;
      (** DMA-fetch and parse one fixed-format ring descriptor; cheaper
          than [nic_mailbox_fetch] + [nic_tx_per_msg] because the slot
          layout is fixed and prefetched in bulk *)
  ring_slot_post : Uls_engine.Time.ns;
      (** host cost to write one descriptor into a ring slot — a cached
          memory write, no MMIO *)
  ring_reap_slot : Uls_engine.Time.ns;
      (** host cost per additional completion reaped from a completion
          ring after the first ([emp_host_reap] covers the first) *)
}

val paper_testbed : t

val copy_cost : t -> int -> Uls_engine.Time.ns
(** Host memcpy cost for [n] bytes. *)

val dma_cost : t -> int -> Uls_engine.Time.ns
(** One DMA transaction moving [n] bytes across the PCI bus. *)

val dma_stream_cost : t -> int -> Uls_engine.Time.ns
(** Byte time alone for [n] bytes on an already-armed DMA engine — what
    a transfer pays when it rides a burst pipeline back-to-back behind
    another, skipping the per-transaction [dma_setup]. *)

val pin_cost : t -> bytes:int -> Uls_engine.Time.ns
(** Pin-and-translate system call covering [bytes] (page granularity). *)
