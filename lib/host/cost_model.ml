type t = {
  link_bits_per_ns : float;
  link_propagation : Uls_engine.Time.ns;
  switch_fwd_latency : Uls_engine.Time.ns;
  host_copy_ns_per_byte : float;
  syscall : Uls_engine.Time.ns;
  interrupt : Uls_engine.Time.ns;
  sched_wakeup : Uls_engine.Time.ns;
  page_pin_syscall : Uls_engine.Time.ns;
  page_pin_per_page : Uls_engine.Time.ns;
  page_size : int;
  pio_write : Uls_engine.Time.ns;
  poll_gap : Uls_engine.Time.ns;
  nic_mailbox_fetch : Uls_engine.Time.ns;
  nic_tx_per_msg : Uls_engine.Time.ns;
  nic_tx_per_frame : Uls_engine.Time.ns;
  nic_rx_classify : Uls_engine.Time.ns;
  nic_rx_per_frame : Uls_engine.Time.ns;
  nic_tag_match_per_desc : Uls_engine.Time.ns;
  nic_hash_lookup : Uls_engine.Time.ns;
  nic_ack_gen : Uls_engine.Time.ns;
  nic_coll_forward : Uls_engine.Time.ns;
      (** per-frame firmware cost to re-emit a matched collective frame
          (forward-on-match: the descriptor is prebuilt, so this is
          cheaper than a full host-initiated transmit) *)
  dma_setup : Uls_engine.Time.ns;
  dma_ns_per_byte : float;
  tcp_tx_per_segment : Uls_engine.Time.ns;
  tcp_rx_per_segment : Uls_engine.Time.ns;
  driver_tx_per_frame : Uls_engine.Time.ns;
  driver_rx_per_frame : Uls_engine.Time.ns;
  tcp_connect_kernel : Uls_engine.Time.ns;
  emp_host_post : Uls_engine.Time.ns;
  emp_host_reap : Uls_engine.Time.ns;
  nic_doorbell_batch : Uls_engine.Time.ns;
  nic_ring_slot_fetch : Uls_engine.Time.ns;
  ring_slot_post : Uls_engine.Time.ns;
  ring_reap_slot : Uls_engine.Time.ns;
}

let paper_testbed =
  {
    link_bits_per_ns = 1.0;
    link_propagation = 500;
    switch_fwd_latency = 2_500;
    host_copy_ns_per_byte = 1.8;
    syscall = 2_500;
    interrupt = 5_000;
    sched_wakeup = 18_000;
    page_pin_syscall = 15_000;
    page_pin_per_page = 2_000;
    page_size = 4_096;
    pio_write = 700;
    poll_gap = 200;
    nic_mailbox_fetch = 2_000;
    nic_tx_per_msg = 5_000;
    nic_tx_per_frame = 2_000;
    nic_rx_classify = 4_000;
    nic_rx_per_frame = 2_000;
    nic_tag_match_per_desc = 550;
    nic_hash_lookup = 700;
    nic_ack_gen = 1_500;
    nic_coll_forward = 1_200;
    dma_setup = 1_800;
    dma_ns_per_byte = 1.9;
    tcp_tx_per_segment = 10_000;
    tcp_rx_per_segment = 6_500;
    driver_tx_per_frame = 4_000;
    driver_rx_per_frame = 3_000;
    tcp_connect_kernel = 40_000;
    emp_host_post = 800;
    emp_host_reap = 1_200;
    nic_doorbell_batch = 2_000;
    nic_ring_slot_fetch = 600;
    ring_slot_post = 150;
    ring_reap_slot = 100;
  }

let round_ns f = int_of_float (Float.round f)

let copy_cost t n = round_ns (t.host_copy_ns_per_byte *. float_of_int n)

let dma_cost t n = t.dma_setup + round_ns (t.dma_ns_per_byte *. float_of_int n)
let dma_stream_cost t n = round_ns (t.dma_ns_per_byte *. float_of_int n)

let pin_cost t ~bytes =
  let pages = (bytes + t.page_size - 1) / t.page_size in
  let pages = max 1 pages in
  t.page_pin_syscall + (pages * t.page_pin_per_page)
