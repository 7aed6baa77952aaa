(* Field and preset docs live in options.mli. *)

type mode = Data_streaming | Datagram
type scheme = Eager | Rendezvous | Comm_thread

type t = {
  mode : mode;
  scheme : scheme;
  credits : int;
  buffer_size : int;
  delayed_acks : bool;
  unexpected_queue : bool;
  piggyback : bool;
  block_send : bool;
  eager_max : int;
  write_overhead : Uls_engine.Time.ns;
  read_overhead : Uls_engine.Time.ns;
  connect_timeout : Uls_engine.Time.ns;
  connect_attempts : int;
  rx_ring : bool;
}

let header_bytes = 16

let data_streaming =
  {
    mode = Data_streaming;
    scheme = Eager;
    credits = 32;
    buffer_size = 65_536;
    delayed_acks = false;
    unexpected_queue = false;
    piggyback = false;
    block_send = false;
    eager_max = max_int;
    write_overhead = 1_500;
    read_overhead = 1_800;
    connect_timeout = Uls_engine.Time.ms 50;
    connect_attempts = 4;
    rx_ring = false;
  }

let data_streaming_enhanced =
  { data_streaming with delayed_acks = true; unexpected_queue = true }

let server =
  {
    data_streaming_enhanced with
    credits = 4;
    buffer_size = 2_048;
    piggyback = true;
    rx_ring = true;
  }

let datagram =
  {
    data_streaming with
    mode = Datagram;
    delayed_acks = true;
    unexpected_queue = true;
    eager_max = 16_384;
    write_overhead = 300;
    read_overhead = 400;
  }

let chunk_capacity t = t.buffer_size - header_bytes

let ack_threshold t =
  (* Blocking sends need an ack per message to make progress. *)
  if t.block_send then 1
  else if t.delayed_acks then max 1 (t.credits / 2)
  else 1

let firmware t =
  if t.rx_ring then Uls_emp.Endpoint.Ring else Uls_emp.Endpoint.Paper

let mode_name t =
  match t.mode with Data_streaming -> "DS" | Datagram -> "DG"
