type msg_key = {
  src_node : int;
  msg_id : int;
}

type ack = {
  key : msg_key;
  acked : int;
}

type data = {
  key : msg_key;
  tag : int;
  frame_idx : int;
  nframes : int;
  total_len : int;
  lwm : int;
  acks : ack list;
  chunk : string;
}

type Uls_ether.Frame.payload +=
  | Data of data
  | Ack of ack list
  | Nack of { key : msg_key; next_expected : int }

let header_bytes = 24
let ack_bytes = 8
let max_data_per_frame = Uls_ether.Frame.mtu - header_bytes

let frames_for len =
  if len <= 0 then 1
  else (len + max_data_per_frame - 1) / max_data_per_frame

let acks_that_fit ~chunk =
  (Uls_ether.Frame.mtu - header_bytes - chunk) / ack_bytes

let max_acks_per_frame = 1 + acks_that_fit ~chunk:0

let data_frame ~src ~dst (d : data) =
  Uls_ether.Frame.make ~src ~dst
    ~payload_len:
      (header_bytes + (ack_bytes * List.length d.acks) + String.length d.chunk)
    (Data d)

let ack_frame ~src ~dst acks =
  Uls_ether.Frame.make ~src ~dst
    ~payload_len:(header_bytes + (ack_bytes * (List.length acks - 1)))
    (Ack acks)

let nack_frame ~src ~dst ~key ~next_expected =
  Uls_ether.Frame.make ~src ~dst ~payload_len:header_bytes
    (Nack { key; next_expected })
