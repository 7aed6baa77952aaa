type msg_key = {
  src_node : int;
  msg_id : int;
}

type data = {
  key : msg_key;
  tag : int;
  frame_idx : int;
  nframes : int;
  total_len : int;
  lwm : int;
  chunk : string;
}

type Uls_ether.Frame.payload +=
  | Data of data
  | Ack of { key : msg_key; acked : int }
  | Nack of { key : msg_key; next_expected : int }

let header_bytes = 24
let max_data_per_frame = Uls_ether.Frame.mtu - header_bytes

let frames_for len =
  if len <= 0 then 1
  else (len + max_data_per_frame - 1) / max_data_per_frame

let data_frame ~src ~dst d =
  Uls_ether.Frame.make ~src ~dst
    ~payload_len:(header_bytes + String.length d.chunk)
    (Data d)

let ack_frame ~src ~dst ~key ~acked =
  Uls_ether.Frame.make ~src ~dst ~payload_len:header_bytes (Ack { key; acked })

let nack_frame ~src ~dst ~key ~next_expected =
  Uls_ether.Frame.make ~src ~dst ~payload_len:header_bytes
    (Nack { key; next_expected })

let pp_key fmt k = Format.fprintf fmt "%d#%d" k.src_node k.msg_id
