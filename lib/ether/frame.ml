type payload = ..
type payload += Raw

type t = {
  src : int;
  dst : int;
  payload_len : int;
  payload : payload;
  corrupted : bool;
}

let mtu = 1500
let header_bytes = 14 + 4
let overhead_bytes = 8 + 12
let min_frame = 64 (* header + payload + FCS, before preamble/IFG *)

let make ~src ~dst ~payload_len payload =
  if payload_len < 0 || payload_len > mtu then
    invalid_arg (Printf.sprintf "Frame.make: payload_len %d" payload_len);
  { src; dst; payload_len; payload; corrupted = false }

let corrupt t = { t with corrupted = true }
let corrupted t = t.corrupted

let wire_bytes t =
  let framed = max min_frame (t.payload_len + header_bytes) in
  framed + overhead_bytes
