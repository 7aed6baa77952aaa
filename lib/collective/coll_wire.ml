open Uls_ether

type Frame.payload += Coll of { tag : int; body : string }

let header_bytes = 16
let max_body = Frame.mtu - header_bytes

let frame ~src ~dst ~tag body =
  if String.length body > max_body then
    invalid_arg
      (Printf.sprintf "Coll_wire.frame: body %d > %d" (String.length body)
         max_body);
  Frame.make ~src ~dst ~payload_len:(header_bytes + String.length body)
    (Coll { tag; body })

let classify frame =
  match frame.Frame.payload with
  | Coll c -> Some (frame.Frame.src, c.tag)
  | _ -> None

let body frame =
  match frame.Frame.payload with
  | Coll c -> c.body
  | _ -> invalid_arg "Coll_wire.body: not a collective frame"
