open Uls_engine

type t = {
  sim : Sim.t;
  name : string;
  xmit : Resource.t;
  bits_per_ns : float;
  propagation : Time.ns;
  mutable receiver : (Frame.t -> unit) option;
  mutable fault : Fault.t option;
  mutable frames : int;
  mutable bytes : int;
}

let create sim ?(bits_per_ns = 1.0) ?(propagation = 500) ~name () =
  if bits_per_ns <= 0. then invalid_arg "Link.create: rate";
  {
    sim;
    name;
    xmit = Resource.create sim ~name;
    bits_per_ns;
    propagation;
    receiver = None;
    fault = None;
    frames = 0;
    bytes = 0;
  }

let set_receiver t f = t.receiver <- Some f
let set_fault t fault = t.fault <- Some fault

let transmit_time t frame =
  let bits = float_of_int (Frame.wire_bytes frame * 8) in
  int_of_float (Float.round (bits /. t.bits_per_ns))

let deliver_at t when_ frame =
  Sim.at t.sim when_ (fun () ->
      match t.receiver with
      | Some deliver -> deliver frame
      | None -> ())

let send t frame =
  t.frames <- t.frames + 1;
  t.bytes <- t.bytes + Frame.wire_bytes frame;
  (* The sender always pays the transmit time: a frame lost or damaged
     on the wire still occupied the wire. *)
  let finish = Resource.completion_after t.xmit (transmit_time t frame) in
  let arrival = finish + t.propagation in
  let verdict =
    match t.fault with
    | None -> Fault.Deliver
    | Some fault ->
      Fault.decide fault ~link:t.name ~src:frame.Frame.src ~dst:frame.Frame.dst
  in
  match verdict with
  | Fault.Deliver -> deliver_at t arrival frame
  | Fault.Drop _ -> ()
  | Fault.Corrupt -> deliver_at t arrival (Frame.corrupt frame)
  | Fault.Duplicate ->
    deliver_at t arrival frame;
    (* The copy arrives back to back, one frame time later. *)
    deliver_at t (arrival + transmit_time t frame) frame
  | Fault.Delay extra -> deliver_at t (arrival + extra) frame

let frames_sent t = t.frames
let bytes_sent t = t.bytes
let busy_until t = Resource.free_at t.xmit
