open Uls_engine

type t = {
  sim : Sim.t;
  n : int;
  uplinks : Link.t array;
  sw : Switch.t;
}

let create sim ?bits_per_ns ?propagation ?fwd_latency ?queue_limit ~stations () =
  if stations <= 0 then invalid_arg "Network.create: stations";
  let sw = Switch.create sim ?fwd_latency ?queue_limit ~ports:stations () in
  let make_uplink i =
    let link =
      Link.create sim ?bits_per_ns ?propagation
        ~name:(Printf.sprintf "uplink-%d" i)
        ()
    in
    Link.set_receiver link (fun frame -> Switch.ingress sw ~port:i frame);
    link
  in
  { sim; n = stations; uplinks = Array.init stations make_uplink; sw }

let attach t ~station handler =
  Switch.connect_station t.sw ~port:station ~station handler

let uplink t ~station = t.uplinks.(station)
let send t frame = Link.send t.uplinks.(frame.Frame.src) frame
let switch t = t.sw
let set_fault_filter t f = Switch.set_fault_filter t.sw f

let set_fault t fault =
  (* Faults can strike on any hop: station uplinks ("uplink-<i>"), the
     switch fabric ("sw-in-<port>") and the switch-to-station egress
     links ("sw-egress-<i>"). Per-link plans key on those names. *)
  Array.iter (fun link -> Link.set_fault link fault) t.uplinks;
  Switch.set_fault t.sw fault;
  for i = 0 to t.n - 1 do
    Link.set_fault (Switch.egress t.sw ~port:i) fault
  done
