open Uls_engine
open Uls_host

type t = {
  sim : Sim.t;
  model : Cost_model.t;
  net : Uls_ether.Network.t;
  nodes : Node.t array;
  nics : Uls_nic.Tigon.t array;
  emps : Uls_emp.Endpoint.t option array;
  subs : Uls_substrate.Substrate.t option array;
  mutable tcp : Uls_tcp.Tcp_stack.t option;
  mutable fault : Fault.t option;
}

type stream = [ `Tcp of Uls_tcp.Config.t | `Sub of Uls_substrate.Options.t ]
type stack = [ stream | `Emp of Uls_emp.Endpoint.config ]

let stack_name = function
  | `Emp _ -> "EMP"
  | `Tcp _ -> "TCP"
  | `Sub o -> "EMP-" ^ Uls_substrate.Options.mode_name o

let create ?(model = Cost_model.paper_testbed) ?tiebreak
    ?(match_engine = Uls_nic.Match_list.Linear) ?sched ~n () =
  let sim = Sim.create ?sched () in
  (* Set before anything runs: under a controlled schedule the ties
     among the NIC/node setup tasks below are decision points too. *)
  (match tiebreak with Some tb -> Sim.set_tiebreak sim tb | None -> ());
  let net =
    Uls_ether.Network.create sim ~bits_per_ns:model.Cost_model.link_bits_per_ns
      ~propagation:model.Cost_model.link_propagation
      ~fwd_latency:model.Cost_model.switch_fwd_latency ~stations:n ()
  in
  let nodes = Array.init n (fun id -> Node.create sim model ~id) in
  let nics =
    Array.init n (fun id ->
        Uls_nic.Tigon.create ~match_engine sim model net ~node:id)
  in
  {
    sim;
    model;
    net;
    nodes;
    nics;
    emps = Array.make n None;
    subs = Array.make n None;
    tcp = None;
    fault = None;
  }

let sim t = t.sim
let model t = t.model
let network t = t.net
let size t = Array.length t.nodes
let node t i = t.nodes.(i)
let nic t i = t.nics.(i)

let emp ?config ?firmware t i =
  match t.emps.(i) with
  | Some e -> e
  | None ->
    let e = Uls_emp.Endpoint.create ?config ?firmware t.nodes.(i) t.nics.(i) in
    t.emps.(i) <- Some e;
    e

let substrate ?opts t i =
  match t.subs.(i) with
  | Some s -> s
  | None ->
    let firmware = Option.map Uls_substrate.Options.firmware opts in
    let s =
      Uls_substrate.Substrate.create ?opts t.nodes.(i) (emp ?firmware t i)
    in
    t.subs.(i) <- Some s;
    s

let substrate_api ?opts t =
  Uls_substrate.Substrate.api
    (Array.init (size t) (fun i -> substrate ?opts t i))

let tcp ?config t =
  match t.tcp with
  | Some stack -> stack
  | None ->
    let stack = Uls_tcp.Tcp_stack.create ?config ~nodes:t.nodes ~nics:t.nics () in
    t.tcp <- Some stack;
    stack

let tcp_api ?config t = Uls_tcp.Tcp_stack.api (tcp ?config t)

let api t = function
  | `Tcp config -> tcp_api ~config t
  | `Sub opts -> substrate_api ~opts t

let fault ?seed t =
  match t.fault with
  | Some f -> f
  | None ->
    let f = Fault.create ?seed t.sim in
    Uls_ether.Network.set_fault t.net f;
    t.fault <- Some f;
    f

let instantiated arr =
  Array.to_list arr
  |> List.mapi (fun i o -> Option.map (fun v -> (i, v)) o)
  |> List.filter_map Fun.id

let endpoints t = instantiated t.emps
let substrates t = instantiated t.subs

let run ?until t = Sim.run ?until t.sim
