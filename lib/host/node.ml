open Uls_engine

type t = {
  id : int;
  sim : Sim.t;
  model : Cost_model.t;
  os : Os.t;
  mutable busy : Time.ns;
}

let create sim model ~id = { id; sim; model; os = Os.create sim model; busy = 0 }
let id t = t.id
let sim t = t.sim
let model t = t.model
let os t = t.os

let compute t d =
  t.busy <- t.busy + d;
  Sim.delay t.sim d

let copy t ~src ~src_off ~dst ~dst_off ~len =
  Memory.blit ~src ~src_off ~dst ~dst_off ~len;
  compute t (Cost_model.copy_cost t.model len)

let busy_time t = t.busy
