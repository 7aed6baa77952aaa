open Uls_engine

type t = {
  sim : Sim.t;
  model : Cost_model.t;
  pinned : (int, unit) Hashtbl.t; (* region id -> pinned *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable syscalls : int;
}

let create sim model =
  { sim; model; pinned = Hashtbl.create 64; cache_hits = 0; cache_misses = 0; syscalls = 0 }

let syscall t =
  t.syscalls <- t.syscalls + 1;
  Sim.delay t.sim t.model.Cost_model.syscall

let interrupt t = Sim.delay t.sim t.model.Cost_model.interrupt
let context_switch t = Sim.delay t.sim t.model.Cost_model.context_switch
let wakeup_latency t = t.model.Cost_model.sched_wakeup

let pin_region t region ~off:_ ~len =
  let key = Memory.id region in
  if Hashtbl.mem t.pinned key then t.cache_hits <- t.cache_hits + 1
  else begin
    t.cache_misses <- t.cache_misses + 1;
    t.syscalls <- t.syscalls + 1;
    Hashtbl.replace t.pinned key ();
    (* Pin the whole region: EMP pins the memory area once and reuses it. *)
    let bytes = max len (Memory.length region) in
    Sim.delay t.sim (Cost_model.pin_cost t.model ~bytes)
  end

let prepin t region = Hashtbl.replace t.pinned (Memory.id region) ()
let unpin t region = Hashtbl.remove t.pinned (Memory.id region)
let pinned_regions t = Hashtbl.length t.pinned

let translation_cache_hits t = t.cache_hits
let translation_cache_misses t = t.cache_misses

let flush_translation_cache t =
  Hashtbl.reset t.pinned

let syscalls_made t = t.syscalls
