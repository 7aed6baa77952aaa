open Uls_engine

type t = {
  sim : Sim.t;
  model : Cost_model.t;
  pinned : unit Int_tbl.t; (* region id -> pinned *)
  mutable cache_hits : int;
  mutable cache_misses : int;
}

let create sim model =
  { sim; model; pinned = Int_tbl.create 64; cache_hits = 0; cache_misses = 0 }

let syscall t =
  Sim.delay t.sim t.model.Cost_model.syscall

let pin_region t region ~off:_ ~len =
  let key = Memory.id region in
  if Int_tbl.mem t.pinned key then t.cache_hits <- t.cache_hits + 1
  else begin
    t.cache_misses <- t.cache_misses + 1;
    Int_tbl.replace t.pinned key ();
    (* Pin the whole region: EMP pins the memory area once and reuses it. *)
    let bytes = max len (Memory.length region) in
    Sim.delay t.sim (Cost_model.pin_cost t.model ~bytes)
  end

let prepin t region = Int_tbl.replace t.pinned (Memory.id region) ()
let unpin t region = Int_tbl.remove t.pinned (Memory.id region)
let pinned_regions t = Int_tbl.length t.pinned

let translation_cache_hits t = t.cache_hits
let translation_cache_misses t = t.cache_misses
