type t = {
  sim : Sim.t;
  uid : int;  (* sync identity for happens-before tracking *)
  name : string;
  mutable free_at : Time.ns;
  mutable busy : Time.ns;
  mutable jobs : int;
  mutable queue_delay : Time.ns;
}

let create sim ~name =
  { sim; uid = Sim.new_sync_uid sim; name; free_at = 0; busy = 0; jobs = 0;
    queue_delay = 0 }

let completion_after t d =
  if d < 0 then invalid_arg "Resource: negative duration";
  Sim.note_op t.sim Op_resource_use t.uid t.name;
  let now = Sim.now t.sim in
  let start = max now t.free_at in
  t.free_at <- start + d;
  t.busy <- t.busy + d;
  t.jobs <- t.jobs + 1;
  t.queue_delay <- t.queue_delay + (start - now);
  start + d

let use t d =
  let finish = completion_after t d in
  Sim.delay t.sim (finish - Sim.now t.sim)

let free_at t = max t.free_at (Sim.now t.sim)
let busy_time t = t.busy
let jobs t = t.jobs
let queue_delay_total t = t.queue_delay
