type t = {
  sim : Sim.t;
  name : string;
  has_work : unit -> bool;
  step : unit -> unit;
  mutable running : bool;
}

let create sim ~name ~has_work step =
  { sim; name; has_work; step; running = false }

let rec drain t =
  if t.has_work () then begin
    t.step ();
    drain t
  end
  else t.running <- false

let kick t =
  if (not t.running) && t.has_work () then begin
    t.running <- true;
    Sim.spawn t.sim ~name:t.name ~daemon:true (fun () -> drain t)
  end

type 'a ordered = {
  pending : 'a Queue.t;
  handler : t;
}

let ordered sim ~name ~ready handle =
  let pending = Queue.create () in
  let has_work () =
    (not (Queue.is_empty pending)) && ready (Queue.peek pending)
  in
  let step () = handle (Queue.pop pending) in
  { pending; handler = create sim ~name ~has_work step }

let push o x = Queue.push x o.pending
let kick_ordered o = kick o.handler

let retain o keep =
  let kept = Queue.create () in
  Queue.iter (fun x -> if keep x then Queue.push x kept) o.pending;
  Queue.clear o.pending;
  Queue.transfer kept o.pending
