(** Epoll-style readiness engine: watcher callbacks push handles onto a
    ready queue; [wait] returns batches in O(ready). See the .mli for
    the triggering semantics. *)

open Uls_engine

type trigger = Level | Edge

type handles = {
  g_registered : float ref;
  hc_wakeups : Stats.Counter.t;
  hc_spurious : Stats.Counter.t;
  hs_ready_batch : Stats.Summary.t;
}

type 'a t = {
  node : int;
  metrics : Metrics.t;
  mh : handles;
  ready : 'a handle Queue.t;
  cond : Cond.t;
  mutable kicked : bool;
  mutable last_batch : 'a handle list;
      (* previous wait's delivery, re-checked (O(batch)) to re-arm
         still-readable level-triggered handles *)
  mutable n_registered : int;
}

and 'a handle = {
  h_q : 'a t;
  h_payload : 'a;
  h_readable : unit -> bool;
  h_mode : trigger;
  mutable h_queued : bool;
  mutable h_registered : bool;
}

let create sim ~node =
  let metrics = Metrics.for_sim sim in
  {
    node;
    metrics;
    mh =
      {
        g_registered = Metrics.gauge metrics ~node "server.evq.registered";
        hc_wakeups = Metrics.counter metrics ~node "server.evq.wakeups";
        hc_spurious = Metrics.counter metrics ~node "server.evq.spurious";
        hs_ready_batch = Metrics.histogram metrics ~node "server.evq.ready_batch";
      };
    ready = Queue.create ();
    cond = Cond.create ~label:(Printf.sprintf "evq:%d" node) sim;
    kicked = false;
    last_batch = [];
    n_registered = 0;
  }

let registered t = t.n_registered

let enqueue t h =
  h.h_queued <- true;
  Queue.push h t.ready;
  Cond.broadcast t.cond

(* The watcher callback: runs in whatever fiber made the socket ready.
   Dedup via h_queued keeps the ready queue O(registered) worst case and
   each wake-up O(1). *)
let on_event h =
  if h.h_registered && not h.h_queued then enqueue h.h_q h

let register t ?(mode = Level) ~readable ~watch payload =
  let h =
    {
      h_q = t;
      h_payload = payload;
      h_readable = readable;
      h_mode = mode;
      h_queued = false;
      h_registered = true;
    }
  in
  t.n_registered <- t.n_registered + 1;
  t.mh.g_registered := float_of_int t.n_registered;
  watch (fun () -> on_event h);
  if readable () then enqueue t h;
  h

let deregister h =
  if h.h_registered then begin
    h.h_registered <- false;
    let t = h.h_q in
    t.n_registered <- t.n_registered - 1;
    t.mh.g_registered := float_of_int t.n_registered
  end

let wait t =
  (* Level-triggered re-arm: anything delivered last time and still
     readable goes around again. O(previous batch), not O(registered). *)
  List.iter
    (fun h ->
      if h.h_registered && h.h_mode = Level && not h.h_queued
         && h.h_readable ()
      then enqueue t h)
    t.last_batch;
  t.last_batch <- [];
  while Queue.is_empty t.ready && not t.kicked do
    Cond.wait t.cond
  done;
  t.kicked <- false;
  Stats.Counter.incr t.mh.hc_wakeups;
  let batch = ref [] in
  while not (Queue.is_empty t.ready) do
    let h = Queue.pop t.ready in
    h.h_queued <- false;
    if not h.h_registered then () (* deregistered while ready: discard *)
    else if h.h_mode = Level && not (h.h_readable ()) then
      (* queued by an event but drained (or never readable) by delivery
         time — the epoll definition of a spurious wake-up *)
      Stats.Counter.incr t.mh.hc_spurious
    else batch := h :: !batch
  done;
  let batch = List.rev !batch in
  t.last_batch <- batch;
  Stats.Summary.add t.mh.hs_ready_batch (float_of_int (List.length batch));
  List.map (fun h -> h.h_payload) batch

let kick t =
  t.kicked <- true;
  Cond.broadcast t.cond
