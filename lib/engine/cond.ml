type waiter = {
  mutable woken : bool;
  mutable timer : int;
      (* a pending [wait_timeout]'s {!Sim.timer} handle; [timed_out]
         once that timer fired; else [no_timer] *)
  resume : unit -> unit;
}

let no_timer = -1
let timed_out = -2

type t = {
  sim : Sim.t;
  uid : int;  (* sync identity for happens-before tracking *)
  label : string;
  queue : waiter Queue.t;
}

let create ?(label = "cond") sim =
  { sim; uid = Sim.new_sync_uid sim; label; queue = Queue.create () }

let label t = t.label

(* Waiters cancelled by timeout stay in the queue ([woken = true]) and are
   discarded lazily by [signal]/[broadcast]. *)

let prune t =
  (* Drop timed-out waiters at the head so a fiber polling with
     [wait_timeout] in a loop cannot grow the queue unboundedly. *)
  let rec go () =
    match Queue.peek_opt t.queue with
    | Some w when w.woken ->
      ignore (Queue.pop t.queue);
      go ()
    | _ -> ()
  in
  go ()

let enqueue t resume =
  prune t;
  let w = { woken = false; timer = no_timer; resume } in
  Queue.push w t.queue;
  w

let wait t =
  Sim.note_op t.sim Op_cond_wait t.uid t.label;
  Sim.suspend t.sim ~label:t.label (fun resume -> ignore (enqueue t resume));
  Sim.note_op t.sim Op_cond_wake t.uid t.label

let wait_timeout t timeout =
  Sim.note_op t.sim Op_cond_wait t.uid t.label;
  let cell = ref None in
  Sim.suspend t.sim ~label:t.label (fun resume ->
      let w = enqueue t resume in
      cell := Some w;
      (* A wake cancels this timer ([wake]), so the queue holds nothing
         for a waiter that was signalled. *)
      w.timer <-
        Sim.timer t.sim
          (Sim.now t.sim + timeout)
          (fun () ->
            if not w.woken then begin
              w.woken <- true;
              w.timer <- timed_out;
              w.resume ()
            end));
  match !cell with
  | Some w when w.timer = timed_out ->
    `Timeout  (* no wake edge: nobody signalled *)
  | Some _ ->
    Sim.note_op t.sim Op_cond_wake t.uid t.label;
    `Ok
  | None ->
    (* The suspend registration runs before the fiber can be resumed, so
       the cell is always set by the time the fiber continues. *)
    failwith
      (Printf.sprintf
         "Cond.wait_timeout (%s): resumed before the waiter was registered"
         t.label)

(* Wake a waiter that is still parked, withdrawing its timeout: a
   woken [wait_timeout] leaves nothing queued behind it. *)
let wake t w =
  w.woken <- true;
  if w.timer >= 0 then begin
    Sim.cancel t.sim w.timer;
    w.timer <- no_timer
  end;
  w.resume ()

let signal t =
  Sim.note_op t.sim Op_cond_signal t.uid t.label;
  let rec pop () =
    match Queue.take_opt t.queue with
    | None -> ()
    | Some w -> if w.woken then pop () else wake t w
  in
  pop ()

let broadcast t =
  Sim.note_op t.sim Op_cond_broadcast t.uid t.label;
  let rec drain () =
    match Queue.take_opt t.queue with
    | None -> ()
    | Some w ->
      if not w.woken then wake t w;
      drain ()
  in
  drain ()

let rec wait_until t pred =
  if not (pred ()) then begin
    wait t;
    wait_until t pred
  end
