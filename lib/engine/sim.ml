(* Task cells are mutable and pooled: dispatch recycles the cell onto an
   intrusive free list (and drops the closure) instead of garbage for
   every event. [dummy_task] is the free-list terminator and the filler
   value for the wheel's internal arrays. *)
type task = {
  mutable time : Time.ns;
  mutable seq : int;
  mutable run : unit -> unit;
  mutable free_next : task;
}

let nop () = ()

let rec dummy_task =
  { time = max_int; seq = max_int; run = nop; free_next = dummy_task }

(* Same-timestamp dispatch order. FIFO dispatches a tie in [seq]
   (scheduling) order. [Controlled] hands each same-timestamp tie to an
   external chooser as an explicit decision point: the schedule
   explorer's instrument (timestamps themselves never move). *)
type tiebreak =
  | Fifo
  | Controlled of (int array -> int)

(* Sync-point instrumentation. Constructors are argless so classifying
   an operation never allocates; the entire hooks-off cost is one field
   read and branch per sync operation ([note_op]). *)
type op_kind =
  | Op_spawn
  | Op_cond_wait
  | Op_cond_wake
  | Op_cond_signal
  | Op_cond_broadcast
  | Op_mailbox_send
  | Op_mailbox_recv
  | Op_resource_use

type hooks = {
  on_op : op_kind -> int -> string -> unit;
      (* kind, sync-object uid, label; the acting fiber is
         [current_fiber_id] at call time *)
  on_spawn : parent:int -> child:int -> name:string -> unit;
  on_dispatch : seq:int -> time:Time.ns -> unit;
}

type park = {
  pk_fiber : string;
  pk_label : string;
  pk_since : Time.ns;
  pk_daemon : bool;
}

type parked = {
  fiber : string;
  label : string;
  since : Time.ns;
  daemon : bool;
}

(* Event queue: binary comparison heap (the original structure) or the
   hierarchical timing wheel. Both dispatch in identical
   (time, seq) order — the wheel's near-future heap uses the same
   comparator — so the choice is a pure throughput ablation. *)
type queue =
  | Q_heap of task Heap.t
  | Q_wheel of task Wheel.t

type t = {
  uid : int;  (* process-unique: lets side tables key off a simulation *)
  q : queue;
  mutable now : Time.ns;
  mutable seq : int;
  mutable live : int;
  mutable blocked : int;
  mutable stopped : bool;
  mutable executed : int;
  mutable tiebreak : tiebreak;
  mutable cur_fiber : string;
  mutable cur_fiber_id : int;  (* 0 = main; deterministic spawn order *)
  mutable next_fiber_id : int;
  mutable next_sync_uid : int;  (* Cond/Mailbox/Resource identities *)
  mutable hooks : hooks option;
  parked : (int, park) Hashtbl.t;
  mutable next_park : int;
  mutable free : task;  (* head of the recycled task-cell list *)
  mutable pooled : int;
}

exception Fiber_failure of string * exn

let compare_task a b =
  let c = compare a.time b.time in
  if c <> 0 then c else compare a.seq b.seq

let next_uid = ref 0

(* Module-level creation hook: the analysis layer attaches happens-before
   tracking to sims it cannot construct itself (scenarios build their own
   clusters deep inside [sc_run]). Unset in normal operation. *)
let create_hook : (t -> unit) option ref = ref None
let set_create_hook h = create_hook := h

let create ?(sched = `Heap) () =
  incr next_uid;
  let t = {
    uid = !next_uid;
    q =
      (match sched with
      | `Heap -> Q_heap (Heap.create ~cmp:compare_task)
      | `Wheel ->
        Q_wheel
          (Wheel.create ~dummy:dummy_task ~time:(fun tk -> tk.time)
             ~cmp:compare_task ()));
    now = 0;
    seq = 0;
    live = 0;
    blocked = 0;
    stopped = false;
    executed = 0;
    tiebreak = Fifo;
    cur_fiber = "main";
    cur_fiber_id = 0;
    next_fiber_id = 0;
    next_sync_uid = 0;
    hooks = None;
    parked = Hashtbl.create 16;
    next_park = 0;
    free = dummy_task;
    pooled = 0;
  }
  in
  (match !create_hook with None -> () | Some f -> f t);
  t

let uid t = t.uid
let now t = t.now
let blocked_fibers t = t.blocked
let live_fibers t = t.live
let events_executed t = t.executed
let stop t = t.stopped <- true
let current_fiber t = t.cur_fiber
let current_fiber_id t = t.cur_fiber_id
let sched t = match t.q with Q_heap _ -> `Heap | Q_wheel _ -> `Wheel

type tiebreak_spec = [ `Fifo | `Controlled of (int array -> int) ]

let set_tiebreak t = function
  | `Fifo -> t.tiebreak <- Fifo
  | `Controlled choose -> t.tiebreak <- Controlled choose

let set_hooks t h = t.hooks <- h

let new_sync_uid t =
  t.next_sync_uid <- t.next_sync_uid + 1;
  t.next_sync_uid

let note_op t kind uid label =
  match t.hooks with None -> () | Some h -> h.on_op kind uid label

let blocked_report t =
  Hashtbl.fold
    (fun _ p acc ->
      { fiber = p.pk_fiber; label = p.pk_label; since = p.pk_since;
        daemon = p.pk_daemon }
      :: acc)
    t.parked []
  |> List.sort (fun a b ->
         let c = compare a.since b.since in
         if c <> 0 then c
         else
           let c = compare a.fiber b.fiber in
           if c <> 0 then c else compare a.label b.label)

(* Pool cap: beyond this, freed cells go to the GC instead — bounds the
   retained memory of a sim that briefly spiked its outstanding-event
   count. *)
let pool_max = 4096

let alloc_task t ~time ~seq ~run =
  let cell = t.free in
  if cell == dummy_task then { time; seq; run; free_next = dummy_task }
  else begin
    t.free <- cell.free_next;
    t.pooled <- t.pooled - 1;
    cell.free_next <- dummy_task;
    cell.time <- time;
    cell.seq <- seq;
    cell.run <- run;
    cell
  end

let release_task t cell =
  cell.run <- nop;  (* drop the closure and everything it captured *)
  if t.pooled < pool_max then begin
    cell.free_next <- t.free;
    t.free <- cell;
    t.pooled <- t.pooled + 1
  end

let schedule t ~time run =
  if time < t.now then invalid_arg "Sim: scheduling in the past";
  t.seq <- t.seq + 1;
  let cell = alloc_task t ~time ~seq:t.seq ~run in
  match t.q with
  | Q_heap h -> Heap.push h cell
  | Q_wheel w -> Wheel.push w cell

let at t time run = schedule t ~time run

type _ Effect.t +=
  | Delay : t * Time.ns -> unit Effect.t
  | Suspend : t * string * ((unit -> unit) -> unit) -> unit Effect.t

let delay t d = if d > 0 then Effect.perform (Delay (t, d))

let suspend t ?(label = "suspend") register =
  Effect.perform (Suspend (t, label, register))

let run_fiber t ~daemon ~fid name f =
  let open Effect.Deep in
  (* Exactly-once exit bookkeeping, shared by the normal return, an
     uncaught exception in the fiber body, and a failure inside a
     suspend registration — so [live] can never go stale on the failure
     path. *)
  let finished = ref false in
  let finish () =
    if not !finished then begin
      finished := true;
      t.live <- t.live - 1
    end
  in
  let body () =
    t.cur_fiber <- name;
    t.cur_fiber_id <- fid;
    (try f ()
     with e ->
       finish ();
       raise (Fiber_failure (name, e)));
    finish ()
  in
  let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option =
    function
    | Delay (t', d) ->
      Some
        (fun k ->
          assert (t' == t);
          schedule t ~time:(t.now + d) (fun () ->
              t.cur_fiber <- name;
              t.cur_fiber_id <- fid;
              continue k ()))
    | Suspend (t', label, register) ->
      Some
        (fun k ->
          assert (t' == t);
          t.blocked <- t.blocked + 1;
          t.next_park <- t.next_park + 1;
          let park_id = t.next_park in
          Hashtbl.replace t.parked park_id
            { pk_fiber = name; pk_label = label; pk_since = t.now;
              pk_daemon = daemon };
          let resumed = ref false in
          let unpark () =
            resumed := true;
            t.blocked <- t.blocked - 1;
            Hashtbl.remove t.parked park_id
          in
          let resume () =
            if not !resumed then begin
              unpark ();
              schedule t ~time:t.now (fun () ->
                  t.cur_fiber <- name;
                  t.cur_fiber_id <- fid;
                  continue k ())
            end
          in
          (* If registration itself raises, the fiber can never be
             resumed: undo the parking bookkeeping and account the fiber
             as dead before the exception escapes, or [blocked] (and
             [live]) would stay stale forever. *)
          match register resume with
          | () -> ()
          | exception e ->
            if not !resumed then unpark ();
            finish ();
            raise (Fiber_failure (name, e)))
    | _ -> None
  in
  match_with body () { retc = Fun.id; exnc = raise; effc }

let spawn_at t ?(name = "fiber") ?(daemon = false) time f =
  t.live <- t.live + 1;
  t.next_fiber_id <- t.next_fiber_id + 1;
  let fid = t.next_fiber_id in
  (match t.hooks with
  | None -> ()
  | Some h -> h.on_spawn ~parent:t.cur_fiber_id ~child:fid ~name);
  schedule t ~time (fun () -> run_fiber t ~daemon ~fid name f)

let spawn t ?name ?daemon f = spawn_at t ?name ?daemon t.now f

let q_peek t = match t.q with Q_heap h -> Heap.peek h | Q_wheel w -> Wheel.peek w
let q_pop t = match t.q with Q_heap h -> Heap.pop h | Q_wheel w -> Wheel.pop w
let q_push t cell =
  match t.q with Q_heap h -> Heap.push h cell | Q_wheel w -> Wheel.push w cell

(* Under [Controlled], every task sharing the minimum timestamp is popped
   and the chooser picks which runs next (by index into the seq array,
   which is in FIFO order); the rest are
   re-inserted untouched. A singleton tie is not a decision point. Due
   tasks re-insert into the wheel's exact-order near-future heap, so
   push-back is order-safe on both schedulers. *)
let pop_controlled t first choose =
  let rec gather acc =
    match q_peek t with
    | Some tk when tk.time = first.time ->
      ignore (q_pop t);
      gather (tk :: acc)
    | _ -> List.rev acc
  in
  match gather [] with
  | [] -> first
  | rest ->
    let all = Array.of_list (first :: rest) in
    let idx = choose (Array.map (fun (tk : task) -> tk.seq) all) in
    let idx = if idx < 0 || idx >= Array.length all then 0 else idx in
    Array.iteri (fun i tk -> if i <> idx then q_push t tk) all;
    all.(idx)

let run ?until t =
  t.stopped <- false;
  let result = ref `Quiescent in
  let running = ref true in
  while !running do
    if t.stopped then begin
      result := `Stopped;
      running := false
    end
    else
      match q_peek t with
      | None ->
        result := `Quiescent;
        running := false
      | Some task -> (
        match until with
        | Some limit when task.time > limit ->
          t.now <- limit;
          result := `Time_limit;
          running := false
        | _ ->
          ignore (q_pop t);
          let task =
            match t.tiebreak with
            | Fifo -> task
            | Controlled choose -> pop_controlled t task choose
          in
          t.now <- task.time;
          t.executed <- t.executed + 1;
          (match t.hooks with
          | None -> ()
          | Some h -> h.on_dispatch ~seq:task.seq ~time:task.time);
          (* Recycle the cell before running: the closure is extracted
             first, so even a raising task doesn't leak its cell, and
             tasks the closure schedules can safely reuse it. *)
          let f = task.run in
          release_task t task;
          f ())
  done;
  !result
