(* Event queues. [`Wheel], the production queue and the default, keeps
   each pending event in a slot of its own int-keyed slab ({!Wheel}).

   [`Heap] is the parity oracle and the throughput ablation: a
   polymorphic binary heap of task cells recycled through an intrusive
   free list ([dummy_task] terminates it). The wheel has no task cells
   because a pooled cell is old: every [cell.run <- closure] stores a
   young closure into an old block through the write barrier, which
   costs more than the allocation the pool saves. The heap keeps them
   so that the cost gap measured by the engine gate's wheel/heap ratios
   and the benchmark's [--sched heap] perturbation does not move. *)
type task = {
  mutable time : Time.ns;
  mutable seq : int;
  mutable run : unit -> unit;
  mutable free_next : task;
  mutable keyed : bool;  (* a {!timer}: listed in [timers] until it runs *)
}

let nop () = ()

(* A cancelled heap cell's [run]: the cell stays in the heap and is
   dropped, never run, when it reaches the top. *)
let cancelled () = invalid_arg "Sim: a cancelled task was dispatched"

let rec dummy_task =
  { time = max_int; seq = max_int; run = nop; free_next = dummy_task;
    keyed = false }

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

(* A parked fiber is a cell of an intrusive doubly-linked ring headed
   by a per-sim sentinel, so parking and unparking are O(1) and allocate
   this one cell. Unlinking points the cell at itself, which is also how
   a resume tells that it already ran. *)
type park = {
  pk_fiber : string;
  pk_label : string;
  pk_since : Time.ns;
  pk_daemon : bool;
  mutable pk_prev : park;
  mutable pk_next : park;
}

type parked = {
  fiber : string;
  label : string;
  since : Time.ns;
  daemon : bool;
}

(* Both queues dispatch in identical (time, seq) order, so the choice
   is a pure throughput ablation. *)
type queue =
  | Q_heap of task Heap.t
  | Q_wheel of Wheel.t

(* One filled slot of a sim's observer store: a value and the type
   identifier of its {!key}. *)
type binding = Binding : 'a Type.Id.t * 'a -> binding

type t = {
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
  parked : park;  (* sentinel of the parked-fiber ring *)
  mutable free : task;  (* head of the heap's recycled task-cell list *)
  mutable pooled : int;
  timers : (int, task) Hashtbl.t;
      (* heap only: pending {!timer} cells by seq, the heap's handles *)
  mutable delay_ns : Time.ns;
      (* the {!delay} being performed: set by [delay], read and cleared
         by the performing fiber's handler, so the effect is a constant *)
  mutable store : binding list;  (* the observers {!get} filled so far *)
}

exception Fiber_failure of string * exn

let compare_task a b =
  let c = compare a.time b.time in
  if c <> 0 then c else compare a.seq b.seq

let create ?(sched = `Wheel) () =
  {
    q =
      (match sched with
      | `Heap -> Q_heap (Heap.create ~cmp:compare_task)
      | `Wheel -> Q_wheel (Wheel.create ()));
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
    parked =
      (let rec head =
         { pk_fiber = ""; pk_label = ""; pk_since = 0; pk_daemon = false;
           pk_prev = head; pk_next = head }
       in
       head);
    free = dummy_task;
    pooled = 0;
    timers = Hashtbl.create (match sched with `Heap -> 64 | `Wheel -> 1);
    delay_ns = 0;
    store = [];
  }

let now t = t.now
let blocked_fibers t = t.blocked
let live_fibers t = t.live
let events_executed t = t.executed
let stop t = t.stopped <- true
let current_fiber t = t.cur_fiber
let current_fiber_id t = t.cur_fiber_id

type tiebreak_spec = [ `Fifo | `Controlled of (int array -> int) * (t -> unit) ]

let set_tiebreak t = function
  | `Fifo -> t.tiebreak <- Fifo
  | `Controlled (choose, attach) ->
    attach t;
    t.tiebreak <- Controlled choose

(* Observer store: a key is a type identifier and the function that
   fills its slot. A sim holds a handful of observers, so a list walk
   finds one faster than a hash would. *)
type 'a key = { k_id : 'a Type.Id.t; k_init : t -> 'a }

let key init = { k_id = Type.Id.make (); k_init = init }

let rec find : type a. t -> a key -> binding list -> a =
 fun t k -> function
  | [] ->
    let v = k.k_init t in
    t.store <- Binding (k.k_id, v) :: t.store;
    v
  | Binding (id, v) :: rest -> (
    match Type.Id.provably_equal k.k_id id with
    | Some Type.Equal -> v
    | None -> find t k rest)

let get t k = find t k t.store

let set_hooks t h = t.hooks <- h

let new_sync_uid t =
  t.next_sync_uid <- t.next_sync_uid + 1;
  t.next_sync_uid

let note_op t kind uid label =
  match t.hooks with None -> () | Some h -> h.on_op kind uid label

let blocked_report t =
  let rec collect p acc =
    if p == t.parked then acc
    else
      collect p.pk_next
        ({ fiber = p.pk_fiber; label = p.pk_label; since = p.pk_since;
           daemon = p.pk_daemon }
        :: acc)
  in
  collect t.parked.pk_next []
  |> List.sort (fun a b ->
         let c = compare a.since b.since in
         if c <> 0 then c
         else
           let c = compare a.fiber b.fiber in
           if c <> 0 then c
           else
             let c = compare a.label b.label in
             if c <> 0 then c else compare a.daemon b.daemon)

(* Heap-path pool cap: beyond this, freed cells go to the GC instead —
   bounds the retained memory of a sim that briefly spiked its
   outstanding-event count. *)
let pool_max = 4096

let alloc_task t ~time ~seq ~run =
  let cell = t.free in
  if cell == dummy_task then
    { time; seq; run; free_next = dummy_task; keyed = false }
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
  if cell.keyed then begin
    cell.keyed <- false;
    Hashtbl.remove t.timers cell.seq
  end;
  if t.pooled < pool_max then begin
    cell.free_next <- t.free;
    t.free <- cell;
    t.pooled <- t.pooled + 1
  end

let schedule t ~time run =
  if time < t.now then invalid_arg "Sim: scheduling in the past";
  t.seq <- t.seq + 1;
  match t.q with
  | Q_heap h -> Heap.push h (alloc_task t ~time ~seq:t.seq ~run)
  | Q_wheel w -> ignore (Wheel.add w ~time ~seq:t.seq run : int)

let at t time run = schedule t ~time run

(* Timer handles. On the wheel a handle packs the event's slot (low
   [slot_bits]) with the low 32 bits of its seq, so a handle whose slot
   was freed ([seq] -1) or reused (another seq) no longer matches. On
   the heap it is the seq itself, looked up in [timers]. *)
let slot_bits = 30
let seq_mask = (1 lsl 32) - 1

let timer t time run =
  if time < t.now then invalid_arg "Sim: scheduling in the past";
  t.seq <- t.seq + 1;
  match t.q with
  | Q_heap h ->
    let tk = alloc_task t ~time ~seq:t.seq ~run in
    tk.keyed <- true;
    Hashtbl.replace t.timers t.seq tk;
    Heap.push h tk;
    t.seq
  | Q_wheel w ->
    let s = Wheel.add w ~time ~seq:t.seq run in
    if s lsr slot_bits <> 0 then invalid_arg "Sim.timer: event slab too large";
    ((t.seq land seq_mask) lsl slot_bits) lor s

let cancel t h =
  if h >= 0 then
    match t.q with
    | Q_heap _ -> (
      match Hashtbl.find_opt t.timers h with
      | Some tk ->
        Hashtbl.remove t.timers h;
        tk.keyed <- false;
        tk.run <- cancelled
      | None -> ())
    | Q_wheel w ->
      let s = h land ((1 lsl slot_bits) - 1) in
      if s < Wheel.capacity w then begin
        let seq = Wheel.seq w s in
        if seq >= 0 && seq land seq_mask = h lsr slot_bits then
          ignore (Wheel.cancel w s ~seq : bool)
      end

(* [Delay] carries nothing: its duration travels in the sim's
   [delay_ns], so performing it allocates nothing of ours. A fiber that
   performs it against another sim finds its own [delay_ns] unset and
   fails. *)
type _ Effect.t +=
  | Delay : unit Effect.t
  | Suspend : t * string * ((unit -> unit) -> unit) -> unit Effect.t

let delay t d =
  if d > 0 then begin
    t.delay_ns <- d;
    Effect.perform Delay
  end

let suspend t ?(label = "suspend") register =
  Effect.perform (Suspend (t, label, register))

(* A fiber's delay cell: the continuation of its pending {!delay}. The
   cell and the callback that resumes it are allocated once, at spawn,
   so a delay stores the continuation and schedules the callback without
   allocating. [placeholder] is the cell's initial value: a continuation
   captured once and never resumed, which keeps the cell's type exact. *)
type delay_cell = { mutable k : (unit, unit) Effect.Deep.continuation }

type _ Effect.t += Placeholder : unit Effect.t

let placeholder =
  let open Effect.Deep in
  let captured = ref None in
  let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option =
    function
    | Placeholder ->
      Some (fun (k : (unit, unit) continuation) -> captured := Some k)
    | _ -> None
  in
  match_with Effect.perform Placeholder { retc = Fun.id; exnc = raise; effc };
  Option.get !captured

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
  let cell = { k = placeholder } in
  let wake () =
    t.cur_fiber <- name;
    t.cur_fiber_id <- fid;
    continue cell.k ()
  in
  let on_delay =
    Some
      (fun k ->
        let d = t.delay_ns in
        if d <= 0 then
          discontinue k
            (Invalid_argument "Sim.delay: performed against another sim")
        else begin
          t.delay_ns <- 0;
          cell.k <- k;
          schedule t ~time:(t.now + d) wake
        end)
  in
  let effc : type a. a Effect.t -> ((a, unit) continuation -> unit) option =
    function
    | Delay -> on_delay
    | Suspend (t', label, register) ->
      Some
        (fun k ->
          assert (t' == t);
          t.blocked <- t.blocked + 1;
          let head = t.parked in
          let pk =
            { pk_fiber = name; pk_label = label; pk_since = t.now;
              pk_daemon = daemon; pk_prev = head; pk_next = head.pk_next }
          in
          head.pk_next.pk_prev <- pk;
          head.pk_next <- pk;
          let unpark () =
            t.blocked <- t.blocked - 1;
            pk.pk_prev.pk_next <- pk.pk_next;
            pk.pk_next.pk_prev <- pk.pk_prev;
            pk.pk_prev <- pk;
            pk.pk_next <- pk
          in
          let resume () =
            if pk.pk_next != pk then begin
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
            if pk.pk_next != pk then unpark ();
            finish ();
            raise (Fiber_failure (name, e)))
    | _ -> None
  in
  match_with body () { retc = Fun.id; exnc = raise; effc }

let spawn_fiber t ~name ~daemon time f =
  t.live <- t.live + 1;
  t.next_fiber_id <- t.next_fiber_id + 1;
  let fid = t.next_fiber_id in
  (match t.hooks with
  | None -> ()
  | Some h -> h.on_spawn ~parent:t.cur_fiber_id ~child:fid ~name);
  schedule t ~time (fun () -> run_fiber t ~daemon ~fid name f)

let spawn_at t ?(name = "fiber") time f = spawn_fiber t ~name ~daemon:false time f

let spawn t ?(name = "fiber") ?(daemon = false) f =
  spawn_fiber t ~name ~daemon t.now f

let dispatched t ~time ~seq =
  t.now <- time;
  t.executed <- t.executed + 1;
  match t.hooks with None -> () | Some h -> h.on_dispatch ~seq ~time

(* Under [Controlled], every event sharing the minimum timestamp is
   popped and the chooser picks which runs next (by index into the seq
   array, which is in FIFO order); the rest are re-queued untouched. A
   singleton tie is not a decision point. Due events re-queue into the
   wheel's exact-order near-future heap, so push-back is order-safe on
   both queues. [next] pops the following event due at the tie's time,
   if any. *)
let choose_tied choose first ~next ~seq ~requeue =
  let rec gather acc =
    match next () with Some x -> gather (x :: acc) | None -> List.rev acc
  in
  match gather [] with
  | [] -> first
  | rest ->
    let all = Array.of_list (first :: rest) in
    let idx = choose (Array.map seq all) in
    let idx = if idx < 0 || idx >= Array.length all then 0 else idx in
    Array.iteri (fun i x -> if i <> idx then requeue x) all;
    all.(idx)

(* The heap's minimum live cell, dropping cancelled cells that reached
   the top (the wheel's [peek] does the same with its slots). *)
let rec heap_peek t h =
  match Heap.peek h with
  | Some tk when tk.run == cancelled ->
    ignore (Heap.pop h : task option);
    release_task t tk;
    heap_peek t h
  | top -> top

(* Remove the event to run next from the queue (the minimum, or the
   chooser's pick of the tie), account its dispatch, and return its
   callback. [time] is the minimum's timestamp. *)
let next_heap t h ~time =
  let tk = Option.get (Heap.pop h) in
  let tk =
    match t.tiebreak with
    | Fifo -> tk
    | Controlled choose ->
      let next () =
        match heap_peek t h with
        | Some tk' when tk'.time = time -> Heap.pop h
        | _ -> None
      in
      choose_tied choose tk ~next ~seq:(fun tk -> tk.seq) ~requeue:(Heap.push h)
  in
  dispatched t ~time ~seq:tk.seq;
  (* Recycle the cell before running: the closure is extracted first, so
     even a raising task doesn't leak its cell, and tasks the closure
     schedules can safely reuse it. *)
  let f = tk.run in
  release_task t tk;
  f

let next_wheel t w ~time =
  let s = Wheel.pop w in
  let s =
    match t.tiebreak with
    | Fifo -> s
    | Controlled choose ->
      let next () =
        let s' = Wheel.peek w in
        if s' >= 0 && Wheel.time w s' = time then Some (Wheel.pop w) else None
      in
      choose_tied choose s ~next ~seq:(Wheel.seq w) ~requeue:(Wheel.reinsert w)
  in
  dispatched t ~time ~seq:(Wheel.seq w s);
  Wheel.take w s

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
      let time =
        match t.q with
        | Q_heap h -> (
          match heap_peek t h with Some tk -> tk.time | None -> -1)
        | Q_wheel w ->
          let s = Wheel.peek w in
          if s < 0 then -1 else Wheel.time w s
      in
      if time < 0 then begin
        result := `Quiescent;
        running := false
      end
      else
        match until with
        | Some limit when time > limit ->
          t.now <- limit;
          result := `Time_limit;
          running := false
        | _ ->
          let f =
            match t.q with
            | Q_heap h -> next_heap t h ~time
            | Q_wheel w -> next_wheel t w ~time
          in
          f ()
  done;
  !result
