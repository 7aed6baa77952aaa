open Uls_engine
open Uls_host

type mode = Wakeup | Busy_poll

type stats = {
  mutable doorbells : int;
  mutable fetch_batches : int;
  mutable fetched : int;
  mutable submitted : int;
  mutable cq_overflows : int;
  mutable completed : int;
  mutable reaped : int;
  mutable cq_flushes : int;
}

type ('s, 'c) t = {
  sim : Sim.t;
  model : Cost_model.t;
  nic_cpu : Resource.t;
  mode : mode;
  sq : 's Cursor_ring.t;
  cq : 'c Cursor_ring.t;
  consume : 's -> unit;
  not_full : Cond.t;
  nic_work : Cond.t;
  on_doorbell : unit -> unit;
  on_fetch : int -> unit;
  stats : stats;
  mutable armed : bool;
  mutable cq_unflushed : int;
  cq_flush_work : Cond.t;
}

let stats t = t.stats
let mode t = t.mode

(* NIC-side fetch fiber. In [Wakeup] mode it services one doorbell at a
   time: everything visible in the SQ when the doorbell is honoured is
   fetched under a single [nic_doorbell_batch] mailbox-word charge plus
   one [nic_ring_slot_fetch] per descriptor. Entries submitted after the
   snapshot wait for the next doorbell. In [Busy_poll] mode there is no
   mailbox at all: the poller discovers the ring tail after a [poll_gap]
   delay and pays only the per-slot fetches. *)
let fetch_loop t () =
  let m = t.model in
  let rec loop () =
    Cond.wait_until t.nic_work (fun () ->
        (not (Cursor_ring.is_empty t.sq))
        && (t.mode = Busy_poll || t.armed));
    (match t.mode with
    | Wakeup ->
        t.armed <- false;
        let n = Cursor_ring.length t.sq in
        Resource.use t.nic_cpu
          (m.Cost_model.nic_doorbell_batch
          + (n * m.Cost_model.nic_ring_slot_fetch));
        t.on_fetch n;
        t.stats.fetch_batches <- t.stats.fetch_batches + 1;
        t.stats.fetched <- t.stats.fetched + n;
        let ds = Cursor_ring.pop_up_to t.sq ~max:n in
        Cond.broadcast t.not_full;
        List.iter t.consume ds
    | Busy_poll ->
        Sim.delay t.sim m.Cost_model.poll_gap;
        let n = Cursor_ring.length t.sq in
        if n > 0 then begin
          Resource.use t.nic_cpu (n * m.Cost_model.nic_ring_slot_fetch);
          t.stats.fetch_batches <- t.stats.fetch_batches + 1;
          t.stats.fetched <- t.stats.fetched + n;
          let ds = Cursor_ring.pop_up_to t.sq ~max:n in
          Cond.broadcast t.not_full;
          List.iter t.consume ds
        end);
    loop ()
  in
  loop ()

(* Completion-write coalescing (CQ moderation): instead of one
   8-byte completion DMA per finished descriptor, a flush fiber writes
   every completion accumulated since its last burst in a single DMA.
   The flush is self-clocking — while one burst's DMA occupies the
   engine, further completions pile up and ride the next burst — so the
   per-completion setup cost amortizes exactly when completion rate is
   high, which is when it matters. *)
let cq_flush_loop t flush () =
  let rec loop () =
    Cond.wait_until t.cq_flush_work (fun () -> t.cq_unflushed > 0);
    let k = t.cq_unflushed in
    t.cq_unflushed <- 0;
    t.stats.cq_flushes <- t.stats.cq_flushes + 1;
    flush k;
    loop ()
  in
  loop ()

let create ?(mode = Wakeup) ?(capacity = 1024) ?(label = "ring")
    ?(on_doorbell = fun () -> ()) ?(on_fetch = fun (_ : int) -> ())
    ~on_cq_flush sim ~model ~nic_cpu ~dummy_sub ~dummy_comp ~consume () =
  let t =
    {
      sim;
      model;
      nic_cpu;
      mode;
      sq = Cursor_ring.create ~capacity ~dummy:dummy_sub ();
      cq = Cursor_ring.create ~capacity ~dummy:dummy_comp ();
      consume;
      not_full = Cond.create ~label:(label ^ " sq-space") sim;
      nic_work = Cond.create ~label:(label ^ " nic-work") sim;
      on_doorbell;
      on_fetch;
      stats =
        {
          doorbells = 0;
          fetch_batches = 0;
          fetched = 0;
          submitted = 0;
          cq_overflows = 0;
          completed = 0;
          reaped = 0;
          cq_flushes = 0;
        };
      armed = false;
      cq_unflushed = 0;
      cq_flush_work = Cond.create ~label:(label ^ " cq-flush") sim;
    }
  in
  Sim.spawn sim ~name:(label ^ ".fetch") ~daemon:true (fetch_loop t);
  Sim.spawn sim ~name:(label ^ ".cqflush") ~daemon:true
    (cq_flush_loop t on_cq_flush);
  t

let ring_doorbell t =
  match t.mode with
  | Busy_poll ->
      (* Wakeup-free: the poller discovers work on its own; a doorbell
         call is a no-op (no MMIO charged, no counter bumped). *)
      Cond.signal t.nic_work
  | Wakeup ->
      if not (Cursor_ring.is_empty t.sq) then begin
        Sim.delay t.sim t.model.Cost_model.pio_write;
        t.stats.doorbells <- t.stats.doorbells + 1;
        t.on_doorbell ();
        t.armed <- true;
        Cond.signal t.nic_work
      end

let submit t x =
  Sim.delay t.sim t.model.Cost_model.ring_slot_post;
  if Cursor_ring.is_full t.sq then begin
    (* A full ring with an unrung doorbell would deadlock the producer
       in wakeup mode: flush first, then wait for space. *)
    ring_doorbell t;
    Cond.wait_until t.not_full (fun () -> not (Cursor_ring.is_full t.sq))
  end;
  Cursor_ring.push_exn t.sq x;
  t.stats.submitted <- t.stats.submitted + 1;
  if t.mode = Busy_poll then Cond.signal t.nic_work

let complete t c =
  if Cursor_ring.is_full t.cq then begin
    ignore (Cursor_ring.drop_oldest t.cq);
    t.stats.cq_overflows <- t.stats.cq_overflows + 1
  end;
  Cursor_ring.push_exn t.cq c;
  t.stats.completed <- t.stats.completed + 1;
  t.cq_unflushed <- t.cq_unflushed + 1;
  Cond.signal t.cq_flush_work

let reap t ~max =
  let xs = Cursor_ring.pop_up_to t.cq ~max in
  (match xs with
  | [] -> ()
  | _ :: rest ->
      let k = 1 + List.length rest in
      t.stats.reaped <- t.stats.reaped + k;
      Sim.delay t.sim
        (t.model.Cost_model.emp_host_reap
        + ((k - 1) * t.model.Cost_model.ring_reap_slot)));
  xs
