(** SO_REUSEPORT-style accept sharding: one bound listener fanned out
    into N shard listeners, each consumable by its own {!Sched}. See the
    .mli for the steering contract. *)

open Uls_engine
module Api = Uls_api.Sockets_api

(* SplitMix64's finalizer: the steering hash must depend on every bit of
   the peer address (client ephemeral ports are sequential) and be
   stable across runs — Hashtbl.hash guarantees neither. *)
let hash (a : Api.addr) =
  Int64.to_int (Rng.mix (Int64.of_int ((a.node * 65_599) + a.port))) land max_int

type shard = {
  s_queue : (Api.stream * Api.addr) Queue.t;
  mutable s_watchers : (unit -> unit) list;
  mutable s_closed : bool;
  s_cond : Cond.t;
}

type t = {
  sim : Sim.t;
  node : int;
  under : Api.listener;
  shards : shard array;
  metrics : Metrics.t;
  h_steered : Stats.Counter.t;
  mutable open_shards : int;
  mutable running : bool;
  wake : Cond.t;
}

let fire shard = List.iter (fun f -> f ()) shard.s_watchers

let deliver t (stream, peer) =
  let i = hash peer mod Array.length t.shards in
  let shard = t.shards.(i) in
  if shard.s_closed then (try stream.Api.close () with _ -> ())
  else begin
    Queue.push (stream, peer) shard.s_queue;
    Stats.Counter.incr t.h_steered;
    Cond.broadcast shard.s_cond;
    fire shard
  end

let drain t =
  let stop = ref false in
  while t.running && not !stop do
    match t.under.Api.try_accept () with
    | exception _ -> stop := true
    | None -> stop := true
    | Some conn -> deliver t conn
  done

(* The demux fiber is the only consumer of the real listener. The
   wait_until predicate re-checks queued work, so a readiness callback
   firing while a previous drain is still running cannot be lost. *)
let demux t () =
  while t.running do
    Cond.wait_until t.wake (fun () ->
        (not t.running)
        || (try t.under.Api.pending () > 0 with _ -> false));
    drain t
  done

let shard_listener t i =
  let shard = t.shards.(i) in
  let pop () =
    let (stream, peer) = Queue.pop shard.s_queue in
    (stream, peer)
  in
  {
    Api.accept =
      (fun () ->
        Cond.wait_until shard.s_cond (fun () ->
            shard.s_closed || not (Queue.is_empty shard.s_queue));
        if not (Queue.is_empty shard.s_queue) then pop ()
        else raise Api.Connection_closed);
    try_accept =
      (fun () -> if Queue.is_empty shard.s_queue then None else Some (pop ()));
    acceptable = (fun () -> not (Queue.is_empty shard.s_queue));
    watch_accept = (fun f -> shard.s_watchers <- f :: shard.s_watchers);
    pending = (fun () -> Queue.length shard.s_queue);
    close_listener =
      (fun () ->
        if not shard.s_closed then begin
          shard.s_closed <- true;
          Queue.iter
            (fun (s, _) -> try s.Api.close () with _ -> ())
            shard.s_queue;
          Queue.clear shard.s_queue;
          Cond.broadcast shard.s_cond;
          fire shard;
          t.open_shards <- t.open_shards - 1;
          if t.open_shards = 0 then begin
            t.running <- false;
            (try t.under.Api.close_listener () with _ -> ());
            Cond.broadcast t.wake
          end
        end);
  }

let listeners sim ~node ~shards under =
  if shards < 1 then invalid_arg "Reuseport.listeners: shards < 1";
  let metrics = Metrics.for_sim sim in
  let t =
    {
      sim;
      node;
      under;
      shards =
        Array.init shards (fun i ->
            {
              s_queue = Queue.create ();
              s_watchers = [];
              s_closed = false;
              s_cond =
                Cond.create
                  ~label:(Printf.sprintf "reuseport:%d shard %d" node i)
                  sim;
            });
      metrics;
      h_steered = Metrics.counter metrics ~node "server.reuseport.steered";
      open_shards = shards;
      running = true;
      wake = Cond.create ~label:(Printf.sprintf "reuseport:%d wake" node) sim;
    }
  in
  (* The watcher only signals; draining happens in the demux fiber, so
     no blocking work ever runs inside the stack's readiness callback. *)
  under.Api.watch_accept (fun () -> Cond.broadcast t.wake);
  Sim.spawn sim
    ~name:(Printf.sprintf "reuseport-demux-%d" node)
    ~daemon:true (demux t);
  Array.init shards (shard_listener t)
