(** Micro-benchmark drivers (§7.1–7.2): ping-pong latency and
    unidirectional stream bandwidth over raw EMP, kernel TCP, or the
    substrate. Every run builds a fresh two-node cluster, so experiments
    are independent and deterministic. *)

open Uls_engine
open Uls_host

type observe = Trace.t -> Metrics.t -> unit

(* Benchmarks double as the observability demo: with [observe] set they
   enable the cluster simulation's shared trace before any traffic and
   wrap the timed application loops in App-layer spans, so an exported
   trace shows the full stack from app call down to NIC work. *)
let observed_trace sim observe =
  let tr = Trace.for_sim sim in
  if Option.is_some observe then Trace.enable tr;
  tr

(* Hand the finished run's trace and metrics to [observe], if set. *)
let report ?(observe : observe option) (v, sim) =
  Option.iter (fun f -> f (Trace.for_sim sim) (Metrics.for_sim sim)) observe;
  v

(* --- raw EMP --------------------------------------------------------- *)

let emp_ping_pong ~observe ~size ~iters ~warmup =
  let c = Cluster.create ~n:2 () in
  let e0 = Cluster.emp c 0 and e1 = Cluster.emp c 1 in
  let sim = Cluster.sim c in
  let tr = observed_trace sim observe in
  let len = max 1 size in
  let buf0 = Memory.alloc len and buf1 = Memory.alloc len in
  let latency = ref 0. in
  Sim.spawn sim ~name:"pong" (fun () ->
      for _ = 1 to iters + warmup do
        let r = Uls_emp.Endpoint.post_recv e1 ~src:0 ~tag:7 buf1 ~off:0 ~len:size in
        ignore (Uls_emp.Endpoint.wait_recv e1 r);
        let s = Uls_emp.Endpoint.post_send e1 ~dst:0 ~tag:8 buf1 ~off:0 ~len:size in
        Uls_emp.Endpoint.wait_send e1 s
      done);
  Sim.spawn sim ~name:"ping" (fun () ->
      let sum = ref 0 in
      for i = 1 to iters + warmup do
        let t0 = Sim.now sim in
        Trace.span tr ~layer:Trace.App ~node:0 ~seq:i "app.rtt" (fun () ->
            let r =
              Uls_emp.Endpoint.post_recv e0 ~src:1 ~tag:8 buf0 ~off:0 ~len:size
            in
            let s =
              Uls_emp.Endpoint.post_send e0 ~dst:1 ~tag:7 buf0 ~off:0 ~len:size
            in
            Uls_emp.Endpoint.wait_send e0 s;
            ignore (Uls_emp.Endpoint.wait_recv e0 r));
        if i > warmup then sum := !sum + (Sim.now sim - t0)
      done;
      latency := float_of_int !sum /. float_of_int iters /. 2.);
  ignore (Cluster.run c);
  (!latency /. 1_000., sim)

let emp_bandwidth ~observe ~msg ~total =
  let c = Cluster.create ~n:2 () in
  let e0 = Cluster.emp c 0 and e1 = Cluster.emp c 1 in
  let sim = Cluster.sim c in
  let tr = observed_trace sim observe in
  let count = max 1 (total / msg) in
  let buf0 = Memory.alloc msg and buf1 = Memory.alloc msg in
  let result = ref 0. in
  Sim.spawn sim ~name:"sink" (fun () ->
      let recvs =
        List.init count (fun _ ->
            Uls_emp.Endpoint.post_recv e1 ~src:0 ~tag:7 buf1 ~off:0 ~len:msg)
      in
      List.iter (fun r -> ignore (Uls_emp.Endpoint.wait_recv e1 r)) recvs);
  Sim.spawn sim ~name:"src" (fun () ->
      let t0 = Sim.now sim in
      Trace.span tr ~layer:Trace.App ~node:0 "app.stream"
        ~args:[ ("bytes", string_of_int (msg * count)) ]
        (fun () ->
          let window = 16 in
          let pending = Queue.create () in
          for _ = 1 to count do
            if Queue.length pending >= window then
              Uls_emp.Endpoint.wait_send e0 (Queue.pop pending);
            Queue.push
              (Uls_emp.Endpoint.post_send e0 ~dst:1 ~tag:7 buf0 ~off:0 ~len:msg)
              pending
          done;
          Queue.iter (Uls_emp.Endpoint.wait_send e0) pending);
      result := Time.mbps ~bytes_transferred:(msg * count) ~elapsed:(Sim.now sim - t0));
  ignore (Cluster.run c);
  (!result, sim)

(* --- stack-level ------------------------------------------------------ *)

let api_ping_pong ~observe ~kind ~size ~iters ~warmup =
  let c = Cluster.create ~n:2 () in
  let api = Cluster.api c kind in
  let sim = Cluster.sim c in
  let tr = observed_trace sim observe in
  let latency = ref 0. in
  Sim.spawn sim ~name:"server" (fun () ->
      let l = api.Uls_api.Sockets_api.listen ~node:1 ~port:99 ~backlog:4 in
      let s, _ = l.accept () in
      (try
         for _ = 1 to iters + warmup do
           s.send (Uls_api.Sockets_api.recv_exact s size)
         done
       with Uls_api.Sockets_api.Connection_closed -> ());
      s.close ());
  Sim.spawn sim ~name:"client" (fun () ->
      Sim.delay sim (Time.us 50);
      let s = api.Uls_api.Sockets_api.connect ~node:0 { node = 1; port = 99 } in
      let payload = String.make size 'x' in
      let sum = ref 0 in
      for i = 1 to iters + warmup do
        let t0 = Sim.now sim in
        Trace.span tr ~layer:Trace.App ~node:0 ~seq:i "app.rtt" (fun () ->
            s.send payload;
            ignore (Uls_api.Sockets_api.recv_exact s size));
        if i > warmup then sum := !sum + (Sim.now sim - t0)
      done;
      latency := float_of_int !sum /. float_of_int iters /. 2.;
      s.close ());
  ignore (Cluster.run c);
  (!latency /. 1_000., sim)

let api_bandwidth ~observe ~kind ~msg ~total =
  let c = Cluster.create ~n:2 () in
  let api = Cluster.api c kind in
  let sim = Cluster.sim c in
  let tr = observed_trace sim observe in
  let count = max 1 (total / msg) in
  let result = ref 0. in
  Sim.spawn sim ~name:"sink" (fun () ->
      let l = api.Uls_api.Sockets_api.listen ~node:1 ~port:99 ~backlog:4 in
      let s, _ = l.accept () in
      let goal = msg * count in
      let rec drain got =
        if got < goal then begin
          let chunk = s.recv 65536 in
          if chunk = "" then () else drain (got + String.length chunk)
        end
      in
      drain 0;
      s.send "k";
      s.close ());
  Sim.spawn sim ~name:"src" (fun () ->
      Sim.delay sim (Time.us 50);
      let s = api.Uls_api.Sockets_api.connect ~node:0 { node = 1; port = 99 } in
      let payload = String.make msg 'y' in
      let t0 = Sim.now sim in
      Trace.span tr ~layer:Trace.App ~node:0 "app.stream"
        ~args:[ ("bytes", string_of_int (msg * count)) ]
        (fun () ->
          for _ = 1 to count do
            s.send payload
          done;
          ignore (s.recv 1));
      result := Time.mbps ~bytes_transferred:(msg * count) ~elapsed:(Sim.now sim - t0);
      s.close ());
  ignore (Cluster.run c);
  (!result, sim)

(* --- entry points ----------------------------------------------------- *)

let ping_pong ?observe ?(iters = 30) ?(warmup = 5) ~kind ~size () =
  report ?observe
    (match kind with
    | `Emp_raw -> emp_ping_pong ~observe ~size ~iters ~warmup
    | #Cluster.stream as kind ->
      api_ping_pong ~observe ~kind ~size ~iters ~warmup)

let bandwidth ?observe ?(total = 16 * 1024 * 1024) ~kind ~msg () =
  report ?observe
    (match kind with
    | `Emp_raw -> emp_bandwidth ~observe ~msg ~total
    | #Cluster.stream as kind -> api_bandwidth ~observe ~kind ~msg ~total)

(* --- collectives ------------------------------------------------------ *)

module Coll = Uls_collective.Group

(* Run one EMP group fiber per rank; [f] performs a single collective.
   A warm-up call absorbs group-formation skew, then [iters] calls are
   timed between per-rank timestamps: (max finish - min start) is the
   wall-clock span of the whole batch. *)
let coll_span ~observe ~nodes ~iters f =
  let c = Cluster.create ~n:nodes () in
  let eps = Array.init nodes (fun i -> Cluster.emp c i) in
  let sim = Cluster.sim c in
  ignore (observed_trace sim observe);
  let start = Array.make nodes max_int in
  let finish = Array.make nodes 0 in
  for r = 0 to nodes - 1 do
    Sim.spawn sim
      ~name:(Printf.sprintf "rank%d" r)
      (fun () ->
        let g = Uls_collective.Emp_group.create eps ~rank:r in
        f g ~rank:r;
        start.(r) <- Sim.now sim;
        for _ = 1 to iters do
          f g ~rank:r
        done;
        finish.(r) <- Sim.now sim)
  done;
  (match Cluster.run c with
  | `Quiescent -> ()
  | _ -> failwith "collective benchmark: cluster did not quiesce");
  (Array.fold_left max 0 finish - Array.fold_left min max_int start, sim)

let barrier_latency ?observe ?(iters = 10) ~alg ~nodes () =
  let span, sim =
    coll_span ~observe ~nodes ~iters (fun g ~rank:_ -> Coll.barrier ~alg g)
  in
  report ?observe (float_of_int span /. float_of_int iters /. 1_000., sim)

let coll_bandwidth ?observe ?(iters = 5) ~op ~alg ~nodes ~size () =
  (* float_sum combines 8-byte lanes, so keep allreduce payloads aligned. *)
  let size =
    match op with
    | `Allreduce -> max 8 ((size + 7) / 8 * 8)
    | `Bcast -> max 1 size
  in
  let payload = String.make size '\000' in
  let f g ~rank =
    match op with
    | `Bcast ->
      ignore (Coll.bcast ~alg g ~root:0 ~max:size (if rank = 0 then payload else ""))
    | `Allreduce ->
      ignore (Coll.allreduce ~alg g ~op:Coll.float_sum ~max:size payload)
  in
  let span, sim = coll_span ~observe ~nodes ~iters f in
  report ?observe
    (Time.mbps ~bytes_transferred:(size * iters) ~elapsed:span, sim)

let connect_time ~kind () =
  (* Mean time for connect() alone, over a fresh cluster. *)
  let c = Cluster.create ~n:2 () in
  let api = Cluster.api c kind in
  let sim = Cluster.sim c in
  let result = ref 0. in
  let iters = 10 in
  Sim.spawn sim ~name:"server" (fun () ->
      let l = api.Uls_api.Sockets_api.listen ~node:1 ~port:99 ~backlog:8 in
      for _ = 1 to iters do
        let s, _ = l.accept () in
        s.close ()
      done);
  Sim.spawn sim ~name:"client" (fun () ->
      Sim.delay sim (Time.us 50);
      let sum = ref 0 in
      for _ = 1 to iters do
        let t0 = Sim.now sim in
        let s = api.Uls_api.Sockets_api.connect ~node:0 { node = 1; port = 99 } in
        sum := !sum + (Sim.now sim - t0);
        s.close ();
        Sim.delay sim (Time.us 200)
      done;
      result := float_of_int !sum /. float_of_int iters);
  ignore (Cluster.run c);
  !result /. 1_000.
