(** Micro-benchmark drivers (§7.1–7.2): ping-pong latency and the one
    two-node stream (bandwidth, loss sweeps, host CPU) over raw EMP,
    kernel TCP, or the substrate. Every run builds a fresh cluster, so
    experiments are independent and deterministic. *)

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
let hand_off ?(observe : observe option) (v, sim) =
  Option.iter (fun f -> f (Trace.for_sim sim) (Metrics.for_sim sim)) observe;
  v

(* The payload every stream and ping-pong carries: a pure function of
   the byte's offset, so loss, reordering or truncation anywhere shows up
   as a mismatch, which a constant fill would hide. *)
let pattern_byte off =
  let x = (off + 1) * 0x2545F4914F6CDD1D in
  Char.unsafe_chr ((x lxor (x lsr 29)) land 0xff)

let pattern ~off len = String.init len (fun i -> pattern_byte (off + i))

let matches_pattern ~off chunk =
  let n = String.length chunk in
  let rec go i = i = n || (chunk.[i] = pattern_byte (off + i) && go (i + 1)) in
  go 0

(* --- ping-pong -------------------------------------------------------- *)

let emp_ping_pong ~observe ~config ~size ~iters ~warmup =
  let c = Cluster.create ~n:2 () in
  let e0 = Cluster.emp ~config c 0 and e1 = Cluster.emp ~config c 1 in
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

(* Every reply is compared with its request, iteration [i] carrying
   the pattern at offset [i * size]; a mismatch fails the run. *)
let api_ping_pong ~observe ~kind ~size ~iters ~warmup =
  let c = Cluster.create ~n:2 () in
  let api = Cluster.api c kind in
  let sim = Cluster.sim c in
  let tr = observed_trace sim observe in
  let latency = ref 0. and mismatches = ref 0 in
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
      let sum = ref 0 in
      for i = 1 to iters + warmup do
        let request = pattern ~off:(i * size) size in
        let t0 = Sim.now sim in
        Trace.span tr ~layer:Trace.App ~node:0 ~seq:i "app.rtt" (fun () ->
            s.send request;
            if not (String.equal (Uls_api.Sockets_api.recv_exact s size) request)
            then
              incr mismatches);
        if i > warmup then sum := !sum + (Sim.now sim - t0)
      done;
      latency := float_of_int !sum /. float_of_int iters /. 2.;
      s.close ());
  ignore (Cluster.run c);
  if !mismatches > 0 then
    failwith
      (Printf.sprintf "ping_pong over %s: %d echo(es) differ from the request"
         (Cluster.stack_name kind) !mismatches);
  (!latency /. 1_000., sim)

let ping_pong ?observe ?(iters = 30) ?(warmup = 5) ~kind ~size () =
  hand_off ?observe
    (match kind with
    | `Emp config -> emp_ping_pong ~observe ~config ~size ~iters ~warmup
    | #Cluster.stream as kind ->
      api_ping_pong ~observe ~kind ~size ~iters ~warmup)

(* --- the two-node stream ---------------------------------------------- *)

type report = {
  goodput_mbps : float;
  elapsed_ms : float;
  faults_injected : int;
  retransmits : int;
  nacks : int;
  tx_busy_ms : float;
  rx_busy_ms : float;
  intact : bool;
  completed : bool;
}

let loss_rates = [ 0.0; 0.005; 0.02; 0.05 ]

(* Virtual time. A stuck retransmission loop or a lost wakeup ends the
   run here, reported as [completed = false], instead of a harness that
   never returns. *)
let liveness_bound = Time.s 60

(* Raw EMP's posting window: sends in flight before the source waits
   for the oldest to complete. *)
let emp_window = 16

(* What the stream's two fibers record for the {!report}: [t0]/[t1]
   bound the timed data phase, [finished] is the source reaching its
   end, [ok] the sink's verdict, and busy times are sampled when the
   source finishes. *)
type probe = {
  mutable t0 : Time.ns;
  mutable t1 : Time.ns;
  mutable finished : bool;
  mutable ok : bool;
  mutable tx_busy : Time.ns;
  mutable rx_busy : Time.ns;
}

(* Sockets stream: the source writes [total] pattern bytes in [msg]-byte
   writes (a short last one), the sink drains in 64 KB reads, checks
   every byte and answers with one confirmation byte. Timed from the
   first write after [connect] to that byte. *)
let api_stream c ~tr ~busy ~kind ~total ~msg p =
  let api = Cluster.api c kind in
  let sim = Cluster.sim c in
  Sim.spawn sim ~name:"sink" (fun () ->
      let l = api.Uls_api.Sockets_api.listen ~node:1 ~port:99 ~backlog:4 in
      let s, _ = l.accept () in
      let rec drain got ok =
        if got >= total then ok && got = total
        else
          match s.recv 65_536 with
          | "" -> false
          | chunk ->
            drain (got + String.length chunk)
              (ok && matches_pattern ~off:got chunk)
      in
      p.ok <- drain 0 true;
      s.send (if p.ok then "k" else "x");
      s.close ();
      l.close_listener ());
  Sim.spawn sim ~name:"src" (fun () ->
      Sim.delay sim (Time.us 50);
      let s = api.Uls_api.Sockets_api.connect ~node:0 { node = 1; port = 99 } in
      p.t0 <- Sim.now sim;
      Trace.span tr ~layer:Trace.App ~node:0 "app.stream"
        ~args:[ ("bytes", string_of_int total) ]
        (fun () ->
          let rec push off =
            if off < total then begin
              let n = min msg (total - off) in
              s.send (pattern ~off n);
              push (off + n)
            end
          in
          push 0;
          p.finished <- s.recv 1 <> "");
      p.t1 <- Sim.now sim;
      s.close ();
      p.tx_busy <- busy 0;
      p.rx_busy <- busy 1)

(* Raw EMP stream: the sink pre-posts one receive per message, all into
   one shared buffer (per-message buffers would add pin misses), so
   [ok] means every receive completed with its message's length. The
   source keeps [emp_window] sends in flight; timed from its first post
   to its last send completion. *)
let emp_stream c ~tr ~busy ~config ~total ~msg p =
  let e0 = Cluster.emp ~config c 0 and e1 = Cluster.emp ~config c 1 in
  let sim = Cluster.sim c in
  let lens =
    List.init ((total + msg - 1) / msg) (fun i -> min msg (total - (i * msg)))
  in
  let buf0 = Memory.alloc msg and buf1 = Memory.alloc msg in
  Sim.spawn sim ~name:"sink" (fun () ->
      let recvs =
        List.map
          (fun len ->
            (len, Uls_emp.Endpoint.post_recv e1 ~src:0 ~tag:7 buf1 ~off:0 ~len))
          lens
      in
      p.ok <-
        List.fold_left
          (fun ok (len, r) ->
            let got, _, _ = Uls_emp.Endpoint.wait_recv e1 r in
            ok && got = len)
          true recvs);
  Sim.spawn sim ~name:"src" (fun () ->
      p.t0 <- Sim.now sim;
      Trace.span tr ~layer:Trace.App ~node:0 "app.stream"
        ~args:[ ("bytes", string_of_int total) ]
        (fun () ->
          let pending = Queue.create () in
          List.iter
            (fun len ->
              if Queue.length pending >= emp_window then
                Uls_emp.Endpoint.wait_send e0 (Queue.pop pending);
              Queue.push
                (Uls_emp.Endpoint.post_send e0 ~dst:1 ~tag:7 buf0 ~off:0 ~len)
                pending)
            lens;
          Queue.iter (Uls_emp.Endpoint.wait_send e0) pending);
      p.t1 <- Sim.now sim;
      p.finished <- true;
      p.tx_busy <- busy 0;
      p.rx_busy <- busy 1)

let stream ?observe ?(seed = 42) ?(loss = 0.) ?(total = 16 * 1024 * 1024)
    ~kind ~msg () =
  let c = Cluster.create ~n:2 () in
  let sim = Cluster.sim c in
  let tr = observed_trace sim observe in
  (* Host busy time of node [i]: the application CPU, plus the kernel's
     for TCP. *)
  let busy i =
    let app = Node.busy_time (Cluster.node c i) in
    match kind with
    | `Tcp _ ->
      app
      + Resource.busy_time
          (Uls_tcp.Kernel.cpu (Uls_tcp.Tcp_stack.kernel (Cluster.tcp c) i))
    | `Sub _ | `Emp _ -> app
  in
  let p =
    { t0 = 0; t1 = 0; finished = false; ok = false; tx_busy = 0; rx_busy = 0 }
  in
  let fault = Cluster.fault ~seed c in
  if loss > 0. then Fault.set_default_plan fault (Fault.uniform_loss loss);
  (match kind with
  | `Emp config -> emp_stream c ~tr ~busy ~config ~total ~msg p
  | #Cluster.stream as kind -> api_stream c ~tr ~busy ~kind ~total ~msg p);
  let outcome = Cluster.run ~until:liveness_bound c in
  let metrics = Metrics.for_sim sim in
  let both name =
    Metrics.counter_value metrics ~node:0 name
    + Metrics.counter_value metrics ~node:1 name
  in
  let completed = outcome = `Quiescent && p.finished in
  let elapsed = max 1 (p.t1 - p.t0) in
  hand_off ?observe
    ( {
        goodput_mbps =
          (if completed then Time.mbps ~bytes_transferred:total ~elapsed
           else 0.);
        elapsed_ms = float_of_int elapsed /. 1_000_000.;
        faults_injected = Fault.faults_injected fault;
        retransmits =
          both
            (match kind with
            | `Tcp _ -> "tcp.retransmits"
            | `Sub _ | `Emp _ -> "emp.frames_retransmitted");
        nacks =
          (match kind with `Tcp _ -> 0 | `Sub _ | `Emp _ -> both "emp.nacks_sent");
        tx_busy_ms = Time.to_ms p.tx_busy;
        rx_busy_ms = Time.to_ms p.rx_busy;
        intact = p.ok;
        completed;
      },
      sim )

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
  hand_off ?observe (float_of_int span /. float_of_int iters /. 1_000., sim)

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
  hand_off ?observe
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
