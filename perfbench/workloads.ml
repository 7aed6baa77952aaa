(* The benchmark's own load generators. Each workload builds a cluster
   through [Cluster.create], runs its set-up phase (servers started,
   long-lived connections open) to a stop, and then runs one measured
   phase on it. Only public constructors and calls are used: the
   sockets stacks, [Server.start], [Fabric.create]/[Fabric.connect] and
   the substrate's [Conn.writev]/[Conn.readv]. Every delivered payload
   is compared with a pure function of (connection, sequence, size). *)

open Uls_engine
module Api = Uls_api.Sockets_api
module Cluster = Uls_bench.Cluster
module Options = Uls_substrate.Options
module Sub = Uls_substrate.Substrate
module Conn = Uls_substrate.Conn
module Server = Uls_server.Server
module Fabric = Uls_fabric.Fabric

type env = {
  sched : [ `Heap | `Wheel ];
  model : Uls_host.Cost_model.t;
}

(* Accounting of one instance: its set-up calls and its measured phase. *)
type acc = {
  sim : Sim.t;
  trace : Trace.t option;  (** [Some] on the traced run only *)
  lat : Samples.t;  (** ns from due to the last verified byte *)
  late : Samples.t;  (** ns from due until the generator issued the op *)
  conn_wait : Samples.t;  (** ns spent obtaining a connection *)
  calls : (string * Samples.t) list;  (** per public call, traced only *)
  mutable target : int;  (** operations of the measured phase *)
  mutable finished : int;
  mutable failed : int;
  mutable mismatches : int;
  mutable bytes : int;
  mutable last_due : Time.ns;
  mutable in_window : int;  (** completed by [last_due] *)
  mutable t_end : Time.ns;
  mutable slice : int;  (** finished ops per host-time slice; 0 = off *)
  mutable probe : unit -> float;  (** run between slices, returns its CPU seconds *)
  mutable mark : float;  (** [Sys.time] at the start of the current slice *)
  mutable slices : (float * float) list;
      (** (slice CPU seconds, probe CPU seconds right after it), newest first *)
}

let new_acc sim ~traced =
  let trace =
    if traced then begin
      let t = Trace.for_sim sim in
      Trace.enable t;
      Some t
    end
    else None
  in
  {
    sim;
    trace;
    lat = Samples.create ();
    late = Samples.create ();
    conn_wait = Samples.create ();
    calls = List.map (fun n -> (n, Samples.create ())) [ "connect"; "send"; "recv" ];
    target = max_int;
    finished = 0;
    failed = 0;
    mismatches = 0;
    bytes = 0;
    last_due = 0;
    in_window = 0;
    t_end = 0;
    slice = 0;
    probe = (fun () -> 0.);
    mark = 0.;
    slices = [];
  }

(* A public call, wrapped on the traced run in an App-layer span of the
   benchmark's own ("bench.<name>") and timed in virtual ns. *)
let call acc name f =
  match acc.trace with
  | None -> f ()
  | Some tr ->
    let t0 = Sim.now acc.sim in
    let r = Trace.span tr ~layer:Trace.App ("bench." ^ name) f in
    Samples.add (List.assoc name acc.calls) (float_of_int (Sim.now acc.sim - t0));
    r

let finish acc =
  acc.finished <- acc.finished + 1;
  if acc.slice > 0 && acc.finished mod acc.slice = 0 then begin
    let now = Sys.time () in
    let probe = acc.probe () in
    acc.slices <- (now -. acc.mark, probe) :: acc.slices;
    acc.mark <- Sys.time ()
  end;
  if acc.finished >= acc.target then Sim.stop acc.sim

let succeed acc ~due ~bytes =
  let now = Sim.now acc.sim in
  Samples.add acc.lat (float_of_int (now - due));
  acc.bytes <- acc.bytes + bytes;
  if now <= acc.last_due then acc.in_window <- acc.in_window + 1;
  acc.t_end <- max acc.t_end now;
  finish acc

let fail acc =
  acc.failed <- acc.failed + 1;
  finish acc

let mismatch acc =
  acc.mismatches <- acc.mismatches + 1;
  fail acc

(* The expected bytes of message [seq] on connection [conn]. *)
let payload ~conn ~seq ~size =
  String.init size (fun i ->
      Char.chr (((i * 131) + (conn * 7919) + (seq * 104_729) + size) land 0xff))

(* Absolute Poisson due times of [ops] operations at [rate] per second.
   The gaps are drawn once per seed and scaled by the rate, so two rungs
   of a ladder see the same arrival pattern at different speeds. *)
let due_times ~seed ~rate ~ops ~t0 =
  let rng = Rng.create ~seed:(seed lxor 0x0d0e) in
  let mean = 1e9 /. rate in
  let t = ref t0 in
  Array.init ops (fun _ ->
      t := !t + int_of_float (Rng.exponential rng ~mean);
      !t)

(* One cluster with its set-up done. [start acc ~rate ~ops] spawns the
   measured phase and returns its virtual-time bound; [cell_skew] is
   read after it. *)
type inst = {
  c : Cluster.t;
  tcp : Uls_tcp.Tcp_stack.t option;  (** the kernel stacks, on serve-tcp *)
  acc : acc;
  serving : int list;
  setup_failures : int;
  start : rate:float -> ops:int -> Time.ns;
  cell_skew : unit -> float;
}

let create env ~n =
  Cluster.create ~model:env.model ~sched:env.sched
    ~match_engine:Uls_nic.Match_list.Hashed ~n ()

(* Run the set-up fibers until one of them stops the sim; a set-up that
   has not finished by [limit] fails the run loudly. *)
let run_setup c ~limit =
  match Cluster.run ~until:limit c with
  | `Stopped -> ()
  | `Quiescent | `Time_limit -> failwith "set-up did not complete"

(* --- serve / serve-tcp: open-loop echo over a long-lived pool -------- *)

let serve_conns = 256
let serve_clients = 4
let serve_size = 256

let serve ~tcp env ~seed ~traced =
  let c = create env ~n:(1 + serve_clients) in
  let sim = Cluster.sim c in
  let acc = new_acc sim ~traced in
  let api =
    if tcp then Cluster.tcp_api c else Cluster.substrate_api ~opts:Options.server c
  in
  let stacks = if tcp then Some (Cluster.tcp c) else None in
  Sim.spawn sim ~name:"bench-server" (fun () ->
      ignore (Server.start sim api ~node:0 ~port:80 ~backlog:serve_conns Server.Echo));
  let streams = Array.make serve_conns None in
  let rng = Rng.create ~seed in
  let opened = ref 0 and failures = ref 0 in
  (* A seeded connect ramp, ~150 us apart: the server's kernel CPU
     spends tens of us per TCP handshake, so a burst would overrun it. *)
  for i = 0 to serve_conns - 1 do
    let at = Time.ms 1 + (i * Time.us 150) + Rng.int rng (Time.us 100) in
    Sim.spawn_at sim ~name:"bench-connect" at (fun () ->
        (match
           call acc "connect" (fun () ->
               api.Api.connect ~node:(1 + (i mod serve_clients)) { Api.node = 0; port = 80 })
         with
        | s -> streams.(i) <- Some s
        | exception _ -> incr failures);
        incr opened;
        if !opened = serve_conns then Sim.stop sim)
  done;
  run_setup c ~limit:(Time.s 5);
  let start ~rate ~ops =
    let due = due_times ~seed ~rate ~ops ~t0:(Sim.now sim) in
    acc.target <- ops;
    acc.last_due <- due.(ops - 1);
    let jobs = Mailbox.create ~label:"bench:jobs" sim in
    Sim.spawn sim ~name:"bench-arrivals" (fun () ->
        Array.iteri
          (fun k t ->
            Sim.delay sim (t - Sim.now sim);
            Mailbox.send jobs k)
          due);
    (* Idle pooled connections take arrivals in FIFO order; a connection
       whose call raised is dead and takes no more. *)
    Array.iteri
      (fun conn -> function
        | None -> ()
        | Some (s : Api.stream) ->
          Sim.spawn sim ~name:"bench-conn" (fun () ->
              let rec loop seq =
                let k = Mailbox.recv jobs in
                Samples.add acc.late (float_of_int (Sim.now sim - due.(k)));
                let msg = payload ~conn ~seq ~size:serve_size in
                match
                  call acc "send" (fun () -> s.Api.send msg);
                  call acc "recv" (fun () -> Api.recv_exact s serve_size)
                with
                | got when String.equal got msg ->
                  succeed acc ~due:due.(k) ~bytes:serve_size;
                  loop (seq + 1)
                | _ ->
                  mismatch acc;
                  loop (seq + 1)
                | exception _ -> fail acc
              in
              loop 0))
      streams;
    acc.last_due + Time.ms 100
  in
  {
    c;
    tcp = stacks;
    acc;
    serving = [ 0 ];
    setup_failures = !failures;
    start;
    cell_skew = (fun () -> 0.);
  }

(* --- firehose: flow-controlled batched datagrams to four sinks ------- *)

let fire_sinks = 4
let fire_batch = 32

(* Size mix: 60% 64 B and 35% 1 KB ride the eager path, 5% 64 KB (above
   [eager_max]) take rendezvous. Each sink's stream is a sequence of
   20-message blocks holding exactly that mix in a seeded order: seeds
   vary the interleaving, never the bytes sent or the local composition. *)
let fire_block =
  Array.concat [ Array.make 12 64; Array.make 7 1024; Array.make 1 65_536 ]

let fire_sizes rng n =
  let b = Array.length fire_block in
  let sizes = Array.make n 64 in
  for i = 0 to (n / b) - 1 do
    let block = Array.copy fire_block in
    Rng.shuffle rng block;
    Array.blit block 0 sizes (i * b) b
  done;
  sizes

let firehose env ~seed ~traced =
  let c = create env ~n:(1 + fire_sinks) in
  let sim = Cluster.sim c in
  let acc = new_acc sim ~traced in
  let opts = { Options.datagram with Options.rx_ring = true; credits = 2 * fire_batch } in
  let sub = Array.init (1 + fire_sinks) (fun i -> Cluster.substrate ~opts c i) in
  let src = Array.make fire_sinks None and dst = Array.make fire_sinks None in
  let ready = ref 0 and failures = ref 0 in
  let up () =
    incr ready;
    if !ready = 2 * fire_sinks then Sim.stop sim
  in
  for k = 0 to fire_sinks - 1 do
    Sim.spawn sim ~name:"bench-sink" (fun () ->
        let l = Sub.listen sub.(k + 1) ~port:80 ~backlog:4 in
        let conn, _ = Sub.accept sub.(k + 1) l in
        dst.(k) <- Some conn;
        up ());
    Sim.spawn_at sim ~name:"bench-source" (Time.us 50) (fun () ->
        (match
           call acc "connect" (fun () ->
               Sub.connect sub.(0) { Api.node = k + 1; port = 80 })
         with
        | conn -> src.(k) <- Some conn
        | exception _ -> incr failures);
        up ())
  done;
  run_setup c ~limit:(Time.s 5);
  let start ~rate:_ ~ops =
    let t0 = Sim.now sim in
    let per_sink = ops / fire_sinks in
    acc.target <- per_sink * fire_sinks;
    acc.last_due <- max_int;
    let rng = Rng.create ~seed in
    let sizes = Array.init fire_sinks (fun _ -> fire_sizes rng per_sink) in
    let submitted = Array.init fire_sinks (fun _ -> Array.make per_sink 0) in
    for k = 0 to fire_sinks - 1 do
      match (src.(k), dst.(k)) with
      | Some out, Some inp ->
        let msg j = payload ~conn:k ~seq:j ~size:sizes.(k).(j) in
        Sim.spawn sim ~name:"bench-fire" (fun () ->
            let j = ref 0 in
            try
              while !j < per_sink do
                let n = min fire_batch (per_sink - !j) in
                for i = !j to !j + n - 1 do
                  submitted.(k).(i) <- Sim.now sim
                done;
                let batch = List.init n (fun i -> msg (!j + i)) in
                call acc "send" (fun () -> Conn.writev out batch);
                j := !j + n
              done
            with _ -> ());
        Sim.spawn sim ~name:"bench-drain" (fun () ->
            let got = ref 0 in
            try
              while !got < per_sink do
                match call acc "recv" (fun () -> Conn.readv inp ~max:fire_batch) with
                | [] -> raise Exit
                | msgs ->
                  List.iter
                    (fun m ->
                      if !got < per_sink then begin
                        if String.equal m (msg !got) then
                          succeed acc ~due:submitted.(k).(!got) ~bytes:(String.length m)
                        else mismatch acc;
                        incr got
                      end)
                    msgs
              done
            with _ ->
              for _ = !got to per_sink - 1 do
                fail acc
              done)
      | _ ->
        for _ = 1 to per_sink do
          fail acc
        done
    done;
    t0 + Time.s 30
  in
  {
    c;
    tcp = None;
    acc;
    serving = [ 0 ];
    setup_failures = !failures;
    start;
    cell_skew = (fun () -> 0.);
  }

(* --- fabric: open-loop session churn over four sharded cells --------- *)

let fab_cells = 4
let fab_clients = 8
let fab_size = 256
let fab_echoes = 2

let fabric env ~seed ~traced =
  let probe = fab_cells in
  let c = create env ~n:(fab_cells + 1 + fab_clients) in
  let sim = Cluster.sim c in
  let acc = new_acc sim ~traced in
  let api = Cluster.substrate_api ~opts:Options.server c in
  let fab = ref None in
  Sim.spawn sim ~name:"bench-fabric" (fun () ->
      fab :=
        Some
          (Fabric.create sim api
             ~nodes:(List.init fab_cells Fun.id)
             { Fabric.default_config with probe_node = Some probe });
      Sim.delay sim (Time.ms 1);
      Sim.stop sim);
  run_setup c ~limit:(Time.s 5);
  let fab = Option.get !fab in
  let port = (Fabric.config fab).Fabric.port in
  let per_cell = Array.make fab_cells 0 in
  let session due k () =
    let client_node = fab_cells + 1 + (k mod fab_clients) in
    let key = Fabric.flow_key ~client_node ~flow:k ~port in
    Samples.add acc.late (float_of_int (Sim.now sim - due));
    match call acc "connect" (fun () -> Fabric.connect fab ~client_node ~key) with
    | exception _ -> fail acc
    | s, cell ->
      Samples.add acc.conn_wait (float_of_int (Sim.now sim - due));
      per_cell.(cell) <- per_cell.(cell) + 1;
      let ok =
        try
          for seq = 0 to fab_echoes - 1 do
            let msg = payload ~conn:k ~seq ~size:fab_size in
            call acc "send" (fun () -> s.Api.send msg);
            let got = call acc "recv" (fun () -> Api.recv_exact s fab_size) in
            if not (String.equal got msg) then raise Exit
          done;
          `Ok
        with
        | Exit -> `Mismatch
        | _ -> `Failed
      in
      (match ok with
      | `Ok -> succeed acc ~due ~bytes:(fab_echoes * fab_size)
      | `Mismatch -> mismatch acc
      | `Failed -> fail acc);
      try s.Api.close () with _ -> ()
  in
  let start ~rate ~ops =
    let due = due_times ~seed ~rate ~ops ~t0:(Sim.now sim) in
    acc.target <- ops;
    acc.last_due <- due.(ops - 1);
    Sim.spawn sim ~name:"bench-arrivals" (fun () ->
        Array.iteri
          (fun k t ->
            Sim.delay sim (t - Sim.now sim);
            Sim.spawn sim ~name:"bench-session" (session t k))
          due);
    acc.last_due + Time.ms 200
  in
  let cell_skew () =
    let total = Array.fold_left ( + ) 0 per_cell in
    if total = 0 then 0.
    else
      float_of_int (Array.fold_left max 0 per_cell)
      /. (float_of_int total /. float_of_int fab_cells)
  in
  {
    c;
    tcp = None;
    acc;
    serving = List.init fab_cells Fun.id;
    setup_failures = 0;
    start;
    cell_skew;
  }
