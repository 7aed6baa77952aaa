(* Command-line driver for the reproduction: run paper experiments or
   one-off micro-benchmarks on the simulated testbed, and the CI gates
   ([check]). *)

open Cmdliner

let stack_conv =
  let parse = function
    | "emp" -> Ok `Emp
    | "tcp" -> Ok `Tcp
    | "tcp-tuned" -> Ok `Tcp_tuned
    | "ds" -> Ok `Ds
    | "ds-base" -> Ok `Ds_base
    | "dg" -> Ok `Dg
    | s -> Error (`Msg (Printf.sprintf "unknown stack %S" s))
  in
  let print fmt s =
    Format.pp_print_string fmt
      (match s with
      | `Emp -> "emp"
      | `Tcp -> "tcp"
      | `Tcp_tuned -> "tcp-tuned"
      | `Ds -> "ds"
      | `Ds_base -> "ds-base"
      | `Dg -> "dg")
  in
  Arg.conv (parse, print)

let stack_flag ~doc =
  Arg.(value & opt stack_conv `Ds & info [ "stack" ] ~docv:"STACK" ~doc)

let any_stack = "emp | tcp | tcp-tuned | ds | ds-base | dg"

(* [~serving] maps ds to the substrate's server preset (small
   per-connection buffers, piggy-backed acks). *)
let kind_of_stack ?(serving = false) stack : Uls_bench.Cluster.stack =
  let module O = Uls_substrate.Options in
  match stack with
  | `Emp -> `Emp Uls_emp.Endpoint.default_config
  | `Tcp -> `Tcp Uls_tcp.Config.default
  | `Tcp_tuned -> `Tcp (Uls_tcp.Config.with_buffers 262_144)
  | `Ds -> `Sub (if serving then O.server else O.data_streaming_enhanced)
  | `Ds_base -> `Sub O.data_streaming
  | `Dg -> `Sub O.datagram

(* The serving drivers (serve, fabric) have no raw-EMP mode. *)
let stream_kind ~cmd ?serving stack =
  match kind_of_stack ?serving stack with
  | `Emp _ ->
    Printf.eprintf "ulsbench %s: raw EMP has no sockets stream; use ds/dg\n"
      cmd;
    exit 124
  | #Uls_bench.Cluster.stream as kind -> kind

(* Counts and sizes where 0 means nothing: refused at parse time with
   cmdliner's usage-error exit (124) rather than run into a division by
   zero or a nan. *)
let pos_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n > 0 -> Ok n
    | _ -> Error (`Msg (Printf.sprintf "expected a positive integer, got %S" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let seed_flag =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
         ~doc:"Rng and fault-engine seed; same seed, same run.")

let loss_flag =
  Arg.(value & opt float 0. & info [ "loss" ] ~docv:"P"
         ~doc:"Uniform frame-loss probability (fault engine).")

(* --- figures ----------------------------------------------------------- *)

let figures_cmd =
  let ids =
    Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT"
           ~doc:"Experiment ids (fig11..fig17, connect, abl-*). Default: all.")
  in
  let quick =
    Arg.(value & flag & info [ "quick" ] ~doc:"Smaller sweeps, faster run.")
  in
  let run ids quick =
    let module E = Uls_bench.Experiments in
    (match List.filter (fun id -> not (List.mem_assoc id E.by_id)) ids with
    | [] -> ()
    | unknown ->
      Printf.eprintf "ulsbench figures: unknown experiment%s %s; valid ids:\n"
        (if List.length unknown = 1 then "" else "s")
        (String.concat ", " (List.map (Printf.sprintf "%S") unknown));
      List.iter (fun (id, _) -> prerr_endline ("  " ^ id)) E.by_id;
      exit 124);
    let tables =
      match ids with
      | [] -> E.all ~quick ()
      | ids -> List.map (fun id -> (List.assoc id E.by_id) ~quick ()) ids
    in
    List.iter (Uls_bench.Table.print Format.std_formatter) tables
  in
  Cmd.v
    (Cmd.info "figures" ~doc:"Regenerate the paper's tables and figures")
    Term.(const run $ ids $ quick)

(* --- one-off latency/bandwidth ----------------------------------------- *)

(* Why a stream has no figure to report, if it has none. *)
let verdict (r : Uls_bench.Microbench.report) =
  if not r.completed then Some "HUNG"
  else if not r.intact then Some "CORRUPT"
  else None

let metrics_flag =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Dump the per-node metrics registry after the run.")

let dump_metrics m = Uls_engine.Metrics.dump m Format.std_formatter

(* [--metrics] and [--trace FILE] for the microbenchmarks: the observer
   keeps the run's sim, enabling its trace when a file is named, and
   [report] prints the registry and writes the trace after the result
   line. Without either flag the run is not observed at all. *)
let observer =
  let trace =
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record a structured trace of the run and write it to FILE \
                 as Chrome-trace JSON (chrome://tracing, Perfetto).")
  in
  let make metrics trace =
    let kept = ref None in
    let observe sim =
      if trace <> None then Uls_engine.Trace.enable (Uls_engine.Trace.for_sim sim);
      kept := Some sim
    in
    let report () =
      Option.iter
        (fun sim ->
          (match trace with
          | None -> ()
          | Some file ->
            let tr = Uls_engine.Trace.for_sim sim in
            let oc = open_out file in
            output_string oc (Uls_engine.Trace.to_chrome_json tr);
            close_out oc;
            Printf.printf "trace: %d events -> %s\n"
              (List.length (Uls_engine.Trace.events tr))
              file);
          if metrics then dump_metrics (Uls_engine.Metrics.for_sim sim))
        !kept
    in
    ((if metrics || trace <> None then Some observe else None), report)
  in
  Term.(const make $ metrics_flag $ trace)

(* Machine-tracked perf records: one JSON object per run, appended to a
   BENCH_*.json file (created on first use) so the trajectory
   accumulates across commits. Every record carries a schema version so
   downstream tooling can tell record generations apart. Values arrive
   pre-rendered (ints, %.3f floats, quoted strings). *)
let bench_schema_version = 3

let emit_json ~file fields =
  let fields = ("schema", string_of_int bench_schema_version) :: fields in
  let oc = open_out_gen [ Open_append; Open_creat ] 0o644 file in
  let buf = Buffer.create 512 in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%S:%s" k v))
    fields;
  Buffer.add_string buf "}\n";
  output_string oc (Buffer.contents buf);
  close_out oc;
  Printf.printf "record appended -> %s\n" file

(* [--json]: the record sink for [file], a no-op unless the flag is set. *)
let json_flag ~file =
  let doc = Printf.sprintf "Append a JSON record per run to %s." file in
  let on = Arg.(value & flag & info [ "json" ] ~doc) in
  Term.(const (fun on -> if on then emit_json ~file else ignore) $ on)

let sched_name = function `Heap -> "heap" | `Wheel -> "wheel"

(* Parse one flat record emitted by [emit_json] back into fields. Only
   handles the shape we emit: one {"k":v,...} object per line, values
   ints / %.3f floats / bools / %S strings. A line cut short anywhere,
   even between fields, is not a record. *)
let parse_record line =
  let n = String.length line in
  let i = ref 0 in
  let expect c = if !i < n && line.[!i] = c then incr i else raise Exit in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !i >= n then raise Exit
      else
        match line.[!i] with
        | '"' -> incr i
        | '\\' ->
          incr i;
          if !i < n then begin
            Buffer.add_char b line.[!i];
            incr i
          end;
          go ()
        | c ->
          Buffer.add_char b c;
          incr i;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let fields = ref [] in
  try
    expect '{';
    let rec loop () =
      if !i < n && line.[!i] = '}' then ()
      else begin
        let k = parse_string () in
        expect ':';
        let v =
          if !i < n && line.[!i] = '"' then parse_string ()
          else begin
            let j = !i in
            while !i < n && line.[!i] <> ',' && line.[!i] <> '}' do
              incr i
            done;
            String.sub line j (!i - j)
          end
        in
        fields := (k, v) :: !fields;
        if !i < n && line.[!i] = ',' then begin
          incr i;
          loop ()
        end
      end
    in
    loop ();
    expect '}';
    Some (List.rev !fields)
  with Exit -> None

let match_conv =
  let parse s =
    match Uls_nic.Match_list.engine_of_string s with
    | Some e -> Ok e
    | None -> Error (`Msg (Printf.sprintf "unknown match engine %S" s))
  in
  let print fmt e =
    Format.pp_print_string fmt (Uls_nic.Match_list.engine_name e)
  in
  Arg.conv (parse, print)

let match_engine_flag =
  Arg.(value & opt match_conv Uls_nic.Match_list.Hashed
       & info [ "match" ] ~docv:"ENGINE"
           ~doc:"NIC tag-match engine: $(b,hashed) (per-key descriptor \
                 rings + RSS across both receive cores) or $(b,linear) \
                 (the paper's measured O(descriptors) walk, kept as the \
                 ablation baseline).")

let json_int i = string_of_int i
let json_float f = Printf.sprintf "%.3f" f
let json_str s = Printf.sprintf "%S" s
let json_bool b = if b then "true" else "false"

let latency_json (l : Uls_bench.Latency.summary) =
  let open Uls_bench.Latency in
  [
    ("elapsed_ms", json_float l.elapsed_ms);
    ("rps", json_float l.rps);
    ("mean_us", json_float l.mean_us);
    ("p50_us", json_float l.p50_us);
    ("p95_us", json_float l.p95_us);
    ("p99_us", json_float l.p99_us);
    ("p999_us", json_float l.p999_us);
  ]

let latency_cmd =
  let size =
    Arg.(value & opt pos_int 4 & info [ "size" ] ~docv:"BYTES"
           ~doc:"Message size.")
  in
  let iters =
    Arg.(value & opt pos_int 30 & info [ "iters" ] ~doc:"Iterations.")
  in
  let run stack size iters (observe, report) =
    let us =
      Uls_bench.Microbench.ping_pong ?observe ~iters ~kind:(kind_of_stack stack)
        ~size ()
    in
    Printf.printf "%d-byte one-way latency: %.2f us\n" size us;
    report ()
  in
  Cmd.v
    (Cmd.info "latency" ~doc:"Ping-pong one-way latency on a 2-node cluster")
    Term.(const run $ stack_flag ~doc:any_stack $ size $ iters $ observer)

let bandwidth_cmd =
  let msg =
    Arg.(value & opt pos_int 65_536 & info [ "msg" ] ~docv:"BYTES"
           ~doc:"Message size.")
  in
  let total =
    Arg.(value & opt pos_int (16 * 1024 * 1024) & info [ "total" ]
           ~docv:"BYTES" ~doc:"Total bytes to stream.")
  in
  let run stack msg total (observe, report) =
    let r =
      Uls_bench.Microbench.stream ?observe ~total ~kind:(kind_of_stack stack)
        ~msg ()
    in
    (match verdict r with
    | None ->
      Printf.printf "stream bandwidth (%d-byte messages): %.1f Mb/s\n" msg
        r.goodput_mbps
    | Some bad ->
      Printf.printf "stream bandwidth (%d-byte messages): %s\n" msg bad;
      exit 1);
    report ()
  in
  Cmd.v
    (Cmd.info "bandwidth" ~doc:"Unidirectional stream bandwidth")
    Term.(const run $ stack_flag ~doc:any_stack $ msg $ total $ observer)

(* --- chaos -------------------------------------------------------------- *)

(* One loss sweep per stack, a table row printed per run; returns the
   number of runs that hung or delivered corrupt bytes. [wrap tag run]
   runs one stream, handing [run] its observe hook. *)
let chaos_sweep ~wrap ~stacks ~seed ~total ~msg ~rates =
  List.fold_left
    (fun bad stack ->
      let kind = kind_of_stack stack in
      Printf.printf "%s, goodput under uniform frame loss:\n"
        (Uls_bench.Cluster.stack_name kind);
      Printf.printf "  %8s %12s %12s %8s %12s %8s %6s\n" "loss%" "Mbit/s"
        "elapsed ms" "faults" "retransmits" "nacks" "ok";
      List.fold_left
        (fun bad loss ->
          let r =
            wrap
              (Printf.sprintf "%s/loss=%g" (Uls_bench.Cluster.stack_name kind) loss)
              (fun observe ->
                Uls_bench.Microbench.stream ~observe ~seed ~loss ~total ~kind ~msg ())
          in
          let v = verdict r in
          Printf.printf "  %8.2f %12.1f %12.2f %8d %12d %8d %6s\n%!"
            (loss *. 100.) r.goodput_mbps r.elapsed_ms r.faults_injected
            r.retransmits r.nacks
            (Option.value ~default:"yes" v);
          if v = None then bad else bad + 1)
        bad rates)
    0 stacks

let chaos_cmd =
  let stacks =
    Arg.(value & opt_all stack_conv [ `Ds; `Tcp ] & info [ "stack" ]
           ~docv:"STACK"
           ~doc:("Stack(s) to sweep (repeatable): " ^ any_stack
                 ^ ". Default: ds and tcp."))
  in
  let total =
    Arg.(value & opt pos_int (4 * 1024 * 1024) & info [ "total" ]
           ~docv:"BYTES" ~doc:"Bytes streamed per run.")
  in
  let msg =
    Arg.(value & opt pos_int 16_384 & info [ "msg" ] ~docv:"BYTES"
           ~doc:"Bytes per write.")
  in
  let rates =
    Arg.(value & opt (list float) Uls_bench.Microbench.loss_rates
         & info [ "loss" ] ~docv:"P,P,..."
             ~doc:"Frame-loss probabilities to sweep (fractions, not %).")
  in
  let run stacks seed total msg rates =
    let bad =
      chaos_sweep ~wrap:(fun _ run -> run ignore) ~stacks ~seed ~total ~msg ~rates
    in
    if bad > 0 then begin
      Printf.eprintf "ulsbench chaos: %d run(s) hung or corrupted data\n" bad;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Stream a checksummed payload under seeded frame loss and print \
          goodput/retransmission tables per loss rate; exits non-zero if \
          any run hangs or delivers corrupt bytes")
    Term.(const run $ stacks $ seed_flag $ total $ msg $ rates)

(* --- serve and fabric: one serving flag surface ----------------------- *)

(* NIC tag matching is the substrate's; kernel TCP never touches it. *)
let match_json (cfg : Uls_bench.Load.config) =
  json_str
    (match cfg.kind with
    | `Tcp _ -> "n/a"
    | `Sub _ -> Uls_nic.Match_list.engine_name cfg.match_engine)

(* [serve] and [fabric] are two presets of one flag surface over one
   {!Uls_bench.Load} spec. [base] gives every shared flag its default and
   fixes what the command does not expose; [own] reads the command's
   own flags and applies its auto rules; [json] writes its BENCH
   record. *)
let serving_cmd ~name ~doc ~file ~json ~(base : Uls_bench.Load.config) own =
  let module L = Uls_bench.Load in
  let sessions =
    match base.arrival with L.Sessions _ -> true | L.Closed | L.Pool _ -> false
  in
  let conns =
    Arg.(value & opt pos_int base.conns & info [ "conns" ] ~docv:"N"
           ~doc:"Client connections: the concurrent pool, or with session \
                 arrivals the total arrivals over the run.")
  in
  let requests =
    Arg.(value & opt pos_int base.requests_per_conn & info [ "requests" ]
           ~docv:"N" ~doc:"Requests per connection.")
  in
  let size =
    Arg.(value & opt pos_int base.size & info [ "size" ] ~docv:"BYTES"
           ~doc:"Echo payload / HTTP response-body size.")
  in
  let rate =
    let default =
      match base.arrival with
      | L.Closed -> None
      | L.Pool r | L.Sessions r -> Some r
    in
    let docv, doc =
      if sessions then
        ("CONN/S", "Open-loop connection arrival rate, fleet-wide.")
      else
        ( "REQ/S",
          "Open-loop arrival rate (requests/s, fleet-wide) over the \
           connected pool. Without it the pool runs closed-loop." )
    in
    Arg.(value & opt (some float) default & info [ "rate" ] ~docv ~doc)
  in
  let think =
    Arg.(value & opt float 0. & info [ "think" ] ~docv:"US"
           ~doc:"Mean think time between a connection's requests (us); \
                 with session arrivals it raises concurrency (rate x \
                 lifetime).")
  in
  let clients =
    Arg.(value & opt int base.client_nodes & info [ "clients" ] ~docv:"N"
           ~doc:"Client nodes the fleet spreads over (0 = auto: enough to \
                 keep per-node NIC match walks short).")
  in
  let backlog =
    Arg.(value & opt int base.backlog & info [ "backlog" ] ~docv:"N"
           ~doc:"Listen backlog per server (serve: 0 = auto). Every posted \
                 backlog descriptor is walked by the server NIC on each RX \
                 frame; keep a fabric cell's modest.")
  in
  let max_inflight =
    Arg.(value & opt int base.max_inflight & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Admission limit per scheduler shard; connections beyond it \
                 are shed with an explicit reject (0 = unlimited).")
  in
  let spec stack conns requests size rate think seed loss clients backlog
      max_inflight match_engine own =
    own
      {
        base with
        L.kind = stream_kind ~cmd:name ~serving:true stack;
        arrival =
          (match rate with
          | None -> L.Closed
          | Some r -> if sessions then L.Sessions r else L.Pool r);
        conns;
        requests_per_conn = requests;
        size;
        think = think *. 1e3;
        seed;
        loss;
        client_nodes = clients;
        backlog;
        max_inflight;
        match_engine;
      }
  in
  let run cfg metrics record =
    let on_metrics = if metrics then Some dump_metrics else None in
    let r = L.run ?on_metrics cfg in
    L.print_report Format.std_formatter cfg r;
    json record cfg r;
    if not (r.L.completed_run && r.L.intact) then exit 1
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run
          $ (const spec
            $ stack_flag
                ~doc:"tcp | tcp-tuned | ds | ds-base | dg. For serving, ds \
                      maps to the substrate's server preset (small \
                      per-connection buffers, piggy-backed acks)."
            $ conns $ requests $ size $ rate $ think $ seed_flag $ loss_flag
            $ clients $ backlog $ max_inflight $ match_engine_flag $ own)
          $ metrics_flag $ json_flag ~file)

let serve_cmd =
  let module L = Uls_bench.Load in
  let workload_name = function L.Echo -> "echo" | L.Http -> "http" in
  let workload_conv =
    let parse = function
      | "echo" -> Ok L.Echo
      | "http" -> Ok L.Http
      | s -> Error (`Msg (Printf.sprintf "unknown workload %S" s))
    in
    Arg.conv (parse, fun fmt w -> Format.pp_print_string fmt (workload_name w))
  in
  let workload =
    Arg.(value & opt workload_conv L.Echo & info [ "workload" ]
           ~docv:"W" ~doc:"echo | http")
  in
  let workers =
    Arg.(value & opt pos_int L.default.workers & info [ "workers" ] ~docv:"N"
           ~doc:"Scheduler worker fibers.")
  in
  (* Auto rules: one client node per 512 conns (2..8), and a backlog
     that holds the pool (64..1024). *)
  let own workload workers (cfg : L.config) =
    {
      cfg with
      L.workload;
      workers;
      client_nodes =
        (if cfg.client_nodes > 0 then cfg.client_nodes
         else max 2 (min 8 ((cfg.conns + 511) / 512)));
      backlog =
        (if cfg.backlog > 0 then cfg.backlog else max 64 (min cfg.conns 1024));
    }
  in
  let serve_json record (cfg : L.config) (r : L.report) =
    record
      ([
         ("bench", json_str "serve");
         ("stack", json_str (Uls_bench.Cluster.stack_name cfg.kind));
         ("workload", json_str (workload_name cfg.workload));
         ( "loop",
           json_str
             (match cfg.arrival with
             | L.Closed -> "closed"
             | L.Pool r -> Printf.sprintf "open@%.0f" r
             | L.Sessions r -> Printf.sprintf "sessions@%.0f" r) );
         ("match", match_json cfg);
         ("sched", json_str "wheel");
         ("conns", json_int cfg.conns);
         ("requests_per_conn", json_int cfg.requests_per_conn);
         ("size", json_int cfg.size);
         ("seed", json_int cfg.seed);
         ("loss", json_float cfg.loss);
         ("sent", json_int r.sent);
         ("completed", json_int r.completed);
         ("shed", json_int r.shed);
         ("refused", json_int r.refused);
         ("errors", json_int (r.errors + r.resets));
         ("mismatches", json_int r.mismatches);
         ("peak_open", json_int r.peak_open);
         ( "server_nic_tx_us_per_req",
           json_float
             (float_of_int r.server_nic_tx_ns /. 1e3
             /. float_of_int (max 1 r.sent)) );
       ]
      @ latency_json r.lat
      @ [
          ("intact", json_bool r.intact);
          ("completed_run", json_bool r.completed_run);
        ])
  in
  serving_cmd ~name:"serve"
    ~doc:
      "Event-driven server under a client fleet: echo or keep-alive HTTP \
       over the readiness engine + connection scheduler, driven open- or \
       closed-loop; prints throughput and latency percentiles"
    ~file:"BENCH_serve.json" ~json:serve_json
    ~base:{ L.default with client_nodes = 0; backlog = 0 }
    Term.(const own $ workload $ workers)

let fabric_cmd =
  let module L = Uls_bench.Load in
  (* "CELL@MS": cell id and a virtual-time instant in milliseconds. *)
  let cell_at_conv =
    let parse s =
      match String.split_on_char '@' s with
      | [ c; ms ] -> (
        try Ok (int_of_string c, int_of_string ms)
        with _ -> Error (`Msg (Printf.sprintf "bad CELL@MS %S" s)))
      | _ -> Error (`Msg (Printf.sprintf "bad CELL@MS %S" s))
    in
    let print fmt (c, ms) =
      Format.pp_print_string fmt (Printf.sprintf "%d@%d" c ms)
    in
    Arg.conv (parse, print)
  in
  let cells =
    Arg.(value & opt pos_int L.fabric.cells & info [ "cells" ] ~docv:"K"
           ~doc:"Server cells behind the balancer.")
  in
  let shards =
    Arg.(value & opt pos_int L.fabric.shards & info [ "shards" ] ~docv:"N"
           ~doc:"SO_REUSEPORT listener shards (schedulers) per cell.")
  in
  let vnodes =
    Arg.(value & opt pos_int L.fabric.vnodes & info [ "vnodes" ] ~docv:"N"
           ~doc:"Consistent-hash virtual nodes per cell.")
  in
  let kill =
    Arg.(value & opt (some cell_at_conv) None & info [ "kill" ] ~docv:"CELL@MS"
           ~doc:"Pause this cell's node (all frames dropped) at this \
                 virtual time; the health checker must heal the ring.")
  in
  let drain =
    Arg.(value & opt (some cell_at_conv) None & info [ "drain" ] ~docv:"CELL@MS"
           ~doc:"Gracefully drain this cell at this virtual time.")
  in
  let at = Option.map (fun (c, ms) -> (c, Uls_engine.Time.ms ms)) in
  (* Auto rule: 4 client nodes per cell or per 2048 conns, whichever is
     more (4..64). *)
  let own cells shards vnodes kill drain (cfg : L.config) =
    {
      cfg with
      L.topology =
        L.Fabric { cells; shards; vnodes; kill = at kill; drain = at drain };
      client_nodes =
        (if cfg.client_nodes > 0 then cfg.client_nodes
         else max 4 (min 64 (max cells ((cfg.conns + 2047) / 2048) * 4)));
    }
  in
  let fabric_json record (cfg : L.config) (r : L.report) =
    let f = match cfg.topology with L.Fabric f -> f | L.Server -> L.fabric in
    record
      ([
         ("bench", json_str "fabric");
         ("stack", json_str (Uls_bench.Cluster.stack_name cfg.kind));
         ("cells", json_int f.cells);
         ("shards", json_int f.shards);
         ("match", match_json cfg);
         ("sched", json_str "wheel");
         ("conns", json_int cfg.conns);
         ("requests_per_conn", json_int cfg.requests_per_conn);
         ("size", json_int cfg.size);
         ( "rate",
           json_float
             (match cfg.arrival with
             | L.Sessions r | L.Pool r -> r
             | L.Closed -> 0.) );
         ("seed", json_int cfg.seed);
         ("loss", json_float cfg.loss);
         ("kill", json_bool (f.kill <> None));
         ("drain", json_bool (f.drain <> None));
         ("established", json_int r.established);
         ("completed", json_int r.completed);
         ("shed", json_int r.shed);
         ("refused", json_int r.refused);
         ("resets", json_int r.resets);
         ("errors", json_int r.errors);
         ("mismatches", json_int r.mismatches);
         ("remapped", json_int r.remapped);
         ("peak_open", json_int r.peak_open);
         ("peak_cell_open", json_int r.peak_cell_open);
         ("healed_at_ms", json_float r.healed_at_ms);
         ("drained_at_ms", json_float r.drained_at_ms);
         ("doorbells", json_int r.doorbells);
       ]
      @ latency_json r.lat
      @ [
          ("intact", json_bool r.intact);
          ("completed_run", json_bool r.completed_run);
        ])
  in
  serving_cmd ~name:"fabric"
    ~doc:
      "Sharded serving fabric: L4-balanced server cells (consistent \
       hashing, SO_REUSEPORT shards) under an open-loop connection fleet, \
       with optional mid-load cell kill or drain"
    ~file:"BENCH_fabric.json" ~json:fabric_json
    ~base:
      {
        L.default with
        topology = L.Fabric L.fabric;
        arrival = L.Sessions 4_000.;
        conns = 2048;
        requests_per_conn = 2;
        size = 256;
        client_nodes = 0;
        backlog = 128;
      }
    Term.(const own $ cells $ shards $ vnodes $ kill $ drain)

(* --- collectives -------------------------------------------------------- *)

let alg_conv =
  let parse = function
    | "linear" -> Ok Uls_collective.Group.Linear
    | "binomial" -> Ok Uls_collective.Group.Binomial_tree
    | "recdbl" -> Ok Uls_collective.Group.Recursive_doubling
    | "nic" -> Ok Uls_collective.Group.Nic_forward
    | s -> Error (`Msg (Printf.sprintf "unknown algorithm %S" s))
  in
  let print fmt a =
    Format.pp_print_string fmt (Uls_collective.Group.algorithm_name a)
  in
  Arg.conv (parse, print)

let coll_op_conv =
  let parse = function
    | "barrier" -> Ok `Barrier
    | "bcast" -> Ok `Bcast
    | "allreduce" -> Ok `Allreduce
    | s -> Error (`Msg (Printf.sprintf "unknown collective op %S" s))
  in
  let print fmt o =
    Format.pp_print_string fmt
      (match o with
      | `Barrier -> "barrier"
      | `Bcast -> "bcast"
      | `Allreduce -> "allreduce")
  in
  Arg.conv (parse, print)

let collective_cmd =
  let op =
    Arg.(value & opt coll_op_conv `Barrier & info [ "op" ] ~docv:"OP"
           ~doc:"barrier | bcast | allreduce")
  in
  let alg =
    Arg.(value & opt alg_conv Uls_collective.Group.Binomial_tree
         & info [ "alg" ] ~docv:"ALG" ~doc:"linear | binomial | recdbl | nic")
  in
  let nodes =
    Arg.(value & opt pos_int 8 & info [ "nodes" ] ~docv:"N"
           ~doc:"Group size.")
  in
  let size =
    Arg.(value & opt pos_int 65_536 & info [ "size" ] ~docv:"BYTES"
           ~doc:"Payload size (bcast/allreduce only).")
  in
  let iters =
    Arg.(value & opt pos_int 10 & info [ "iters" ] ~doc:"Iterations.")
  in
  let run op alg nodes size iters (observe, report) =
    let alg_name = Uls_collective.Group.algorithm_name alg in
    (match op with
    | `Barrier ->
      let us =
        Uls_bench.Microbench.barrier_latency ?observe ~iters ~alg ~nodes ()
      in
      Printf.printf "%d-node %s barrier: %.2f us\n" nodes alg_name us
    | (`Bcast | `Allreduce) as op ->
      let op_name =
        match op with `Bcast -> "bcast" | `Allreduce -> "allreduce"
      in
      let mbps =
        Uls_bench.Microbench.coll_bandwidth ?observe ~iters ~op ~alg ~nodes
          ~size ()
      in
      Printf.printf "%d-node %s %s (%d B): %.1f Mb/s\n" nodes alg_name
        op_name size mbps);
    report ()
  in
  Cmd.v
    (Cmd.info "collective"
       ~doc:"Collective latency/bandwidth over an EMP group")
    Term.(const run $ op $ alg $ nodes $ size $ iters $ observer)

(* --- engine ------------------------------------------------------------ *)

let engine_pair rows name =
  let module B = Uls_bench.Engine_bench in
  let find sched =
    List.find (fun r -> r.B.scenario = name && r.B.sched = sched) rows
  in
  (find `Heap, find `Wheel)

let print_engine rows =
  let module B = Uls_bench.Engine_bench in
  Format.printf "%-14s %8s %10s %10s %14s %9s %8s@." "scenario" "conns"
    "sched" "events" "events/sec" "speedup" "mw/ev";
  List.iter
    (fun sh ->
      let h, w = engine_pair rows sh.B.sh_name in
      List.iter
        (fun (r : B.row) ->
          Format.printf "%-14s %8d %10s %10d %14.0f %9s %8.2f@." r.B.scenario
            r.B.conns (sched_name r.B.sched) r.B.events r.B.events_per_sec
            (if r.B.sched = `Wheel then
               Printf.sprintf "%.2fx" (r.B.events_per_sec /. h.B.events_per_sec)
             else "")
            r.B.minor_words_per_event)
        [ h; w ])
    B.shapes

let engine_cmd =
  let open Uls_bench in
  let engine_json record (r : Engine_bench.row) =
    record
      [
        ("bench", json_str "engine");
        ("scenario", json_str r.Engine_bench.scenario);
        ("sched", json_str (sched_name r.Engine_bench.sched));
        ("conns", json_int r.Engine_bench.conns);
        ("events", json_int r.Engine_bench.events);
        ("elapsed_s", json_float r.Engine_bench.elapsed_s);
        ("events_per_sec", json_float r.Engine_bench.events_per_sec);
        ("minor_words_per_event",
         json_float r.Engine_bench.minor_words_per_event);
      ]
  in
  let run record =
    let rows = Engine_bench.run_all () in
    print_engine rows;
    List.iter (engine_json record) rows
  in
  Cmd.v
    (Cmd.info "engine"
       ~doc:
         "Event-core throughput: events/sec through the simulator on \
          synthetic timer workloads (pingpong, serve-512, fabric-4096, \
          fabric-65536), binary heap vs hierarchical timing wheel")
    Term.(const run $ json_flag ~file:"BENCH_engine.json")

(* --- firehose and storm: one rings flag surface ------------------------ *)

(* Every record keeps its workload's historical field names: the
   firehose gate's baseline lookup reads them back. A storm's
   [server_accepts] is its accepted count, which [intact] requires the
   targets to have matched. *)
let rings_json record (cfg : Uls_bench.Rings.config)
    (r : Uls_bench.Rings.report) =
  let module R = Uls_bench.Rings in
  let bench, params, trailing, results =
    match cfg.workload with
    | R.Firehose f ->
      ( "firehose",
        [ ("sinks", json_int f.sinks); ("count", json_int f.count);
          ("size", json_int f.size) ],
        [ ("seed", json_int f.seed); ("loss", json_float f.loss) ],
        [ ("messages", json_int r.offered);
          ("delivered", json_int r.completed);
          ("mismatches", json_int r.failed);
          ("elapsed_ms", json_float r.elapsed_ms); ("pps", json_float r.rate);
          ("mbps", json_float r.mbps) ] )
    | R.Storm s ->
      ( "storm",
        [ ("scanners", json_int s.scanners); ("targets", json_int s.targets);
          ("window", json_int s.window); ("probes", json_int s.probes) ],
        [],
        [ ("attempts", json_int r.offered);
          ("accepted", json_int (r.completed - r.failed));
          ("refused", json_int r.failed);
          ("server_accepts", json_int (r.completed - r.failed));
          ("elapsed_ms", json_float r.elapsed_ms);
          ("attempts_per_sec", json_float r.rate);
          ("mpps", json_float (r.rate /. 1e6)) ] )
  in
  record
    ([ ("bench", json_str bench);
       ("match", json_str (Uls_nic.Match_list.engine_name cfg.match_engine));
       ("sched", json_str "wheel") ]
    @ params
    @ [ ("batch", json_int cfg.batch); ("busy_poll", json_bool cfg.busy_poll) ]
    @ trailing @ results
    @ [ ("doorbells", json_int r.doorbells);
        ("mailbox_fetches", json_int r.mailbox_fetches);
        ("ring_submitted", json_int r.ring_submitted);
        ("ring_doorbells", json_int r.ring_doorbells);
        ("ring_coalesced", json_int r.ring_coalesced);
        ("faults", json_int r.faults); ("retransmits", json_int r.retransmits);
        ("intact", json_bool r.intact);
        ("completed_run", json_bool r.completed_run) ])

(* [firehose] and [storm] are two presets of one flag surface over one
   {!Uls_bench.Rings} spec: the submission path's flags are shared, and
   [workload] reads the command's own. *)
let rings_cmd ~name ~doc workload =
  let module R = Uls_bench.Rings in
  let batch =
    Arg.(value & opt pos_int R.default.batch & info [ "batch" ] ~docv:"N"
           ~doc:"Submission batch depth: descriptors per doorbell. \
                 $(b,1) is the per-call ablation (byte-identical to the \
                 pre-ring path).")
  in
  let busy_poll =
    Arg.(value & flag & info [ "busy-poll" ]
           ~doc:"Endpoint tx ring in busy-poll mode: the NIC-side fetch \
                 loop spins instead of sleeping between doorbells.")
  in
  let run workload batch busy_poll match_engine metrics record =
    let cfg = { R.workload; batch; busy_poll; match_engine } in
    let on_metrics = if metrics then Some dump_metrics else None in
    let r = R.run ?on_metrics cfg in
    R.print_report Format.std_formatter cfg r;
    rings_json record cfg r;
    if not (r.completed_run && r.intact) then exit 1
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(const run $ workload $ batch $ busy_poll $ match_engine_flag
          $ metrics_flag $ json_flag ~file:"BENCH_rings.json")

let firehose_cmd =
  let module R = Uls_bench.Rings in
  let d = R.firehose in
  let sinks =
    Arg.(value & opt pos_int d.sinks
         & info [ "sinks" ] ~docv:"N" ~doc:"Sink nodes (source is node 0).")
  in
  let count =
    Arg.(value & opt pos_int d.count
         & info [ "count" ] ~docv:"N" ~doc:"Messages per sink.")
  in
  let size =
    Arg.(value & opt pos_int d.size
         & info [ "size" ] ~docv:"BYTES" ~doc:"Payload bytes per message.")
  in
  let workload sinks count size seed loss =
    R.Firehose { sinks; count; size; seed; loss }
  in
  rings_cmd ~name:"firehose"
    ~doc:
      "Small-message datagram firehose through the ring-based batched \
       I/O subsystem: one source sprays patterned datagrams at N \
       sinks, one doorbell per --batch submissions; prints pps and \
       the NIC doorbell/fetch audit pair"
    Term.(const workload $ sinks $ count $ size $ seed_flag $ loss_flag)

let storm_cmd =
  let module R = Uls_bench.Rings in
  let d = R.storm in
  let scanners =
    Arg.(value & opt pos_int d.scanners
         & info [ "scanners" ] ~docv:"N" ~doc:"Scanner (prober) nodes.")
  in
  let targets =
    Arg.(value & opt pos_int d.targets
         & info [ "targets" ] ~docv:"N" ~doc:"Target (listener) nodes.")
  in
  let window =
    Arg.(value & opt pos_int d.window
         & info [ "window" ] ~docv:"W"
             ~doc:"Probe slots (concurrent probes) per scanner.")
  in
  let probes =
    Arg.(value & opt pos_int d.probes
         & info [ "probes" ] ~docv:"N" ~doc:"Probes per scanner.")
  in
  let backlog =
    Arg.(value & opt int d.backlog
         & info [ "backlog" ] ~docv:"N" ~doc:"Per-target listen backlog.")
  in
  let workload scanners targets window probes backlog =
    R.Storm { scanners; targets; window; probes; backlog }
  in
  rings_cmd ~name:"storm"
    ~doc:
      "ZMap-style connection storm: windowed raw-EMP probe engines \
       fire batched connection attempts at substrate listeners, one \
       doorbell per --batch probes; prints connect-attempt rate and \
       the NIC doorbell/fetch audit pair"
    Term.(const workload $ scanners $ targets $ window $ probes $ backlog)

(* --- races ------------------------------------------------------------- *)

let races_cmd =
  let module X = Uls_analysis.Explore in
  let module S = Uls_analysis.Scenarios in
  let seeds =
    Arg.(value & opt int 16 & info [ "seeds" ] ~docv:"K"
           ~doc:"Seeded random walks per scenario (seeds 0..K-1), on top of \
                 the FIFO baseline and, for scenarios with a bound, the \
                 depth-first sweep.")
  in
  let scenario =
    Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"NAME"
           ~doc:"Run a single scenario by name.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose"; "v" ]
           ~doc:"Full divergence/violation listings.")
  in
  let schedule_conv =
    let parse id =
      match X.parse_schedule_id id with
      | Some _ -> Ok id
      | None -> Error (`Msg (X.string_of_replay_error (X.Malformed_id id)))
    in
    Arg.conv (parse, Format.pp_print_string)
  in
  let replay_schedule =
    Arg.(value & opt (some schedule_conv) None
         & info [ "replay-schedule" ] ~docv:"ID"
             ~doc:"Replay --scenario under one schedule id (sparse \
                   $(i,POS:CHOICE) list such as 29:1,38:2, or fifo, as \
                   printed by a flagged run) and dump its fingerprint, \
                   violations, racing pairs, and any deadlock report. An \
                   id that does not fit the scenario exits 124.")
  in
  let max_runs =
    Arg.(value & opt (some int) None & info [ "max-runs" ] ~docv:"N"
           ~doc:"Override the per-scenario depth-first sweep run budget.")
  in
  let max_preempt =
    Arg.(value & opt (some int) None & info [ "max-preemptions" ] ~docv:"P"
           ~doc:"Override the per-scenario preemption cap.")
  in
  let find_or_die name =
    match S.find name with
    | Some sc -> sc
    | None ->
      Printf.eprintf "ulsbench races: unknown scenario %S (have: %s)\n" name
        (String.concat ", " (List.map (fun sc -> sc.S.sc_name) S.all));
      exit 124
  in
  let dump_outcome ~pairs (o : S.outcome) =
    print_endline (Uls_analysis.Fingerprint.to_string o.S.fingerprint);
    List.iter
      (fun v -> print_endline (Uls_engine.Invariant.string_of_violation v))
      o.S.violations;
    List.iter (fun p -> print_endline (Uls_analysis.Hb.render_pair p)) pairs;
    (match o.S.deadlock with
    | Some rep -> print_endline (Uls_analysis.Deadlock.render rep)
    | None -> ());
    if o.S.violations <> [] || o.S.deadlock <> None then exit 1
  in
  let run seeds scenario replay_schedule max_runs max_preempt verbose =
    match replay_schedule with
    | Some id -> (
      let name =
        match scenario with
        | Some n -> n
        | None ->
          prerr_endline "ulsbench races: --replay-schedule requires --scenario";
          exit 124
      in
      match X.replay (find_or_die name) ~schedule:id with
      | Ok (o, pairs) -> dump_outcome ~pairs o
      | Error e ->
        Printf.eprintf "ulsbench races: --replay-schedule %s: %s\n" id
          (X.string_of_replay_error e);
        exit 124)
    | None ->
      let scenarios =
        match scenario with
        | Some name -> [ find_or_die name ]
        | None -> S.all
      in
      let failures = ref 0 in
      List.iter
        (fun sc ->
          let v =
            X.explore ~seeds ?max_runs ?max_preemptions:max_preempt sc
          in
          print_endline (X.render ~verbose v);
          let ok = if sc.S.sc_buggy then X.flagged v else X.clean v in
          if not ok then begin
            incr failures;
            Printf.printf "FAIL: %s %s\n" sc.S.sc_name
              (if sc.S.sc_buggy then
                 "— the explorer no longer finds this seeded regression"
               else "— not schedule-independent")
          end)
        scenarios;
      if !failures > 0 then exit 1;
      print_endline "races: all scenarios OK"
  in
  Cmd.v
    (Cmd.info "races"
       ~doc:"Schedule exploration over the invariant suite: seeded random \
             walks for every scenario plus a DPOR-style depth-first sweep \
             for scenarios with an exploration bound")
    Term.(const run $ seeds $ scenario $ replay_schedule $ max_runs
          $ max_preempt $ verbose)

(* --- check: the CI gates ------------------------------------------------ *)

(* Every gate reports through this one collector; each failure names its
   gate. *)
let current_gate = ref ""
let gate_failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      Printf.eprintf "ulsbench check %s: %s\n" !current_gate msg;
      incr gate_failures)
    fmt

(* A committed BENCH_*.json baseline, oldest record first. A missing
   file or an unparseable line fails the running gate: a baseline gate
   never passes by default. *)
let baseline file =
  match In_channel.with_open_text file In_channel.input_all with
  | exception Sys_error e ->
    fail "baseline %s" e;
    None
  | text ->
    let rec parse acc lineno = function
      | [] -> Some (file, List.rev acc)
      | "" :: rest -> parse acc (lineno + 1) rest
      | line :: rest -> (
        match parse_record line with
        | Some r -> parse (r :: acc) (lineno + 1) rest
        | None ->
          fail "baseline %s:%d is not a record" file lineno;
          None)
    in
    parse [] 1 (String.split_on_char '\n' text)

(* The [key] field, read by [parse], of the newest baseline record that
   carries every [where] field; no such record fails the running gate. *)
let lookup base ~where key parse =
  match base with
  | None -> None
  | Some (file, recs) -> (
    let matches r = List.for_all (fun kv -> List.mem kv r) where in
    let value r = Option.bind (List.assoc_opt key r) parse in
    match Option.bind (List.find_opt matches (List.rev recs)) value with
    | Some _ as v -> v
    | None ->
      fail "baseline %s has no record with %s and a readable %s" file
        (String.concat " "
           (List.map (fun (k, v) -> Printf.sprintf "%s=%s" k v) where))
        key;
      None)

(* Every gate run monitors the protocol invariants (credits within the
   window and granted only for posted slots, descriptor conservation):
   [run] gets an [observe] hook that enables its simulation's monitor
   before any traffic, and each violation recorded fails the gate. *)
let monitored tag run =
  let inv = ref None in
  let r =
    run (fun sim ->
        let i = Uls_engine.Invariant.for_sim sim in
        Uls_engine.Invariant.enable i;
        inv := Some i)
  in
  Option.iter
    (fun i ->
      List.iter
        (fun v -> fail "%s: %s" tag (Uls_engine.Invariant.string_of_violation v))
        (Uls_engine.Invariant.violations i))
    !inv;
  r

let engine_gate () =
  let module B = Uls_bench.Engine_bench in
  let rows = B.run_all () in
  print_engine rows;
  let alloc_ceiling = 14.0 in
  let base = baseline "BENCH_engine.json" in
  let where name sched =
    [ ("bench", "engine"); ("scenario", name); ("sched", sched_name sched) ]
  in
  List.iter
    (fun sh ->
      let name = sh.B.sh_name in
      let h, w = engine_pair rows name in
      if h.B.events <> w.B.events then
        fail "%s: heap dispatched %d events, wheel %d" name h.B.events
          w.B.events;
      List.iter
        (fun (r : B.row) ->
          let sched = sched_name r.B.sched in
          if r.B.minor_words_per_event > alloc_ceiling then
            fail
              "%s/%s: %.2f minor words/event exceeds the %.1f allocation \
               ceiling (engine hot path started allocating)"
              name sched r.B.minor_words_per_event alloc_ceiling;
          match
            lookup base ~where:(where name r.B.sched) "events"
              int_of_string_opt
          with
          | Some v when v <> r.B.events ->
            fail
              "%s/%s: %d events, baseline %d (event structure changed — \
               recapture the baseline deliberately)"
              name sched r.B.events v
          | _ -> ())
        [ h; w ];
      let eps sched =
        lookup base ~where:(where name sched) "events_per_sec"
          float_of_string_opt
      in
      match (eps `Heap, eps `Wheel) with
      | Some bh, Some bw when bh > 0. && h.B.events_per_sec > 0. ->
        let base_ratio = bw /. bh in
        let ratio = w.B.events_per_sec /. h.B.events_per_sec in
        if ratio < 0.8 *. base_ratio then
          fail
            "%s: wheel/heap speedup %.2fx regressed more than 20%% from \
             baseline %.2fx"
            name ratio base_ratio
      | _ -> ())
    B.shapes;
  let h, w = engine_pair rows "fabric-65536" in
  if w.B.events_per_sec < 2.0 *. h.B.events_per_sec then
    fail "fabric-65536: wheel %.0f ev/s < 2x heap %.0f ev/s"
      w.B.events_per_sec h.B.events_per_sec

(* A ring run that must complete intact. With [~audit], every NIC
   doorbell on the submitting nodes must be fetched once or coalesced
   once into a tx-ring fetch already due or running, at every batch
   depth — the metric pair that caught the TX double-charge. A receive
   post a busy queue takes from the fill ring rings no doorbell and
   counts no fetch. *)
let rings_leg ?(audit = false) tag (cfg : Uls_bench.Rings.config) =
  let module R = Uls_bench.Rings in
  let r = monitored tag (fun observe -> R.run ~observe cfg) in
  R.print_report Format.std_formatter cfg r;
  if not (r.completed_run && r.intact) then
    fail "%s: incomplete or not intact (%d/%d completed, %d failed)" tag
      r.completed r.offered r.failed;
  let d = r.doorbells and f = r.mailbox_fetches and c = r.ring_coalesced in
  if audit && d <> f + c then
    fail "%s: doorbell audit: %d doorbells vs %d mailbox fetches + %d coalesced"
      tag d f c;
  r

(* Both ring gates: batch=32 and the batch=1 ablation run intact and
   pass the audit, and a batch=32 double-run is byte-identical. *)
let rings_gate workload =
  let module R = Uls_bench.Rings in
  let cfg = { R.default with workload; batch = 32 } in
  let r32 = rings_leg ~audit:true "batch=32" cfg in
  let r1 = rings_leg ~audit:true "batch=1" { cfg with batch = 1 } in
  if monitored "batch=32 rerun" (fun observe -> R.run ~observe cfg) <> r32 then
    fail "batch=32 seeded runs diverged";
  (cfg, r32, r1)

let firehose_gate () =
  let module R = Uls_bench.Rings in
  let d, r32, r1 = rings_gate (R.Firehose R.firehose) in
  if r1.rate > 0. && r32.rate < 2.0 *. r1.rate then
    fail "batch=32 pps %.0f < 2x batch=1 pps %.0f" r32.rate r1.rate;
  let rbp = rings_leg "busy-poll" { d with busy_poll = true } in
  if rbp.ring_doorbells <> 0 then
    fail "busy-poll: tx ring rang %d doorbells" rbp.ring_doorbells;
  if rbp.completed <> r32.completed then
    fail "busy-poll delivered %d, wakeup delivered %d" rbp.completed
      r32.completed;
  let rloss =
    rings_leg "loss=0.02"
      { d with workload = R.Firehose { R.firehose with loss = 0.02 } }
  in
  if rloss.faults = 0 then fail "loss=0.02: fault engine injected nothing";
  let where =
    [ ("bench", "firehose"); ("batch", "32");
      ("size", json_int R.firehose.size); ("busy_poll", "false");
      ("loss", json_float 0.) ]
  in
  let base = baseline "BENCH_rings.json" in
  match lookup base ~where "pps" float_of_string_opt with
  | Some b when r32.rate < 0.8 *. b ->
    fail "batch=32 pps %.0f below 80%% of baseline %.0f" r32.rate b
  | _ -> ()

let storm_gate () =
  ignore (rings_gate (Uls_bench.Rings.Storm Uls_bench.Rings.storm))

(* [f ()] and the minor words it allocated. *)
let counting_words f =
  let w0 = Gc.minor_words () in
  let r = f () in
  (r, Gc.minor_words () -. w0)

(* The allocation ceiling of a real workload: one pinned-seed run's
   minor words per dispatched event, minor words per operation and
   events per operation, each against a fixed ceiling (the gate table
   states them). Words per event alone rises when events that allocate
   little are removed; words per operation does not. *)
let allocation_ceiling tag ~words ~events ~ops ~max_words ~max_op_words
    ~max_events =
  let per_event = words /. float_of_int (max 1 events) in
  let words_per_op = words /. float_of_int (max 1 ops) in
  let per_op = float_of_int events /. float_of_int (max 1 ops) in
  Printf.printf
    "%s: %.1f minor words/event (ceiling %.1f), %.0f minor words/op \
     (ceiling %.0f), %.1f events/op (ceiling %.1f)\n%!"
    tag per_event max_words words_per_op max_op_words per_op max_events;
  if per_event > max_words then
    fail "%s: %.1f minor words/event exceeds the %.1f ceiling" tag per_event
      max_words;
  if words_per_op > max_op_words then
    fail "%s: %.0f minor words/op exceeds the %.0f ceiling" tag words_per_op
      max_op_words;
  if per_op > max_events then
    fail "%s: %.1f events/op exceeds the %.1f ceiling" tag per_op max_events

(* A zero-loss run drops no EMP frame for want of a posted descriptor: a
   descriptor posted after the frame that needs it fails the gate here
   instead of hiding behind EMP's 2 ms RTO. [runs] are a gate's
   zero-loss runs, tagged; the fleet-wide total is printed. *)
let no_descriptor_drops gate runs =
  let drops (_, r) = r.Uls_bench.Load.drops_no_descriptor in
  Printf.printf
    "%s: %d EMP frames dropped for want of a descriptor over %d zero-loss \
     runs (ceiling 0)\n%!"
    gate
    (List.fold_left (fun acc run -> acc + drops run) 0 runs)
    (List.length runs);
  List.iter
    (fun ((tag, _) as run) ->
      if drops run > 0 then
        fail "%s: %d EMP frames dropped for want of a descriptor at zero loss"
          tag (drops run))
    runs

(* The substrate's server preset and default kernel TCP: what
   [--stack ds] and [--stack tcp] select for serving. *)
let ds = `Sub Uls_substrate.Options.server
let tcp = `Tcp Uls_tcp.Config.default

let serve_gate () =
  let module L = Uls_bench.Load in
  let cfg ?(match_engine = Uls_nic.Match_list.Hashed) ~conns ~requests
      ~clients kind workload =
    {
      L.default with
      kind;
      workload;
      conns;
      requests_per_conn = requests;
      size = 256;
      client_nodes = clients;
      backlog = conns;
      match_engine;
    }
  in
  let smoke = cfg ~conns:128 ~requests:4 ~clients:2 in
  let scale = cfg ~conns:512 ~requests:2 ~clients:4 in
  (* With no cell killed, [intact] already rules out refusals, resets,
     errors and mismatches; serving also sheds nothing. *)
  let clean tag (r : L.report) =
    if
      not
        (r.L.completed_run && r.L.intact && r.L.shed = 0
        && r.L.completed = r.L.sent)
    then
      fail "%s: %d/%d completed (%d errors, %d shed, %d refused, %d \
            mismatches%s)"
        tag r.L.completed r.L.sent (r.L.errors + r.L.resets) r.L.shed
        r.L.refused r.L.mismatches
        (if r.L.completed_run && r.L.intact then "" else ", hung or corrupt")
  in
  let zero_loss = ref [] in
  let run ?on_metrics tag c =
    let r = monitored tag (fun observe -> L.run ~observe ?on_metrics c) in
    L.print_report Format.std_formatter c r;
    clean tag r;
    zero_loss := (tag, r) :: !zero_loss;
    r
  in
  let twice tag c =
    let a = monitored tag (fun observe -> L.run ~observe c)
    and b = monitored tag (fun observe -> L.run ~observe c) in
    clean tag a;
    zero_loss := (tag, b) :: (tag, a) :: !zero_loss;
    if a <> b then fail "%s: seeded runs diverged" tag
  in
  List.iter
    (fun (st, w, tag) -> ignore (run tag (smoke st w)))
    [ (ds, L.Echo, "ds/echo"); (ds, L.Http, "ds/http");
      (tcp, L.Echo, "tcp/echo"); (tcp, L.Http, "tcp/http") ];
  twice "ds/echo" (smoke ds L.Echo);
  let linear = Uls_nic.Match_list.Linear in
  let lin = run "ds/512/linear" (scale ~match_engine:linear ds L.Echo) in
  let server_queues = ref [] and emp_totals = ref [] in
  let on_metrics m =
    server_queues :=
      List.init 2 (fun q ->
          Uls_engine.Metrics.counter_value m ~node:0
            (Printf.sprintf "nic.rx_frames.q%d" q));
    (* EMP counters summed over every node of the run. *)
    emp_totals :=
      List.map
        (fun name ->
          ( name,
            List.fold_left
              (fun acc (_, n, v) -> if n = name then acc + v else acc)
              0
              (Uls_engine.Metrics.counters_snapshot m) ))
        [ "emp.ack_frames_sent"; "emp.acks_piggybacked";
          "emp.frames_retransmitted" ]
  in
  let hsh, words =
    counting_words (fun () -> run ~on_metrics "ds/512/hashed" (scale ds L.Echo))
  in
  allocation_ceiling "ds/512/hashed" ~words ~events:hsh.L.events
    ~ops:hsh.L.sent ~max_words:55.2 ~max_op_words:5_809. ~max_events:99.9;
  let frames = List.fold_left ( + ) 0 !server_queues in
  Printf.printf "ds/512/hashed: server NIC receive queues carry %s of %d frames\n%!"
    (String.concat " / " (List.map string_of_int !server_queues)) frames;
  List.iteri
    (fun q n ->
      let share = float_of_int n /. float_of_int (max 1 frames) in
      if share < 0.25 || share > 0.75 then
        fail "ds/512/hashed: receive queue %d carries %.0f%% of the server \
              NIC's %d frames (bound 25-75%%)"
          q (100. *. share) frames)
    !server_queues;
  let tx_us =
    float_of_int hsh.L.server_nic_tx_ns /. 1e3 /. float_of_int (max 1 hsh.L.sent)
  in
  let max_tx_us = 7.5 in
  Printf.printf
    "ds/512/hashed: %.2f us of server NIC transmit core per request \
     (ceiling %.1f)\n%!"
    tx_us max_tx_us;
  if tx_us > max_tx_us then
    fail "ds/512/hashed: %.2f us of server NIC transmit core per request \
          exceeds the %.1f ceiling"
      tx_us max_tx_us;
  (* The ring firmware holds each message's completing EMP ack and
     lets a data frame back carry it: ack frames per request stay under
     a ceiling 5% over the measured 0.667 (the paper firmware's one
     frame per message sent 3.52), and holding acks adds no
     retransmission to this leg, which resent none before. *)
  let emp name = try List.assoc name !emp_totals with Not_found -> 0 in
  let per_req n = float_of_int n /. float_of_int (max 1 hsh.L.sent) in
  let ack_frames = per_req (emp "emp.ack_frames_sent")
  and carried = per_req (emp "emp.acks_piggybacked")
  and resent = emp "emp.frames_retransmitted" in
  let max_ack_frames = 0.70 and max_resent = 0 in
  Printf.printf
    "ds/512/hashed: %.3f EMP ack frames per request (ceiling %.2f), %.3f \
     piggybacked acks per request, %d frames retransmitted (ceiling %d)\n%!"
    ack_frames max_ack_frames carried resent max_resent;
  if ack_frames > max_ack_frames then
    fail "ds/512/hashed: %.2f EMP ack frames per request exceeds the %.2f \
          ceiling"
      ack_frames max_ack_frames;
  if resent > max_resent then
    fail "ds/512/hashed: %d frames retransmitted at zero loss (ceiling %d)"
      resent max_resent;
  if hsh.L.lat.rps < lin.L.lat.rps *. 0.999 then
    fail "hashed slower than linear at 512 conns (%.0f vs %.0f req/s)"
      hsh.L.lat.rps lin.L.lat.rps;
  ignore (run "tcp/512" (scale tcp L.Echo));
  twice "ds/512/hashed" (scale ds L.Echo);
  no_descriptor_drops "serve" (List.rev !zero_loss)

let fabric_gate () =
  let module L = Uls_bench.Load in
  let base ?kill kind cells =
    {
      L.default with
      kind;
      topology =
        L.Fabric { L.fabric with cells; shards = 2; vnodes = 64; kill };
      arrival = L.Sessions 8_000.;
      conns = 256;
      requests_per_conn = 2;
      size = 128;
      client_nodes = 4;
      backlog = 128;
    }
  in
  (* [intact] confines refusals, resets and errors to a killed cell, so
     a run without a kill must have none. *)
  let clean tag (r : L.report) =
    if not (r.L.completed_run && r.L.intact) then
      fail "%s: hung, corrupt or failed connections (%d refused, %d \
            resets, %d errors)"
        tag r.L.refused r.L.resets r.L.errors
  in
  let run label (cfg : L.config) =
    Format.printf "--- fabric smoke: %s %s@."
      (Uls_bench.Cluster.stack_name cfg.kind) label;
    let r = monitored label (fun observe -> L.run ~observe cfg) in
    L.print_report Format.std_formatter cfg r;
    r
  in
  let matrix =
    List.map
      (fun (st, cells) ->
        let tag =
          Printf.sprintf "%s/%d-cell" (Uls_bench.Cluster.stack_name st) cells
        in
        let r = run (Printf.sprintf "cells=%d" cells) (base st cells) in
        clean tag r;
        (tag, r))
      [ (ds, 1); (ds, 4); (tcp, 1); (tcp, 4) ]
  in
  List.iter
    (fun st ->
      let tag = Uls_bench.Cluster.stack_name st ^ "/kill" in
      let r =
        run "kill-failover" (base ~kill:(1, Uls_engine.Time.ms 8) st 4)
      in
      clean tag r;
      if r.L.healed_at_ms < 0. then fail "%s: ring never healed" tag)
    [ ds; tcp ];
  let cfg = base ds 4 in
  let closes = ref 0 and sampled = ref [] and survivors = ref 0 in
  let sample (s : Uls_api.Sockets_api.stream) =
    incr closes;
    if !closes mod 64 = 0 then begin
      let w = Weak.create 1 in
      Weak.set w 0 (Some s);
      sampled := w :: !sampled
    end
  in
  let count_survivors _ =
    Gc.full_major ();
    survivors := List.length (List.filter (fun w -> Weak.check w 0) !sampled)
  in
  let a =
    monitored "ds/4-cell" (fun observe ->
        L.run ~observe ~on_server_close:sample ~on_metrics:count_survivors cfg)
  in
  let b, words =
    counting_words (fun () ->
        monitored "ds/4-cell" (fun observe -> L.run ~observe cfg))
  in
  allocation_ceiling "ds/4-cell" ~words ~events:b.L.events ~ops:cfg.conns
    ~max_words:56.0 ~max_op_words:12_641. ~max_events:211.2;
  let doorbells = float_of_int b.L.doorbells /. float_of_int cfg.conns in
  let max_doorbells = 14.0 in
  Printf.printf "ds/4-cell: %.2f NIC doorbells/session (ceiling %.1f)\n%!"
    doorbells max_doorbells;
  if doorbells > max_doorbells then
    fail "ds/4-cell: %.2f NIC doorbells/session exceeds the %.1f ceiling"
      doorbells max_doorbells;
  clean "determinism" a;
  if a <> b then fail "seeded runs diverged";
  (* The kill smokes lose a cell's frames on purpose. *)
  no_descriptor_drops "fabric" (matrix @ [ ("ds/4-cell", a); ("ds/4-cell", b) ]);
  if !sampled = [] || !survivors > 0 then
    fail "%d of %d sampled closed server streams still reachable" !survivors
      (List.length !sampled)

(* Host memory must be O(live). A long run samples the process's live
   words after a full major GC every [every] operations, never at the
   run's end; the first sample is the warm-up (pools, tables and
   reservoirs filled). After it, no segment may end more than 2 words
   per operation above the one before: in-flight state moves by less,
   while a per-message history (a hash-table entry is at least 4 words)
   exceeds it. *)
let soak_gate () =
  let samples = ref [] in
  let sample () =
    Gc.full_major ();
    samples := (Gc.stat ()).Gc.live_words :: !samples
  in
  let flat tag ~every ok =
    let words = List.rev !samples in
    samples := [];
    Printf.printf "soak %s: live words every %d ops: %s\n%!" tag every
      (String.concat " " (List.map string_of_int words));
    if not ok then fail "%s: run hung or delivered corrupt data" tag;
    match words with
    | [] | [ _ ] | [ _; _ ] -> fail "%s: too few segments" tag
    | _warmup :: first :: rest ->
      ignore
        (List.fold_left
           (fun prev w ->
             if w > prev + (2 * every) then
               fail "%s: live words grew from %d to %d in %d operations" tag
                 prev w every;
             w)
           first rest)
  in
  let module L = Uls_bench.Load in
  let serve =
    {
      L.default with
      conns = 64;
      requests_per_conn = 800;
      size = 256;
      client_nodes = 4;
      backlog = 64;
    }
  in
  let every = 10_000 in
  let r =
    monitored "serve" (fun observe -> L.run ~observe ~progress:(every, sample) serve)
  in
  flat "serve" ~every
    (r.L.completed_run && r.L.intact && r.L.completed = r.L.sent);
  let module R = Uls_bench.Rings in
  let every = 18_000 in
  let r =
    monitored "firehose" (fun observe ->
        R.run ~observe ~progress:(every, sample)
          {
            R.default with
            workload = R.Firehose { R.firehose with count = 24_000 };
          })
  in
  flat "firehose" ~every (r.completed_run && r.intact);
  (* Session churn warms up slowly: per-node histograms fill their
     8192-sample reservoirs at a fraction of the session rate, which
     shows as the step from the first sample to the second (404698 to
     413434 words on OCaml 5.1.1; flat after it). Timers no longer add
     to it: a session's embryo and retransmission timers are cancelled
     when it is served and acknowledged, and their wheel slots freed. *)
  let every = 6_000 and closes = ref 0 in
  let on_server_close _ =
    incr closes;
    if !closes mod every = 0 then sample ()
  in
  let r =
    monitored "fabric" (fun observe ->
        L.run ~observe ~on_server_close
          {
            L.default with
            topology = L.Fabric { L.fabric with cells = 2; shards = 2 };
            arrival = L.Sessions 4_000.;
            conns = 26_000;
            requests_per_conn = 2;
            size = 256;
            client_nodes = 4;
            backlog = 128;
          })
  in
  flat "fabric" ~every (r.L.completed_run && r.L.intact)

let chaos_gate () =
  let bad =
    chaos_sweep ~wrap:monitored ~stacks:[ `Ds; `Tcp ] ~seed:42 ~total:1_048_576
      ~msg:16_384
      ~rates:Uls_bench.Microbench.loss_rates
  in
  if bad > 0 then fail "%d run(s) hung or corrupted data" bad

(** The gates CI runs, in order. Each pins its seed and settings and
    reads only the committed baselines. Every run of a protocol
    workload (all gates but [engine], whose shapes run no protocol)
    enables its simulation's invariant monitors ({!monitored}): a
    credit outside its window, a credit granted for a data slot not
    posted again ([sub.credit_posted]) or an unbalanced descriptor
    fails the gate.

    - [engine]: the four engine shapes (pingpong through fabric-65536)
      on both schedulers. Heap and wheel must dispatch identical event
      counts (dispatch parity). The wheel must beat the heap by at least
      2x events/sec on fabric-65536, where O(1) queue ops must show. No
      run may allocate more than 14 minor words per dispatched event:
      the allocation sanitizer. Steady state is 4-5 on the wheel, all
      of it the workload's own per-cycle closures, so the dispatch loop,
      including the happens-before hook sites when no tracker is
      attached, adds nothing; the heap oracle reads 9-11.5, its
      [Option] results and task cells included. Against
      BENCH_engine.json every event count must match exactly (a
      mismatch means the event structure changed: recapture
      deliberately), and no shape's wheel/heap speedup may fall below
      80% of the baseline's. Ratios, not raw events/sec, so the gate is
      machine-independent to first order; each is the median of five
      interleaved heap/wheel pairs ({!Uls_bench.Engine_bench.run_all}).
    - [firehose] and [storm]: the two ring workloads
      ({!Uls_bench.Rings}). Both share one check: batch=32 and the
      batch=1 (per-call ablation) run complete and intact, the
      submitting nodes' NIC doorbell/mailbox-fetch audit pair agrees
      exactly (doorbells = fetches + tx-ring doorbells coalesced into a
      fetch already due or running), and a
      batch=32 double-run is byte-identical. The firehose also needs
      batch=32 at least 2x the batch=1 pps; busy-poll delivering the
      same messages with zero ring doorbells; the 2% loss chaos leg
      byte-exact; and batch=32 pps at or above 80% of
      BENCH_rings.json. Virtual-time pps, so the gate is
      machine-independent.
    - [serve]: the event-driven server under the timing wheel. A stack x
      workload matrix (substrate/TCP, echo/HTTP) and a double-run, with
      no hang, dropped request, shed, refusal or response mismatch. Then
      the match-engine ablation at 512 connections, where the linear
      walk's O(posted descriptors) cost begins to bite: the hashed tag
      index must be at least as fast as the linear walk, and its row
      byte-identical across a double-run. The ablation runs on the
      substrate only, since TCP takes the kernel receive path and never
      touches the NIC tag matcher; TCP gets one scale run. The hashed
      512-connection run bounds:
      - the share of the server NIC's frames on each of its two receive
        queues, 25-75%, so receive work spreads over both embedded cores;
      - the server NIC's transmit-core time per request, at most 7.5 us,
        so every send stays one fixed-format tx ring slot (mailbox
        posting of every send, the paper's path, costs about twice that);
      - minor words per dispatched event (55.2, 5% over 52.6) and per
        request (5809), on OCaml 5.1.1, the compiler CI pins. Removing
        events that allocate little raises words per event, so words
        per request carries its own ceiling;
      - events per request (99.9). The count is a pure function of the
        seeded run, so the 5% margin (over 95.1, measured once the ring
        firmware stopped sending an ack frame per message) only admits
        a small deliberate change of event structure;
      - EMP ack frames per request, at most 0.70 (5% over 0.667; the
        paper firmware's one frame per message sends 3.52), so a
        message's completing ack keeps riding a data frame back or a
        coalesced frame; and no retransmitted frame, as before the acks
        were held.
      Every run of the gate is at zero loss, and none may drop an EMP
      frame for want of a posted descriptor (the fleet-wide total is
      printed): a descriptor posted after the frame that needs it, such
      as a connection's batch posted after its handshake frame left,
      fails here instead of hiding behind EMP's 2 ms RTO.
    - [fabric]: a cell-count x stack matrix (1/4 cells, substrate/TCP)
      of open-loop fleet runs through the consistent-hash balancer;
      kill-failover on both stacks (cell 1 paused mid-load: the ring
      must heal and failures stay confined to the dead cell); and a
      byte-identical double-run. Its first run also checks that closed
      connections leave nothing behind: every 64th closed server-side
      stream is held weakly, and none may survive a full major GC while
      the cluster is still alive. Its second run carries the allocation
      ceilings, with [serve]'s margins and reasons: 56.0 minor words per
      dispatched event (5% over 53.3), 12641 per session and 211.2
      events per session (5% over 201.1). The same run bounds the NIC doorbells rung per
      session, on all nodes, at 14.0 (5% over 13.37: a session's last
      consumed slot is never reposted, and a repost that finds its
      receive queue busy rings none), so connection set-up stays
      batched through the fill ring and replenishing off the read
      (per-call posting, one doorbell per descriptor, rings about
      twice as many; a read that reposts inline adds one per
      session). The matrix and the two determinism runs drop no EMP
      frame for want of a posted descriptor, as in [serve]; the kill
      smokes, which lose a cell's frames, are exempt.
    - [chaos]: a checksummed payload streamed through the substrate and
      kernel TCP at 0/0.5/2/5% seeded frame loss. No run may hang past
      the virtual-time bound or deliver corrupt bytes; 1 MB per run
      keeps the sweep short.
    - [soak]: host memory is O(live). Serve (50k requests), firehose
      (96k messages) and fabric session churn (26k sessions) each run
      in one process, sampling live words after a full major GC at
      every segment end; after the warm-up segment no segment may grow
      by more than 2 words per operation. A per-message history, such
      as an unbounded EMP finished-message table, fails it. *)
let gates =
  [
    ("engine", engine_gate);
    ("firehose", firehose_gate);
    ("storm", storm_gate);
    ("serve", serve_gate);
    ("fabric", fabric_gate);
    ("chaos", chaos_gate);
    ("soak", soak_gate);
  ]

let check_cmd =
  let names =
    Arg.(value & pos_all (enum (List.map (fun (n, _) -> (n, n)) gates)) []
         & info [] ~docv:"GATE"
             ~doc:"Gates to run: engine | firehose | storm | serve | fabric \
                   | chaos | soak. Default: all, in that order.")
  in
  let run names =
    let names = if names = [] then List.map fst gates else names in
    let failed =
      List.filter
        (fun name ->
          current_gate := name;
          gate_failures := 0;
          (try (List.assoc name gates) ()
           with e -> fail "raised %s" (Printexc.to_string e));
          if !gate_failures > 0 then
            Printf.eprintf "ulsbench check %s: %d failure(s)\n" name
              !gate_failures
          else Printf.printf "check %s: ok\n%!" name;
          !gate_failures > 0)
        names
    in
    if failed <> [] then begin
      Printf.eprintf "ulsbench check: failed: %s\n" (String.concat ", " failed);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "CI gates over pinned-seed runs and the committed BENCH_*.json \
          baselines; exits non-zero naming every gate that failed")
    Term.(const run $ names)

let () =
  let doc = "Sockets-over-EMP reproduction benchmarks (simulated testbed)" in
  let info = Cmd.info "ulsbench" ~version:"1.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            figures_cmd;
            latency_cmd;
            bandwidth_cmd;
            collective_cmd;
            chaos_cmd;
            engine_cmd;
            firehose_cmd;
            storm_cmd;
            serve_cmd;
            fabric_cmd;
            races_cmd;
            check_cmd;
          ]))
