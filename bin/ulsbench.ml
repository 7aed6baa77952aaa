(* Command-line driver for the reproduction: run paper experiments or
   one-off micro-benchmarks on the simulated testbed. *)

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

let kind_of_stack = function
  | `Emp -> Uls_bench.Microbench.Emp_raw
  | `Tcp -> Uls_bench.Microbench.Tcp Uls_tcp.Config.default
  | `Tcp_tuned ->
    Uls_bench.Microbench.Tcp Uls_tcp.Config.(with_buffers default 262_144)
  | `Ds -> Uls_bench.Microbench.Sub Uls_substrate.Options.data_streaming_enhanced
  | `Ds_base -> Uls_bench.Microbench.Sub Uls_substrate.Options.data_streaming
  | `Dg -> Uls_bench.Microbench.Sub Uls_substrate.Options.datagram

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

let metrics_flag =
  Arg.(value & flag & info [ "metrics" ]
         ~doc:"Dump the per-node metrics registry after the run.")

let dump_metrics m = Uls_engine.Metrics.dump m Format.std_formatter

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

let sched_conv =
  let parse = function
    | "heap" -> Ok `Heap
    | "wheel" -> Ok `Wheel
    | s -> Error (`Msg (Printf.sprintf "unknown scheduler %S" s))
  in
  let print fmt s =
    Format.pp_print_string fmt (match s with `Heap -> "heap" | `Wheel -> "wheel")
  in
  Arg.conv (parse, print)

let sched_flag default =
  Arg.(value & opt sched_conv default
       & info [ "sched" ] ~docv:"SCHED"
           ~doc:"Simulator event queue: $(b,wheel) (hierarchical timing \
                 wheel, O(1) amortized) or $(b,heap) (binary heap \
                 baseline). Dispatch order is byte-identical either way.")

let sched_name = function `Heap -> "heap" | `Wheel -> "wheel"

(* Parse one flat record emitted by [emit_json] back into fields — the
   --check gates read committed BENCH_*.json baselines with this. Only
   handles the shape we emit: one {"k":v,...} object per line, values
   ints / %.3f floats / bools / %S strings. *)
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
    Some (List.rev !fields)
  with Exit -> None

let read_records file =
  if not (Sys.file_exists file) then []
  else begin
    let ic = open_in file in
    let recs = ref [] in
    (try
       while true do
         match parse_record (input_line ic) with
         | Some r -> recs := r :: !recs
         | None -> ()
       done
     with End_of_file -> ());
    close_in ic;
    List.rev !recs
  end

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

let latency_cmd =
  let stack =
    Arg.(value & opt stack_conv `Ds & info [ "stack" ] ~docv:"STACK"
           ~doc:"emp | tcp | tcp-tuned | ds | ds-base | dg")
  in
  let size =
    Arg.(value & opt int 4 & info [ "size" ] ~docv:"BYTES" ~doc:"Message size.")
  in
  let iters = Arg.(value & opt int 30 & info [ "iters" ] ~doc:"Iterations.") in
  let run stack size iters metrics =
    if metrics then begin
      let us, _, m =
        Uls_bench.Microbench.ping_pong_observed ~iters
          ~kind:(kind_of_stack stack) ~size ()
      in
      Printf.printf "%d-byte one-way latency: %.2f us\n" size us;
      dump_metrics m
    end
    else
      let us =
        Uls_bench.Microbench.ping_pong ~iters ~kind:(kind_of_stack stack) ~size ()
      in
      Printf.printf "%d-byte one-way latency: %.2f us\n" size us
  in
  Cmd.v
    (Cmd.info "latency" ~doc:"Ping-pong one-way latency on a 2-node cluster")
    Term.(const run $ stack $ size $ iters $ metrics_flag)

let bandwidth_cmd =
  let stack =
    Arg.(value & opt stack_conv `Ds & info [ "stack" ] ~docv:"STACK"
           ~doc:"emp | tcp | tcp-tuned | ds | ds-base | dg")
  in
  let msg =
    Arg.(value & opt int 65_536 & info [ "msg" ] ~docv:"BYTES" ~doc:"Message size.")
  in
  let total =
    Arg.(value & opt int (16 * 1024 * 1024) & info [ "total" ] ~docv:"BYTES"
           ~doc:"Total bytes to stream.")
  in
  let run stack msg total metrics =
    if metrics then begin
      let mbps, _, m =
        Uls_bench.Microbench.bandwidth_observed ~total
          ~kind:(kind_of_stack stack) ~msg ()
      in
      Printf.printf "stream bandwidth (%d-byte messages): %.1f Mb/s\n" msg mbps;
      dump_metrics m
    end
    else
      let mbps =
        Uls_bench.Microbench.bandwidth ~total ~kind:(kind_of_stack stack) ~msg ()
      in
      Printf.printf "stream bandwidth (%d-byte messages): %.1f Mb/s\n" msg mbps
  in
  Cmd.v
    (Cmd.info "bandwidth" ~doc:"Unidirectional stream bandwidth")
    Term.(const run $ stack $ msg $ total $ metrics_flag)

(* --- chaos -------------------------------------------------------------- *)

let chaos_cmd =
  let stacks =
    Arg.(value & opt_all stack_conv [ `Ds; `Tcp ] & info [ "stack" ]
           ~docv:"STACK"
           ~doc:"Stack(s) to sweep (repeatable): tcp | tcp-tuned | ds | \
                 ds-base | dg. Default: ds and tcp.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
           ~doc:"Fault-engine seed; same seed, same fault sequence.")
  in
  let total =
    Arg.(value & opt int (4 * 1024 * 1024) & info [ "total" ] ~docv:"BYTES"
           ~doc:"Bytes streamed per run.")
  in
  let msg =
    Arg.(value & opt int 16_384 & info [ "msg" ] ~docv:"BYTES"
           ~doc:"Bytes per write.")
  in
  let rates =
    Arg.(value & opt (list float) Uls_bench.Chaos.default_rates
         & info [ "loss" ] ~docv:"P,P,..."
             ~doc:"Frame-loss probabilities to sweep (fractions, not %).")
  in
  let chaos_kind = function
    | `Emp ->
      prerr_endline "ulsbench chaos: raw EMP has no sockets stream; use ds/dg";
      exit 124
    | `Tcp -> Uls_bench.Chaos.Tcp Uls_tcp.Config.default
    | `Tcp_tuned ->
      Uls_bench.Chaos.Tcp Uls_tcp.Config.(with_buffers default 262_144)
    | `Ds -> Uls_bench.Chaos.Sub Uls_substrate.Options.data_streaming_enhanced
    | `Ds_base -> Uls_bench.Chaos.Sub Uls_substrate.Options.data_streaming
    | `Dg -> Uls_bench.Chaos.Sub Uls_substrate.Options.datagram
  in
  let run stacks seed total msg rates =
    let failures = ref 0 in
    List.iter
      (fun stack ->
        let kind = chaos_kind stack in
        let rows = Uls_bench.Chaos.sweep ~seed ~rates ~total ~msg ~kind () in
        Uls_bench.Chaos.print_table Format.std_formatter ~kind rows;
        List.iter
          (fun r ->
            if not (r.Uls_bench.Chaos.completed && r.Uls_bench.Chaos.intact)
            then incr failures)
          rows)
      stacks;
    if !failures > 0 then begin
      Printf.eprintf "ulsbench chaos: %d run(s) hung or corrupted data\n"
        !failures;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Stream a checksummed payload under seeded frame loss and print \
          goodput/retransmission tables per loss rate; exits non-zero if \
          any run hangs or delivers corrupt bytes")
    Term.(const run $ stacks $ seed $ total $ msg $ rates)

(* --- serve -------------------------------------------------------------- *)

let serve_cmd =
  let open Uls_bench in
  let stack =
    Arg.(value & opt stack_conv `Ds & info [ "stack" ] ~docv:"STACK"
           ~doc:"tcp | tcp-tuned | ds | ds-base | dg. For serving, ds maps \
                 to the substrate's server preset (small per-connection \
                 buffers, piggy-backed acks).")
  in
  let serve_kind = function
    | `Emp ->
      prerr_endline "ulsbench serve: raw EMP has no sockets stream; use ds/dg";
      exit 124
    | `Tcp -> Chaos.Tcp Uls_tcp.Config.default
    | `Tcp_tuned -> Chaos.Tcp Uls_tcp.Config.(with_buffers default 262_144)
    | `Ds -> Chaos.Sub Uls_substrate.Options.server
    | `Ds_base -> Chaos.Sub Uls_substrate.Options.data_streaming
    | `Dg -> Chaos.Sub Uls_substrate.Options.datagram
  in
  let workload_conv =
    let parse = function
      | "echo" -> Ok Load.Echo
      | "http" -> Ok Load.Http
      | s -> Error (`Msg (Printf.sprintf "unknown workload %S" s))
    in
    let print fmt w =
      Format.pp_print_string fmt
        (match w with Load.Echo -> "echo" | Load.Http -> "http")
    in
    Arg.conv (parse, print)
  in
  let conns =
    Arg.(value & opt int 64 & info [ "conns" ] ~docv:"N"
           ~doc:"Concurrent client connections.")
  in
  let requests =
    Arg.(value & opt int 8 & info [ "requests" ] ~docv:"N"
           ~doc:"Requests per connection.")
  in
  let size =
    Arg.(value & opt int 512 & info [ "size" ] ~docv:"BYTES"
           ~doc:"Echo payload / HTTP response-body size.")
  in
  let workload =
    Arg.(value & opt workload_conv Load.Echo & info [ "workload" ]
           ~docv:"W" ~doc:"echo | http")
  in
  let open_loop =
    Arg.(value & opt (some float) None & info [ "rate" ] ~docv:"REQ/S"
           ~doc:"Open-loop arrival rate (requests/s, fleet-wide). \
                 Without it the fleet runs closed-loop.")
  in
  let think =
    Arg.(value & opt float 0. & info [ "think" ] ~docv:"US"
           ~doc:"Mean think time between requests (us, closed loop).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
                    ~doc:"Rng seed; same seed, same run.") in
  let loss =
    Arg.(value & opt float 0. & info [ "loss" ] ~docv:"P"
           ~doc:"Uniform frame-loss probability (fault engine).")
  in
  let clients =
    Arg.(value & opt int 0 & info [ "clients" ] ~docv:"N"
           ~doc:"Client nodes the fleet spreads over (0 = auto).")
  in
  let backlog =
    Arg.(value & opt int 0 & info [ "backlog" ] ~docv:"N"
           ~doc:"Server listen backlog (0 = auto).")
  in
  let workers =
    Arg.(value & opt int 4 & info [ "workers" ] ~docv:"N"
           ~doc:"Scheduler worker fibers.")
  in
  let max_inflight =
    Arg.(value & opt int 0 & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Admission limit; accepts beyond it are shed with an \
                 explicit reject (0 = unlimited).")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"CI mode: pinned-seed runs over ds and tcp, echo and http, \
                 plus a determinism double-run; non-zero exit on any hang, \
                 lost request, mismatch or divergence.")
  in
  let build_config stack workload open_loop ~conns ~requests ~size ~think
      ~seed ~loss ~clients ~backlog ~workers ~max_inflight ~match_engine
      ~event_sched =
    let kind = serve_kind stack in
    let client_nodes =
      if clients > 0 then clients else max 2 (min 8 ((conns + 511) / 512))
    in
    let backlog = if backlog > 0 then backlog else max 64 (min conns 1024) in
    let sched =
      if workers = Uls_server.Sched.default_config.workers && max_inflight = 0
      then None
      else
        Some
          {
            Uls_server.Sched.default_config with
            workers;
            max_inflight = (if max_inflight = 0 then max_int else max_inflight);
            reject =
              (match workload with
              | Load.Http -> Some Uls_server.Server.http_reject
              | Load.Echo -> None);
          }
    in
    {
      Load.kind;
      workload;
      loop = (match open_loop with None -> Load.Closed | Some r -> Load.Open r);
      conns;
      requests_per_conn = requests;
      size;
      think = think *. 1e3;
      seed;
      loss;
      client_nodes;
      backlog;
      sched;
      match_engine;
      event_sched;
    }
  in
  let run_one ?on_metrics cfg =
    let r = Load.run ?on_metrics cfg in
    Load.print_report Format.std_formatter cfg r;
    r
  in
  let serve_json cfg (r : Load.report) =
    emit_json ~file:"BENCH_serve.json"
      [
        ("bench", json_str "serve");
        ("stack", json_str (Chaos.kind_name cfg.Load.kind));
        ("workload",
         json_str
           (match cfg.Load.workload with Load.Echo -> "echo" | Load.Http -> "http"));
        ("loop",
         json_str
           (match cfg.Load.loop with
           | Load.Closed -> "closed"
           | Load.Open r -> Printf.sprintf "open@%.0f" r));
        ("match",
         json_str
           (match cfg.Load.kind with
           | Chaos.Tcp _ -> "n/a" (* kernel path: no NIC tag matching *)
           | Chaos.Sub _ ->
             Uls_nic.Match_list.engine_name cfg.Load.match_engine));
        ("sched", json_str (sched_name cfg.Load.event_sched));
        ("conns", json_int cfg.Load.conns);
        ("requests_per_conn", json_int cfg.Load.requests_per_conn);
        ("size", json_int cfg.Load.size);
        ("seed", json_int cfg.Load.seed);
        ("loss", json_float cfg.Load.loss);
        ("sent", json_int r.Load.sent);
        ("completed", json_int r.Load.completed);
        ("shed", json_int r.Load.shed);
        ("refused", json_int r.Load.refused);
        ("errors", json_int r.Load.errors);
        ("mismatches", json_int r.Load.mismatches);
        ("peak_open", json_int r.Load.peak_open);
        ("elapsed_ms", json_float r.Load.elapsed_ms);
        ("rps", json_float r.Load.rps);
        ("mean_us", json_float r.Load.mean_us);
        ("p50_us", json_float r.Load.p50_us);
        ("p95_us", json_float r.Load.p95_us);
        ("p99_us", json_float r.Load.p99_us);
        ("p999_us", json_float r.Load.p999_us);
        ("intact", json_bool r.Load.intact);
        ("completed_run", json_bool r.Load.completed_run);
      ]
  in
  let run stack conns requests size workload open_loop think seed loss clients
      backlog workers max_inflight match_engine event_sched smoke metrics json =
    let on_metrics = if metrics then Some dump_metrics else None in
    if smoke then begin
      (* Pinned-seed CI matrix; flags other than --metrics and --sched
         are ignored. *)
      let failures = ref 0 in
      let smoke_config ?(match_engine = Uls_nic.Match_list.Hashed) stack
          workload =
        build_config stack workload None ~conns:128 ~requests:4 ~size:256
          ~think:0. ~seed:42 ~loss:0. ~clients:2 ~backlog:0 ~workers:4
          ~max_inflight:0 ~match_engine ~event_sched
      in
      let check r =
        if
          not
            (r.Load.completed_run && r.Load.intact && r.Load.errors = 0
           && r.Load.shed = 0 && r.Load.refused = 0 && r.Load.mismatches = 0
           && r.Load.completed = r.Load.sent)
        then incr failures
      in
      List.iter
        (fun (st, w) -> check (run_one ?on_metrics (smoke_config st w)))
        [ (`Ds, Load.Echo); (`Ds, Load.Http); (`Tcp, Load.Echo);
          (`Tcp, Load.Http) ];
      (* Determinism: same seed, byte-identical report. *)
      let cfg = smoke_config `Ds Load.Echo in
      let a = Load.run cfg and b = Load.run cfg in
      check a;
      if a <> b then begin
        prerr_endline "ulsbench serve --smoke: seeded runs diverged";
        incr failures
      end;
      (* Match-engine ablation at the 512-conn row (where the linear
         walk's O(posted descriptors) cost begins to bite): hashed must
         be at least as fast as linear on both stacks, and the hashed
         row must be schedule-deterministic. *)
      let scale_config stack engine =
        build_config stack Load.Echo None ~conns:512 ~requests:2 ~size:256
          ~think:0. ~seed:42 ~loss:0. ~clients:4 ~backlog:0 ~workers:4
          ~max_inflight:0 ~match_engine:engine ~event_sched
      in
      (* Match-engine ablation only on the substrate stack: TCP takes the
         kernel receive path and never touches the NIC tag matcher, so a
         linear-vs-hashed pair there is the same run counted twice. *)
      let lin = run_one ?on_metrics (scale_config `Ds Uls_nic.Match_list.Linear) in
      let hsh = run_one ?on_metrics (scale_config `Ds Uls_nic.Match_list.Hashed) in
      check lin;
      check hsh;
      if hsh.Load.rps < lin.Load.rps *. 0.999 then begin
        Printf.eprintf
          "ulsbench serve --smoke: hashed slower than linear at 512 \
           conns (%.0f vs %.0f req/s)\n"
          hsh.Load.rps lin.Load.rps;
        incr failures
      end;
      (* TCP at the same 512-conn point, once. *)
      check (run_one ?on_metrics (scale_config `Tcp Uls_nic.Match_list.Hashed));
      let cfg = scale_config `Ds Uls_nic.Match_list.Hashed in
      let a = Load.run cfg and b = Load.run cfg in
      check a;
      if a <> b then begin
        prerr_endline
          "ulsbench serve --smoke: hashed 512-conn seeded runs diverged";
        incr failures
      end;
      if !failures > 0 then begin
        Printf.eprintf "ulsbench serve --smoke: %d failure(s)\n" !failures;
        exit 1
      end;
      print_endline "serve smoke: ok"
    end
    else begin
      let cfg =
        build_config stack workload open_loop ~conns ~requests ~size ~think
          ~seed ~loss ~clients ~backlog ~workers ~max_inflight ~match_engine
          ~event_sched
      in
      let r = run_one ?on_metrics cfg in
      if json then serve_json cfg r;
      if not (r.Load.completed_run && r.Load.intact) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Event-driven server under a client fleet: echo or keep-alive \
          HTTP over the readiness engine + connection scheduler, driven \
          open- or closed-loop; prints throughput and latency percentiles")
    Term.(const run $ stack $ conns $ requests $ size $ workload $ open_loop
          $ think $ seed $ loss $ clients $ backlog $ workers $ max_inflight
          $ match_engine_flag $ sched_flag `Wheel $ smoke $ metrics_flag
          $ Arg.(value & flag & info [ "json" ]
                   ~doc:"Append a JSON record to BENCH_serve.json."))

(* --- fabric ------------------------------------------------------------- *)

let fabric_cmd =
  let open Uls_bench in
  let stack =
    Arg.(value & opt stack_conv `Ds & info [ "stack" ] ~docv:"STACK"
           ~doc:"tcp | tcp-tuned | ds | ds-base | dg.")
  in
  let fabric_kind = function
    | `Emp ->
      prerr_endline "ulsbench fabric: raw EMP has no sockets stream; use ds/dg";
      exit 124
    | `Tcp -> Chaos.Tcp Uls_tcp.Config.default
    | `Tcp_tuned -> Chaos.Tcp Uls_tcp.Config.(with_buffers default 262_144)
    | `Ds -> Chaos.Sub Uls_substrate.Options.server
    | `Ds_base -> Chaos.Sub Uls_substrate.Options.data_streaming
    | `Dg -> Chaos.Sub Uls_substrate.Options.datagram
  in
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
    Arg.(value & opt int 4 & info [ "cells" ] ~docv:"K"
           ~doc:"Server cells behind the balancer.")
  in
  let shards =
    Arg.(value & opt int 4 & info [ "shards" ] ~docv:"N"
           ~doc:"SO_REUSEPORT listener shards (schedulers) per cell.")
  in
  let conns =
    Arg.(value & opt int 2048 & info [ "conns" ] ~docv:"N"
           ~doc:"Total connection arrivals over the run.")
  in
  let requests =
    Arg.(value & opt int 2 & info [ "requests" ] ~docv:"N"
           ~doc:"Requests per connection.")
  in
  let size =
    Arg.(value & opt int 256 & info [ "size" ] ~docv:"BYTES"
           ~doc:"Echo payload size.")
  in
  let rate =
    Arg.(value & opt float 4_000. & info [ "rate" ] ~docv:"CONN/S"
           ~doc:"Open-loop connection arrival rate, fleet-wide.")
  in
  let think =
    Arg.(value & opt float 0. & info [ "think" ] ~docv:"US"
           ~doc:"Mean think time between a connection's requests (us); \
                 raises concurrency (rate x lifetime).")
  in
  let clients =
    Arg.(value & opt int 0 & info [ "clients" ] ~docv:"N"
           ~doc:"Client nodes (0 = auto: enough to keep per-node NIC \
                 match walks short).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED"
                    ~doc:"Rng seed; same seed, same run.") in
  let loss =
    Arg.(value & opt float 0. & info [ "loss" ] ~docv:"P"
           ~doc:"Uniform frame-loss probability.")
  in
  let max_inflight =
    Arg.(value & opt int 0 & info [ "max-inflight" ] ~docv:"N"
           ~doc:"Per-shard admission limit (0 = unlimited).")
  in
  let backlog =
    Arg.(value & opt int 128 & info [ "backlog" ] ~docv:"N"
           ~doc:"Per-cell listen backlog. Every posted backlog \
                 descriptor is walked by the cell NIC on each RX \
                 frame; keep it modest.")
  in
  let vnodes =
    Arg.(value & opt int 128 & info [ "vnodes" ] ~docv:"N"
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
  let smoke =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"CI mode: pinned-seed cell x stack matrix plus a \
                 kill-failover run and a determinism double-run whose first \
                 run also checks that closed server-side streams are \
                 collectable; non-zero exit on any hang, mismatch, \
                 divergence or retained stream.")
  in
  let auto_clients cells conns = max 4 (min 64 (max cells ((conns + 2047) / 2048) * 4)) in
  let build ~stack ~cells ~shards ~conns ~requests ~size ~rate ~think ~clients
      ~seed ~loss ~max_inflight ~backlog ~vnodes ~kill ~drain ~match_engine
      ~event_sched =
    {
      Fleet.default with
      kind = fabric_kind stack;
      match_engine;
      event_sched;
      cells;
      shards;
      conns;
      requests_per_conn = requests;
      size;
      rate;
      think = think *. 1e3;
      client_nodes = (if clients > 0 then clients else auto_clients cells conns);
      seed;
      loss;
      max_inflight;
      backlog;
      vnodes;
      kill = Option.map (fun (c, ms) -> (c, Uls_engine.Time.ms ms)) kill;
      drain = Option.map (fun (c, ms) -> (c, Uls_engine.Time.ms ms)) drain;
    }
  in
  let fabric_json (cfg : Fleet.config) (r : Fleet.report) =
    emit_json ~file:"BENCH_fabric.json"
      ([
         ("bench", json_str "fabric");
         ("stack", json_str (Chaos.kind_name cfg.Fleet.kind));
         ("cells", json_int cfg.Fleet.cells);
         ("shards", json_int cfg.Fleet.shards);
         ("match",
          json_str
            (match cfg.Fleet.kind with
            | Chaos.Tcp _ -> "n/a" (* kernel path: no NIC tag matching *)
            | Chaos.Sub _ ->
              Uls_nic.Match_list.engine_name cfg.Fleet.match_engine));
         ("sched", json_str (sched_name cfg.Fleet.event_sched));
         ("conns", json_int cfg.Fleet.conns);
         ("requests_per_conn", json_int cfg.Fleet.requests_per_conn);
         ("size", json_int cfg.Fleet.size);
         ("rate", json_float cfg.Fleet.rate);
         ("seed", json_int cfg.Fleet.seed);
         ("loss", json_float cfg.Fleet.loss);
         ("kill", json_bool (cfg.Fleet.kill <> None));
         ("drain", json_bool (cfg.Fleet.drain <> None));
         ("established", json_int r.Fleet.established);
         ("completed", json_int r.Fleet.completed);
         ("shed", json_int r.Fleet.shed);
         ("refused", json_int r.Fleet.refused);
         ("resets", json_int r.Fleet.resets);
         ("errors", json_int r.Fleet.errors);
         ("mismatches", json_int r.Fleet.mismatches);
         ("remapped", json_int r.Fleet.remapped);
         ("peak_open", json_int r.Fleet.peak_open);
         ("peak_cell_open", json_int r.Fleet.peak_cell_open);
         ("healed_at_ms", json_float r.Fleet.healed_at_ms);
         ("drained_at_ms", json_float r.Fleet.drained_at_ms);
         ("elapsed_ms", json_float r.Fleet.elapsed_ms);
         ("rps", json_float r.Fleet.rps);
         ("mean_us", json_float r.Fleet.mean_us);
         ("p50_us", json_float r.Fleet.p50_us);
         ("p95_us", json_float r.Fleet.p95_us);
         ("p99_us", json_float r.Fleet.p99_us);
         ("p999_us", json_float r.Fleet.p999_us);
         ("intact", json_bool r.Fleet.intact);
         ("completed_run", json_bool r.Fleet.completed_run);
       ])
  in
  let run stack cells shards conns requests size rate think clients seed loss
      max_inflight backlog vnodes kill drain match_engine event_sched smoke
      metrics json =
    let on_metrics = if metrics then Some dump_metrics else None in
    if smoke then begin
      (* Pinned-seed CI matrix: cells x stacks, plus one kill-failover
         run; flags other than --metrics and --sched are ignored. *)
      let failures = ref 0 in
      let base stack cells =
        build ~stack ~cells ~shards:2 ~conns:256 ~requests:2 ~size:128
          ~rate:8_000. ~think:0. ~clients:4 ~seed:42 ~loss:0. ~max_inflight:0
          ~backlog:128 ~vnodes:64 ~kill:None ~drain:None
          ~match_engine:Uls_nic.Match_list.Hashed ~event_sched
      in
      let check name ?(allow_failures = false) (r : Fleet.report) =
        let ok =
          r.Fleet.completed_run && r.Fleet.intact
          && (allow_failures
             || r.Fleet.refused = 0 && r.Fleet.resets = 0
                && r.Fleet.errors = 0)
        in
        if not ok then begin
          Printf.eprintf "ulsbench fabric --smoke: %s failed\n" name;
          incr failures
        end
      in
      List.iter
        (fun (st, cells) ->
          let cfg = base st cells in
          Format.printf "--- fabric smoke: %s cells=%d@."
            (Chaos.kind_name cfg.Fleet.kind) cells;
          let r = Fleet.run ?on_metrics cfg in
          Fleet.print_report Format.std_formatter cfg r;
          check (Printf.sprintf "%s/%d-cell"
                   (Chaos.kind_name cfg.Fleet.kind) cells) r)
        [ (`Ds, 1); (`Ds, 4); (`Tcp, 1); (`Tcp, 4) ];
      (* Kill a cell mid-load on both stacks: the ring must heal and the
         run must complete with failures confined to the killed cell. *)
      List.iter
        (fun st ->
          let cfg =
            { (base st 4) with Fleet.kill = Some (1, Uls_engine.Time.ms 8) }
          in
          Format.printf "--- fabric smoke: %s kill-failover@."
            (Chaos.kind_name cfg.Fleet.kind);
          let r = Fleet.run ?on_metrics cfg in
          Fleet.print_report Format.std_formatter cfg r;
          check
            (Printf.sprintf "%s/kill" (Chaos.kind_name cfg.Fleet.kind))
            ~allow_failures:true r;
          if r.Fleet.healed_at_ms < 0. then begin
            prerr_endline "ulsbench fabric --smoke: ring never healed";
            incr failures
          end)
        [ `Ds; `Tcp ];
      (* Determinism: same seed, byte-identical report. The first run
         also checks that closed connections leave nothing behind: every
         64th closed server-side stream is held weakly, and none may
         survive a full major GC while the cluster is still alive. *)
      let cfg = base `Ds 4 in
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
      let a = Fleet.run ~on_server_close:sample ~on_metrics:count_survivors cfg in
      let b = Fleet.run cfg in
      check "determinism" a;
      if a <> b then begin
        prerr_endline "ulsbench fabric --smoke: seeded runs diverged";
        incr failures
      end;
      if !sampled = [] || !survivors > 0 then begin
        Printf.eprintf
          "ulsbench fabric --smoke: %d of %d sampled closed server streams \
           still reachable\n"
          !survivors (List.length !sampled);
        incr failures
      end;
      if !failures > 0 then begin
        Printf.eprintf "ulsbench fabric --smoke: %d failure(s)\n" !failures;
        exit 1
      end;
      print_endline "fabric smoke: ok"
    end
    else begin
      let cfg =
        build ~stack ~cells ~shards ~conns ~requests ~size ~rate ~think
          ~clients ~seed ~loss ~max_inflight ~backlog ~vnodes ~kill ~drain
          ~match_engine ~event_sched
      in
      let r = Fleet.run ?on_metrics cfg in
      Fleet.print_report Format.std_formatter cfg r;
      if json then fabric_json cfg r;
      if not (r.Fleet.completed_run && r.Fleet.intact) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "fabric"
       ~doc:
         "Sharded serving fabric: L4-balanced server cells (consistent \
          hashing, SO_REUSEPORT shards) under an open-loop connection \
          fleet, with optional mid-load cell kill or drain")
    Term.(const run $ stack $ cells $ shards $ conns $ requests $ size $ rate
          $ think $ clients $ seed $ loss $ max_inflight $ backlog $ vnodes
          $ kill $ drain $ match_engine_flag $ sched_flag `Wheel $ smoke
          $ metrics_flag
          $ Arg.(value & flag & info [ "json" ]
                   ~doc:"Append a JSON record to BENCH_fabric.json."))

(* --- trace -------------------------------------------------------------- *)

let trace_cmd =
  let experiment =
    Arg.(value & pos 0 string "pingpong" & info [] ~docv:"EXPERIMENT"
           ~doc:"pingpong | bandwidth | barrier")
  in
  let stack =
    Arg.(value & opt stack_conv `Ds & info [ "stack" ] ~docv:"STACK"
           ~doc:"emp | tcp | tcp-tuned | ds | ds-base | dg")
  in
  let size =
    Arg.(value & opt int 4 & info [ "size" ] ~docv:"BYTES"
           ~doc:"Message size (pingpong).")
  in
  let msg =
    Arg.(value & opt int 65_536 & info [ "msg" ] ~docv:"BYTES"
           ~doc:"Message size (bandwidth).")
  in
  let nodes =
    Arg.(value & opt int 8 & info [ "nodes" ] ~docv:"N"
           ~doc:"Group size (barrier).")
  in
  let iters = Arg.(value & opt int 10 & info [ "iters" ] ~doc:"Iterations.") in
  let out =
    Arg.(value & opt (some string) None & info [ "out"; "o" ] ~docv:"FILE"
           ~doc:"Write the Chrome-trace JSON here instead of stdout.")
  in
  let run experiment stack size msg nodes iters out metrics =
    let kind = kind_of_stack stack in
    let summary, tr, m =
      match experiment with
      | "pingpong" ->
        let us, tr, m =
          Uls_bench.Microbench.ping_pong_observed ~iters ~kind ~size ()
        in
        (Printf.sprintf "%d-byte one-way latency: %.2f us" size us, tr, m)
      | "bandwidth" ->
        let mbps, tr, m =
          Uls_bench.Microbench.bandwidth_observed ~total:(4 * 1024 * 1024)
            ~kind ~msg ()
        in
        (Printf.sprintf "stream bandwidth: %.1f Mb/s" mbps, tr, m)
      | "barrier" ->
        let us, tr, m =
          Uls_bench.Microbench.barrier_latency_observed ~iters
            ~alg:Uls_collective.Group.Binomial_tree ~nodes ()
        in
        (Printf.sprintf "%d-node barrier: %.2f us" nodes us, tr, m)
      | other ->
        Printf.eprintf "ulsbench trace: unknown experiment %S\n" other;
        exit 124
    in
    let json = Uls_engine.Trace.to_chrome_json tr in
    (* Keep stdout pure JSON when no --out was given, so the output can
       be piped straight into a validator or chrome://tracing. *)
    (match out with
    | None ->
      print_string json;
      Printf.eprintf "%s (%d trace events)\n" summary
        (List.length (Uls_engine.Trace.events tr))
    | Some file ->
      let oc = open_out file in
      output_string oc json;
      close_out oc;
      Printf.printf "%s (%d trace events -> %s)\n" summary
        (List.length (Uls_engine.Trace.events tr))
        file);
    if metrics then dump_metrics m
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run a benchmark with structured tracing enabled and emit \
          Chrome-trace JSON (load in chrome://tracing or Perfetto)")
    Term.(const run $ experiment $ stack $ size $ msg $ nodes $ iters $ out
          $ metrics_flag)

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
    Arg.(value & opt int 8 & info [ "nodes" ] ~docv:"N" ~doc:"Group size.")
  in
  let size =
    Arg.(value & opt int 65_536 & info [ "size" ] ~docv:"BYTES"
           ~doc:"Payload size (bcast/allreduce only).")
  in
  let iters = Arg.(value & opt int 10 & info [ "iters" ] ~doc:"Iterations.") in
  let run op alg nodes size iters metrics =
    if nodes < 1 then begin
      prerr_endline "ulsbench: --nodes must be at least 1";
      exit 124
    end;
    let alg_name = Uls_collective.Group.algorithm_name alg in
    match op with
    | `Barrier ->
      if metrics then begin
        let us, _, m =
          Uls_bench.Microbench.barrier_latency_observed ~iters ~alg ~nodes ()
        in
        Printf.printf "%d-node %s barrier: %.2f us\n" nodes alg_name us;
        dump_metrics m
      end
      else
        let us = Uls_bench.Microbench.barrier_latency ~iters ~alg ~nodes () in
        Printf.printf "%d-node %s barrier: %.2f us\n" nodes alg_name us
    | (`Bcast | `Allreduce) as op ->
      let op_name =
        match op with `Bcast -> "bcast" | `Allreduce -> "allreduce"
      in
      if metrics then begin
        let mbps, _, m =
          Uls_bench.Microbench.coll_bandwidth_observed ~iters ~op ~alg ~nodes
            ~size ()
        in
        Printf.printf "%d-node %s %s (%d B): %.1f Mb/s\n" nodes alg_name
          op_name size mbps;
        dump_metrics m
      end
      else
        let mbps =
          Uls_bench.Microbench.coll_bandwidth ~iters ~op ~alg ~nodes ~size ()
        in
        Printf.printf "%d-node %s %s (%d B): %.1f Mb/s\n" nodes alg_name
          op_name size mbps
  in
  Cmd.v
    (Cmd.info "collective"
       ~doc:"Collective latency/bandwidth over an EMP group")
    Term.(const run $ op $ alg $ nodes $ size $ iters $ metrics_flag)

(* --- engine ------------------------------------------------------------ *)

let engine_cmd =
  let open Uls_bench in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Append one JSON record per (scenario, scheduler) run to \
                 BENCH_engine.json.")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"CI gate: heap and wheel must dispatch identical event \
                 counts per scenario, the wheel must beat the heap by at \
                 least 2x events/sec on the 65536-conn fabric shape, no \
                 run may allocate more than 14 minor words per dispatched \
                 event (allocation sanitizer), and against the committed \
                 baseline every event count must match exactly and no \
                 per-scenario wheel-vs-heap speedup may regress by more \
                 than 20%.")
  in
  let baseline =
    Arg.(value & opt string "BENCH_engine.json"
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Committed pinned-seed baseline the --check gate reads.")
  in
  let engine_json (r : Engine_bench.row) =
    emit_json ~file:"BENCH_engine.json"
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
  let run json check baseline_file =
    let rows = Engine_bench.run_all () in
    let find sched name =
      List.find
        (fun r ->
          r.Engine_bench.scenario = name && r.Engine_bench.sched = sched)
        rows
    in
    Format.printf "%-14s %8s %10s %10s %14s %9s %8s@." "scenario" "conns"
      "sched" "events" "events/sec" "speedup" "mw/ev";
    List.iter
      (fun sh ->
        let name = sh.Engine_bench.sh_name in
        let h = find `Heap name and w = find `Wheel name in
        List.iter
          (fun (r : Engine_bench.row) ->
            Format.printf "%-14s %8d %10s %10d %14.0f %9s %8.2f@."
              r.Engine_bench.scenario r.Engine_bench.conns
              (sched_name r.Engine_bench.sched)
              r.Engine_bench.events r.Engine_bench.events_per_sec
              (if r.Engine_bench.sched = `Wheel then
                 Printf.sprintf "%.2fx"
                   (r.Engine_bench.events_per_sec
                   /. h.Engine_bench.events_per_sec)
               else "")
              r.Engine_bench.minor_words_per_event)
          [ h; w ])
      Engine_bench.shapes;
    if json then List.iter engine_json rows;
    if check then begin
      let failures = ref 0 in
      let fail fmt =
        Printf.ksprintf
          (fun msg ->
            Printf.eprintf "ulsbench engine --check: %s\n" msg;
            incr failures)
          fmt
      in
      (* Dispatch parity: the wheel is a drop-in replacement, so both
         schedulers must execute exactly the same events. *)
      List.iter
        (fun sh ->
          let name = sh.Engine_bench.sh_name in
          let h = find `Heap name and w = find `Wheel name in
          if h.Engine_bench.events <> w.Engine_bench.events then
            fail "%s: heap dispatched %d events, wheel %d" name
              h.Engine_bench.events w.Engine_bench.events)
        Engine_bench.shapes;
      (* Allocation sanitizer: the steady-state cost is the workload's
         own per-cycle closures (measured 9-12.2 minor words/event
         across shapes); the dispatch loop — including the analysis
         instrumentation hooks when no tracker is attached — must add
         nothing. 14.0 leaves noise headroom yet trips on a single
         boxed allocation per event on the heavier shapes. *)
      let alloc_ceiling = 14.0 in
      List.iter
        (fun (r : Engine_bench.row) ->
          if r.Engine_bench.minor_words_per_event > alloc_ceiling then
            fail
              "%s/%s: %.2f minor words/event exceeds the %.1f allocation \
               ceiling (engine hot path started allocating)"
              r.Engine_bench.scenario
              (sched_name r.Engine_bench.sched)
              r.Engine_bench.minor_words_per_event alloc_ceiling)
        rows;
      (* The tentpole claim: O(1) queue ops must show at fleet scale. *)
      let h = find `Heap "fabric-65536" and w = find `Wheel "fabric-65536" in
      if
        w.Engine_bench.events_per_sec
        < 2.0 *. h.Engine_bench.events_per_sec
      then
        fail "fabric-65536: wheel %.0f ev/s < 2x heap %.0f ev/s"
          w.Engine_bench.events_per_sec h.Engine_bench.events_per_sec;
      (* Baseline gates. Event counts are deterministic, so they must
         match the committed records exactly; raw events/sec is machine-
         dependent, so the regression gate runs on the wheel-vs-heap
         speedup ratio (machine-independent to first order): each
         scenario's measured ratio must reach 80% of the baseline's. *)
      let base = read_records baseline_file in
      let base_field recs key =
        List.filter_map
          (fun r ->
            match
              ( List.assoc_opt "bench" r,
                List.assoc_opt "scenario" r,
                List.assoc_opt "sched" r,
                List.assoc_opt key r )
            with
            | Some "engine", Some sc, Some sd, Some v -> Some ((sc, sd), v)
            | _ -> None)
          recs
      in
      let last_of assoc k =
        List.fold_left
          (fun acc (k', v) -> if k' = k then Some v else acc)
          None assoc
      in
      let base_events = base_field base "events" in
      let base_eps = base_field base "events_per_sec" in
      if base_events = [] then
        Printf.printf
          "engine --check: no baseline records in %s; skipping baseline \
           gates\n"
          baseline_file
      else
        List.iter
          (fun sh ->
            let name = sh.Engine_bench.sh_name in
            let h = find `Heap name and w = find `Wheel name in
            List.iter
              (fun (r : Engine_bench.row) ->
                match
                  last_of base_events (name, sched_name r.Engine_bench.sched)
                with
                | Some v when int_of_string v <> r.Engine_bench.events ->
                  fail "%s/%s: %d events, baseline %s (event structure \
                        changed — recapture the baseline deliberately)"
                    name
                    (sched_name r.Engine_bench.sched)
                    r.Engine_bench.events v
                | _ -> ())
              [ h; w ];
            match
              ( last_of base_eps (name, "heap"),
                last_of base_eps (name, "wheel") )
            with
            | Some bh, Some bw ->
              let bh = float_of_string bh and bw = float_of_string bw in
              if bh > 0. && h.Engine_bench.events_per_sec > 0. then begin
                let base_ratio = bw /. bh in
                let ratio =
                  w.Engine_bench.events_per_sec
                  /. h.Engine_bench.events_per_sec
                in
                if ratio < 0.8 *. base_ratio then
                  fail
                    "%s: wheel/heap speedup %.2fx regressed more than 20%% \
                     from baseline %.2fx"
                    name ratio base_ratio
              end
            | _ -> ())
          Engine_bench.shapes;
      if !failures > 0 then begin
        Printf.eprintf "ulsbench engine --check: %d failure(s)\n" !failures;
        exit 1
      end;
      print_endline "engine check: ok"
    end
  in
  Cmd.v
    (Cmd.info "engine"
       ~doc:
         "Event-core throughput: events/sec through the simulator on \
          synthetic timer workloads (pingpong, serve-512, fabric-4096, \
          fabric-65536), binary heap vs hierarchical timing wheel")
    Term.(const run $ json $ check $ baseline)

(* --- rings: firehose + storm ------------------------------------------- *)

let busy_poll_flag =
  Arg.(value & flag & info [ "busy-poll" ]
         ~doc:"Endpoint tx ring in busy-poll mode: the NIC-side fetch \
               loop spins instead of sleeping between doorbells.")

let batch_flag default =
  Arg.(value & opt int default
       & info [ "batch" ] ~docv:"N"
           ~doc:"Submission batch depth: descriptors per doorbell. \
                 $(b,1) is the per-call ablation (byte-identical to the \
                 pre-ring path).")

let firehose_cmd =
  let open Uls_bench in
  let d = Firehose.default in
  let sinks =
    Arg.(value & opt int d.Firehose.sinks
         & info [ "sinks" ] ~docv:"N" ~doc:"Sink nodes (source is node 0).")
  in
  let count =
    Arg.(value & opt int d.Firehose.count
         & info [ "count" ] ~docv:"N" ~doc:"Messages per sink.")
  in
  let size =
    Arg.(value & opt int d.Firehose.size
         & info [ "size" ] ~docv:"BYTES" ~doc:"Payload bytes per message.")
  in
  let seed =
    Arg.(value & opt int d.Firehose.seed & info [ "seed" ] ~doc:"RNG seed.")
  in
  let loss =
    Arg.(value & opt float 0.
         & info [ "loss" ] ~docv:"P"
             ~doc:"Uniform frame-loss probability (the rings chaos leg).")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Append a JSON record to BENCH_rings.json.")
  in
  let check =
    Arg.(value & flag & info [ "check" ]
           ~doc:"CI gate: pinned-seed runs must be intact and \
                 deterministic, batch=32 must reach at least 2x the \
                 batch=1 pps on the small-message shape, the NIC \
                 doorbell/mailbox-fetch audit pair must agree, the 2% \
                 loss chaos leg must stay byte-exact, and pps must not \
                 regress below 80% of the committed baseline.")
  in
  let baseline =
    Arg.(value & opt string "BENCH_rings.json"
         & info [ "baseline" ] ~docv:"FILE"
             ~doc:"Committed pinned-seed baseline the --check gate reads.")
  in
  let firehose_json (cfg : Firehose.config) (r : Firehose.report) =
    emit_json ~file:"BENCH_rings.json"
      [
        ("bench", json_str "firehose");
        ("match",
         json_str (Uls_nic.Match_list.engine_name cfg.Firehose.match_engine));
        ("sched", json_str (sched_name cfg.Firehose.event_sched));
        ("sinks", json_int cfg.Firehose.sinks);
        ("count", json_int cfg.Firehose.count);
        ("size", json_int cfg.Firehose.size);
        ("batch", json_int cfg.Firehose.batch);
        ("busy_poll", json_bool cfg.Firehose.busy_poll);
        ("seed", json_int cfg.Firehose.seed);
        ("loss", json_float cfg.Firehose.loss);
        ("messages", json_int r.Firehose.messages);
        ("delivered", json_int r.Firehose.delivered);
        ("mismatches", json_int r.Firehose.mismatches);
        ("elapsed_ms", json_float r.Firehose.elapsed_ms);
        ("pps", json_float r.Firehose.pps);
        ("mbps", json_float r.Firehose.mbps);
        ("doorbells", json_int r.Firehose.doorbells);
        ("mailbox_fetches", json_int r.Firehose.mailbox_fetches);
        ("ring_submitted", json_int r.Firehose.ring_submitted);
        ("ring_doorbells", json_int r.Firehose.ring_doorbells);
        ("faults", json_int r.Firehose.faults_injected);
        ("retransmits", json_int r.Firehose.retransmits);
        ("intact", json_bool r.Firehose.intact);
        ("completed_run", json_bool r.Firehose.completed_run);
      ]
  in
  let run sinks count size batch busy_poll seed loss match_engine event_sched
      metrics json check baseline_file =
    let on_metrics = if metrics then Some dump_metrics else None in
    let run_one cfg =
      let r = Firehose.run ?on_metrics cfg in
      Firehose.print_report Format.std_formatter cfg r;
      r
    in
    let cfg =
      {
        Firehose.sinks;
        count;
        size;
        batch;
        busy_poll;
        seed;
        loss;
        match_engine;
        event_sched;
      }
    in
    if check then begin
      let failures = ref 0 in
      let fail fmt =
        Printf.ksprintf
          (fun msg ->
            Printf.eprintf "ulsbench firehose --check: %s\n" msg;
            incr failures)
          fmt
      in
      let gate_cfg =
        { Firehose.default with Firehose.match_engine; event_sched }
      in
      let sane tag (r : Firehose.report) =
        if not (r.Firehose.completed_run && r.Firehose.intact) then
          fail "%s: run incomplete or corrupt (%d/%d delivered, %d \
                mismatches)"
            tag r.Firehose.delivered r.Firehose.messages
            r.Firehose.mismatches
      in
      (* Doorbell audit: once a run drains, every NIC mailbox fetch must
         be explained by a doorbell — the metric pair that caught the TX
         double-charge. At batch depth > 1 a doorbell rung while the
         firmware is mid-fetch coalesces into that fetch, so doorbells
         may lead fetches by a handful; a fetch with no doorbell (or a
         large gap) still fails. Batch=1 serialises doorbell/fetch pairs
         and must agree exactly. *)
      let audit ?(exact = false) tag (r : Firehose.report) =
        let d = r.Firehose.doorbells and f = r.Firehose.mailbox_fetches in
        let bad = if exact then d <> f else f > d || d - f > 16 in
        if bad then
          fail "%s: doorbell audit: %d doorbells vs %d mailbox fetches"
            tag d f
      in
      let r32 = run_one { gate_cfg with Firehose.batch = 32 } in
      sane "batch=32" r32;
      audit "batch=32" r32;
      let r1 = run_one { gate_cfg with Firehose.batch = 1 } in
      sane "batch=1" r1;
      audit ~exact:true "batch=1" r1;
      (* The tentpole claim: one doorbell per batch must show up as
         small-message throughput. *)
      if r1.Firehose.pps > 0. && r32.Firehose.pps < 2.0 *. r1.Firehose.pps
      then
        fail "batch=32 pps %.0f < 2x batch=1 pps %.0f" r32.Firehose.pps
          r1.Firehose.pps;
      (* Busy-poll delivers the same bytes without any doorbells. *)
      let rbp =
        run_one { gate_cfg with Firehose.batch = 32; busy_poll = true }
      in
      sane "busy-poll" rbp;
      if rbp.Firehose.ring_doorbells <> 0 then
        fail "busy-poll: tx ring rang %d doorbells"
          rbp.Firehose.ring_doorbells;
      if rbp.Firehose.delivered <> r32.Firehose.delivered then
        fail "busy-poll delivered %d, wakeup delivered %d"
          rbp.Firehose.delivered r32.Firehose.delivered;
      (* Chaos leg: 2% uniform loss, still byte-exact. *)
      let rloss =
        run_one { gate_cfg with Firehose.batch = 32; loss = 0.02 }
      in
      sane "loss=0.02" rloss;
      if rloss.Firehose.faults_injected = 0 then
        fail "loss=0.02: fault engine injected nothing";
      (* Determinism: same config, byte-identical report. *)
      let a = Firehose.run { gate_cfg with Firehose.batch = 32 } in
      if a <> r32 then fail "batch=32 seeded runs diverged";
      (* Baseline gate: pps is virtual-time throughput — deterministic —
         so a regression below 80% of the committed record is a real
         cost-model or path regression, not machine noise. *)
      let base = read_records baseline_file in
      let base_pps =
        List.fold_left
          (fun acc r ->
            match
              ( List.assoc_opt "bench" r,
                List.assoc_opt "batch" r,
                List.assoc_opt "size" r,
                List.assoc_opt "busy_poll" r,
                List.assoc_opt "loss" r,
                List.assoc_opt "pps" r )
            with
            | ( Some "firehose",
                Some "32",
                Some s,
                Some "false",
                Some l,
                Some pps )
              when int_of_string s = gate_cfg.Firehose.size
                   && float_of_string l = 0. ->
              Some (float_of_string pps)
            | _ -> acc)
          None base
      in
      (match base_pps with
      | None ->
        Printf.printf
          "firehose --check: no baseline record in %s; skipping baseline \
           gate\n"
          baseline_file
      | Some b ->
        if b > 0. && r32.Firehose.pps < 0.8 *. b then
          fail "batch=32 pps %.0f below 80%% of baseline %.0f"
            r32.Firehose.pps b);
      if !failures > 0 then begin
        Printf.eprintf "ulsbench firehose --check: %d failure(s)\n"
          !failures;
        exit 1
      end;
      print_endline "firehose check: ok"
    end
    else begin
      let r = run_one cfg in
      if json then firehose_json cfg r;
      if not (r.Firehose.completed_run && r.Firehose.intact) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "firehose"
       ~doc:
         "Small-message datagram firehose through the ring-based batched \
          I/O subsystem: one source sprays patterned datagrams at N \
          sinks, one doorbell per --batch submissions; prints pps and \
          the NIC doorbell/fetch audit pair")
    Term.(const run $ sinks $ count $ size $ batch_flag d.Firehose.batch
          $ busy_poll_flag $ seed $ loss $ match_engine_flag
          $ sched_flag `Wheel $ metrics_flag $ json $ check $ baseline)

let storm_cmd =
  let open Uls_bench in
  let d = Storm.default in
  let scanners =
    Arg.(value & opt int d.Storm.scanners
         & info [ "scanners" ] ~docv:"N" ~doc:"Scanner (prober) nodes.")
  in
  let targets =
    Arg.(value & opt int d.Storm.targets
         & info [ "targets" ] ~docv:"N" ~doc:"Target (listener) nodes.")
  in
  let window =
    Arg.(value & opt int d.Storm.window
         & info [ "window" ] ~docv:"W"
             ~doc:"Probe slots (concurrent probes) per scanner.")
  in
  let probes =
    Arg.(value & opt int d.Storm.probes
         & info [ "probes" ] ~docv:"N" ~doc:"Probes per scanner.")
  in
  let backlog =
    Arg.(value & opt int d.Storm.backlog
         & info [ "backlog" ] ~docv:"N" ~doc:"Per-target listen backlog.")
  in
  let seed =
    Arg.(value & opt int d.Storm.seed & info [ "seed" ] ~doc:"RNG seed.")
  in
  let json =
    Arg.(value & flag & info [ "json" ]
           ~doc:"Append a JSON record to BENCH_rings.json.")
  in
  let smoke =
    Arg.(value & flag & info [ "smoke" ]
           ~doc:"CI mode: pinned-seed batch=32 and batch=1 runs plus a \
                 determinism double-run; non-zero exit on any hang, \
                 unanswered probe, refusal or divergence.")
  in
  let storm_json (cfg : Storm.config) (r : Storm.report) =
    emit_json ~file:"BENCH_rings.json"
      [
        ("bench", json_str "storm");
        ("match",
         json_str (Uls_nic.Match_list.engine_name cfg.Storm.match_engine));
        ("sched", json_str (sched_name cfg.Storm.event_sched));
        ("scanners", json_int cfg.Storm.scanners);
        ("targets", json_int cfg.Storm.targets);
        ("window", json_int cfg.Storm.window);
        ("probes", json_int cfg.Storm.probes);
        ("batch", json_int cfg.Storm.batch);
        ("busy_poll", json_bool cfg.Storm.busy_poll);
        ("seed", json_int cfg.Storm.seed);
        ("attempts", json_int r.Storm.attempts);
        ("accepted", json_int r.Storm.accepted);
        ("refused", json_int r.Storm.refused);
        ("server_accepts", json_int r.Storm.server_accepts);
        ("elapsed_ms", json_float r.Storm.elapsed_ms);
        ("attempts_per_sec", json_float r.Storm.attempts_per_sec);
        ("mpps", json_float r.Storm.mpps);
        ("doorbells", json_int r.Storm.doorbells);
        ("mailbox_fetches", json_int r.Storm.mailbox_fetches);
        ("intact", json_bool r.Storm.intact);
        ("completed_run", json_bool r.Storm.completed_run);
      ]
  in
  let run_one cfg =
    let r = Storm.run cfg in
    Storm.print_report Format.std_formatter cfg r;
    r
  in
  let run scanners targets window probes batch backlog busy_poll seed
      match_engine event_sched json smoke =
    let cfg =
      {
        Storm.scanners;
        targets;
        window;
        probes;
        batch;
        backlog;
        busy_poll;
        seed;
        match_engine;
        event_sched;
      }
    in
    if smoke then begin
      let failures = ref 0 in
      let gate_cfg = { Storm.default with Storm.match_engine; event_sched } in
      let check tag (r : Storm.report) =
        if not (r.Storm.completed_run && r.Storm.intact) then begin
          Printf.eprintf
            "ulsbench storm --smoke: %s incomplete or refused (%d/%d \
             answered, %d refused)\n"
            tag
            (r.Storm.accepted + r.Storm.refused)
            r.Storm.attempts r.Storm.refused;
          incr failures
        end
      in
      let r32 = run_one { gate_cfg with Storm.batch = 32 } in
      check "batch=32" r32;
      check "batch=1" (run_one { gate_cfg with Storm.batch = 1 });
      let a = Storm.run { gate_cfg with Storm.batch = 32 } in
      if a <> r32 then begin
        prerr_endline "ulsbench storm --smoke: seeded runs diverged";
        incr failures
      end;
      if !failures > 0 then begin
        Printf.eprintf "ulsbench storm --smoke: %d failure(s)\n" !failures;
        exit 1
      end;
      print_endline "storm smoke: ok"
    end
    else begin
      let r = run_one cfg in
      if json then storm_json cfg r;
      if not (r.Storm.completed_run && r.Storm.intact) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "storm"
       ~doc:
         "ZMap-style connection storm: windowed raw-EMP probe engines \
          fire batched connection attempts at substrate listeners, one \
          doorbell per --batch probes; prints connect-attempt rate")
    Term.(const run $ scanners $ targets $ window $ probes
          $ batch_flag d.Storm.batch $ backlog $ busy_poll_flag $ seed
          $ match_engine_flag $ sched_flag `Wheel $ json $ smoke)

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
  let run seeds scenario replay_schedule max_runs max_preempt verbose sched =
    match replay_schedule with
    | Some id -> (
      let name =
        match scenario with
        | Some n -> n
        | None ->
          prerr_endline "ulsbench races: --replay-schedule requires --scenario";
          exit 124
      in
      match X.replay ~sched (find_or_die name) ~schedule:id with
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
            X.explore ~sched ~seeds ?max_runs ?max_preemptions:max_preempt sc
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
          $ max_preempt $ verbose $ sched_flag `Heap)

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
            trace_cmd;
            races_cmd;
          ]))
