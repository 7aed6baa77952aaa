(* ulsperf: one workload of the benchmark, end to end.

     ulsperf --workload serve|serve-tcp|firehose|fabric --seed N
             --seconds S --trace 0|1 [--sched heap|wheel]
             [--scale FIELD=FACTOR]

   --trace 0 reports the end-to-end metrics: the untraced nominal run,
   set-up time (median of several set-ups) and a rate ladder for
   max_rps. --trace 1 reports the per-layer metrics: the same untraced
   nominal run read layer by layer from outside, plus a short run made
   twice, untraced and traced, for span totals and tracing overhead.
   --seconds sizes the nominal run deterministically (operations per
   second of budget), so one seed always gives the same virtual
   metrics. --sched and --scale perturb the program through its public
   constructors; the sensitivity tests use them. The last line of
   output is one JSON object: correct, attempted, failed, metrics. *)

open Uls_engine
module Cluster = Uls_bench.Cluster
module Cost_model = Uls_host.Cost_model
module W = Workloads

type spec = {
  name : string;
  build : W.env -> seed:int -> traced:bool -> W.inst;
  rate : float;  (** nominal offered rate, ops/s; 0 = flow-controlled *)
  ops_per_second : int;  (** nominal operations per second of --seconds *)
  ladder : (float * Time.ns) option;  (** p99 limit (us), rung window *)
  segments : int;  (** fresh clusters the nominal run is split over *)
}

let specs =
  [
    {
      name = "serve";
      build = W.serve ~tcp:false;
      rate = 30_000.;
      ops_per_second = 12_000;
      ladder = Some (500., Time.ms 200);
      segments = 1;
    };
    {
      name = "serve-tcp";
      build = W.serve ~tcp:true;
      rate = 15_000.;
      ops_per_second = 4_000;
      ladder = Some (1_000., Time.ms 300);
      segments = 1;
    };
    {
      name = "firehose";
      build = W.firehose;
      rate = 0.;
      ops_per_second = 4_000;
      ladder = None;
      segments = 1;
    };
    {
      name = "fabric";
      build = W.fabric;
      rate = 16_000.;
      ops_per_second = 3_000;
      ladder = Some (1_000., Time.ms 120);
      segments = 6;
    };
  ]

let e2e_units =
  [
    ("latency_p50_us", "us");
    ("latency_p999_us", "us");
    ("max_rps", "1/s");
    ("goodput_mbps", "Mb/s");
    ("msgs_per_s", "1/s");
    ("host_s", "s");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
  ]

(* Per-layer units follow from the name's words: "us", "ns", "words",
   a trailing "frac"/"util"/"ratio"/"skew", else a count. *)
let unit_of name =
  let words =
    List.concat_map (String.split_on_char '_') (String.split_on_char '.' name)
  in
  let last = List.nth words (List.length words - 1) in
  if List.mem "us" words then "us"
  else if List.mem "ns" words then "ns"
  else if List.mem "words" words then "words"
  else if List.mem last [ "frac"; "util"; "ratio"; "skew" ] then "ratio"
  else "count"

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* --- process isolation ---------------------------------------------------- *)

(* Run [f] in a forked child and return its result. The program keeps
   every connection's send pool, and through it every simulation,
   reachable from a global registry ([Sendpool]), so a process that
   builds many clusters only grows. Each cluster lives and dies in its
   own child, which hands back plain data and exits. *)
let in_child (f : unit -> 'a) : 'a =
  flush stdout;
  let r, w = Unix.pipe ~cloexec:true () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let oc = Unix.out_channel_of_descr w in
    let v : ('a, string) result = try Ok (f ()) with e -> Error (Printexc.to_string e) in
    Marshal.to_channel oc v [];
    close_out oc;
    flush stdout;
    Unix._exit 0
  | pid -> (
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let v : ('a, string) result =
      try Marshal.from_channel ic with End_of_file -> Error "child died"
    in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    match v with Ok x -> x | Error e -> failwith ("measured phase failed: " ^ e))

(* --- host time ------------------------------------------------------------ *)

(* On a shared host, other tenants slow this process by tens of percent
   for seconds at a time (a sibling hyperthread, memory bandwidth), and
   CPU time does not hide it. So host time is measured against a probe:
   a fixed memory-bound kernel sharing no code with the program, run
   between measured slices. Each slice is divided by the probe time next
   to it, and the result is reported in seconds of a host that runs the
   probe in [probe_reference_s] (an idle core of the 2.1 GHz x86-64
   machine the benchmark was written on). *)
let probe_reference_s = 0.012
let probe_mem = Array.make (4 * 1024 * 1024) 0

let probe () =
  let t0 = Sys.time () in
  let n = Array.length probe_mem and x = ref 12345 in
  for _ = 1 to 500_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let i = !x land (n - 1) in
    probe_mem.(i) <- probe_mem.(i) + 1
  done;
  Sys.time () -. t0

(* [f ()]'s CPU seconds in reference-host seconds, with a probe on each side. *)
let timed f =
  let p0 = probe () in
  let t0 = Sys.time () in
  let r = f () in
  let dt = Sys.time () -. t0 in
  (r, dt /. ((p0 +. probe ()) /. 2.) *. probe_reference_s)

(* A measured phase's host seconds: [slices] equal-operation slices, each
   normalised by its probe, summed as [slices] times their median so a
   slice caught by a burst of interference does not move the figure. *)
let slices = 16

let host_seconds (a : W.acc) ~fallback =
  match a.W.slices with
  | parts when List.length parts >= slices ->
    float_of_int slices *. probe_reference_s
    *. median (List.map (fun (dt, p) -> dt /. p) parts)
  | _ -> fallback

(* --- one measured phase ----------------------------------------------- *)

(* What a phase leaves behind, in plain data: computed in the child that
   ran it. *)
type phase = {
  topology : Layers.topology;
  serving : int list;
  setup_s : float;
  host_s : float;
  d : Layers.snap;  (** layer deltas over the measured phase *)
  busy : (string * float) list;  (** every busy time at the end *)
  attempted : int;
  failed : int;  (** errors, refusals, resets, sheds, mismatches, unfinished *)
  unfinished : int;
  mismatches : int;
  setup_failures : int;
  bytes : int;
  elapsed_s : float;
  in_window : int;
  lat : Samples.t;
  late : Samples.t;
  conn_wait : Samples.t;
  calls : (string * Samples.t) list;
  spans : (Trace.layer * string * int * int) list;
  cell_skew : float;
  heap_words : int;
}

let phase spec env ~seed ~traced ~rate ~ops =
  in_child (fun () ->
      Gc.full_major ();
      let inst, setup_s = timed (fun () -> spec.build env ~seed ~traced) in
      let c = inst.W.c and a = inst.W.acc in
      let t0 = Sim.now (Cluster.sim c) in
      let tcp = inst.W.tcp in
      let before = Layers.take ?tcp c in
      let bound = inst.W.start ~rate ~ops in
      a.W.slice <- max 1 (a.W.target / slices);
      a.W.probe <- probe;
      a.W.mark <- Sys.time ();
      ignore (Cluster.run ~until:bound c);
      let after = Layers.take ?tcp c in
      let unfinished = a.W.target - a.W.finished in
      if unfinished > 0 then
        Printf.printf "  ! %s: %d of %d operations unfinished at the liveness bound (%s)\n"
          spec.name unfinished a.W.target
          (Format.asprintf "%a" Time.pp bound);
      let d = Layers.diff before after in
      {
        topology = Layers.topology c;
        serving = inst.W.serving;
        setup_s;
        host_s = host_seconds a ~fallback:(Layers.get d "host");
        d;
        busy = Layers.busy_times after;
        attempted = a.W.target;
        failed = a.W.failed + unfinished;
        unfinished;
        mismatches = a.W.mismatches;
        setup_failures = inst.W.setup_failures;
        bytes = a.W.bytes;
        elapsed_s = float_of_int (max 1 (a.W.t_end - t0)) /. 1e9;
        in_window = a.W.in_window;
        lat = a.W.lat;
        late = a.W.late;
        conn_wait = a.W.conn_wait;
        calls = a.W.calls;
        spans = (match a.W.trace with Some tr -> Trace.span_totals tr | None -> []);
        cell_skew = inst.W.cell_skew ();
        heap_words = (Gc.quick_stat ()).Gc.top_heap_words;
      })

let lat_us (p : phase) q = Samples.percentile ~missing:p.failed p.lat q /. 1e3

(* --- the nominal run ------------------------------------------------- *)

(* The nominal run is [spec.segments] measured phases, each on a fresh
   cluster with a seed derived from the run's, pooled into one: segments
   bound the heap of a workload whose program state grows with the
   operations it serves (fabric). *)
type nominal = {
  n_attempted : int;
  n_completed : int;
  n_failed : int;
  n_unfinished : int;
  n_mismatches : int;
  n_setup_failures : int;
  n_beyond : int * int;  (** samples beyond p50 and p99.9 *)
  n_setups : float list;
  n_host_s : float;
  n_peak_heap_mb : float;
  n_virtual : (string * float) list;  (** virtual-time end-to-end metrics *)
  n_layers : (string * float) list;
}

let nominal spec env ~seed ~ops =
  let parts =
    List.init spec.segments (fun i ->
        phase spec env ~seed:(seed + (i * 1_000_003)) ~traced:false ~rate:spec.rate
          ~ops:(max 1 (ops / spec.segments)))
  in
  let sum f = List.fold_left (fun acc p -> acc + f p) 0 parts in
  let sumf f = List.fold_left (fun acc p -> acc +. f p) 0. parts in
  let pool f =
    let s = Samples.create () in
    List.iter (fun p -> Samples.append s (f p)) parts;
    s
  in
  let lat = pool (fun p -> p.lat) in
  let d = Hashtbl.create 256 in
  List.iter (fun p -> Layers.accumulate d p.d) parts;
  let attempted = sum (fun p -> p.attempted) and failed = sum (fun p -> p.failed) in
  let host_s = sumf (fun p -> p.host_s) and elapsed = sumf (fun p -> p.elapsed_s) in
  let completed = Samples.count lat in
  let pct q = Samples.percentile ~missing:failed lat q /. 1e3 in
  let beyond q = Samples.beyond ~missing:failed lat q in
  let first = List.hd parts in
  {
    n_attempted = attempted;
    n_completed = completed;
    n_failed = failed;
    n_unfinished = sum (fun p -> p.unfinished);
    n_mismatches = sum (fun p -> p.mismatches);
    n_setup_failures = sum (fun p -> p.setup_failures);
    n_beyond = (beyond 0.5, beyond 0.999);
    n_setups = List.map (fun p -> p.setup_s) parts;
    n_host_s = host_s;
    n_peak_heap_mb =
      float_of_int (List.fold_left (fun m p -> max m p.heap_words) 0 parts * (Sys.word_size / 8))
      /. 1048576.;
    n_virtual =
      [
        ("latency_p50_us", pct 0.5);
        ("latency_p999_us", pct 0.999);
        ("goodput_mbps", float_of_int (sum (fun p -> p.bytes)) *. 8. /. elapsed /. 1e6);
        ("msgs_per_s", float_of_int completed /. elapsed);
      ];
    n_layers =
      Layers.compute first.topology ~d ~ops:attempted ~serving:first.serving ~host_s
      @ [
          ("fabric.cell_skew", median (List.map (fun p -> p.cell_skew) parts));
          ("gen.late_us_p999", Samples.percentile (pool (fun p -> p.late)) 0.999 /. 1e3);
          ( "gen.conn_wait_us_p999",
            Samples.percentile (pool (fun p -> p.conn_wait)) 0.999 /. 1e3 );
          ("gen.fail_ratio", Layers.ratio (float_of_int failed) (float_of_int attempted));
        ];
  }

(* --- rate ladder ------------------------------------------------------- *)

(* max_rps: the highest offered rate whose rung has zero failures, p99
   within the limit and at least 95% of its arrivals answered by the
   end of the arrival window (no growing backlog). Rungs climb by 1.25x
   from the nominal rate (or descend, if it fails), then four geometric
   bisections bring the resolution to ~1.4%. Each rung is a fresh
   cluster bounded in virtual time, so its host cost is bounded by its
   window. *)
let ladder spec env ~seed ~limit_us ~window =
  let mismatches = ref 0 in
  let pass rate =
    let ops = max 100 (int_of_float (rate *. Time.to_s window)) in
    let p = phase spec env ~seed ~traced:false ~rate ~ops in
    mismatches := !mismatches + p.mismatches;
    let p99 = lat_us p 0.99 in
    let answered = float_of_int p.in_window /. float_of_int ops in
    let ok = p.failed = 0 && p99 <= limit_us && answered >= 0.95 in
    Printf.printf "    rung %8.0f/s  ops %6d  p99 %10.1f us  failed %5d  answered %.3f  %s\n%!"
      rate ops p99 p.failed answered
      (if ok then "pass" else "fail");
    ok
  in
  let step = 1.25 in
  let rec climb lo r i =
    if i = 8 then (lo, None)
    else if pass r then climb (Some r) (r *. step) (i + 1)
    else (lo, Some r)
  in
  let rec descend hi r i =
    if i = 8 then (None, Some hi)
    else if pass r then (Some r, Some hi)
    else descend r (r /. step) (i + 1)
  in
  let lo, hi =
    match climb None spec.rate 0 with
    | None, Some hi -> descend hi (hi /. step) 0
    | bracket -> bracket
  in
  let rec bisect lo hi i =
    if i = 4 then lo
    else
      let m = sqrt (lo *. hi) in
      if pass m then bisect m hi (i + 1) else bisect lo m (i + 1)
  in
  let best =
    match (lo, hi) with
    | Some lo, Some hi -> bisect lo hi 0
    | Some lo, None -> lo
    | None, _ -> 0.
  in
  (best, !mismatches)

(* --- traced pair --------------------------------------------------------- *)

(* A short run made twice with one seed, untraced and traced. Tracing may
   not move the virtual timeline, so every busy time must agree. *)
let traced_pair spec env ~seed ~ops =
  let rate = spec.rate in
  let plain = phase spec env ~seed ~traced:false ~rate ~ops in
  let traced = phase spec env ~seed ~traced:true ~rate ~ops in
  let same = plain.busy = traced.busy in
  if not same then print_endline "  ! tracing perturbed the virtual timeline: busy times differ";
  let per_op = float_of_int (max 1 traced.attempted) in
  (* App spans include the benchmark's own "bench.<call>" spans: the time
     each operation spends inside the public calls. *)
  let by_layer layer =
    List.fold_left
      (fun s (l, _, _, total) -> if l = layer then s +. float_of_int total else s)
      0. traced.spans
    /. 1e3 /. per_op
  in
  let call name = Samples.percentile (List.assoc name traced.calls) 0.5 /. 1e3 in
  let metrics =
    [
      ("span.nic.us_per_op", by_layer Trace.Nic);
      ("span.emp.us_per_op", by_layer Trace.Emp);
      ("span.substrate.us_per_op", by_layer Trace.Substrate);
      ("span.tcpip.us_per_op", by_layer Trace.Tcpip);
      ("span.app.us_per_op", by_layer Trace.App);
      ("call.connect_us_p50", call "connect");
      ("call.send_us_p50", call "send");
      ("call.recv_us_p50", call "recv");
      ("trace.host_overhead_ratio", Layers.ratio traced.host_s plain.host_s);
    ]
  in
  (metrics, same, plain.mismatches + traced.mismatches)

(* --- output ----------------------------------------------------------- *)

let finite v = if Float.is_finite v then v else 1e12

let json_metrics ms =
  String.concat ","
    (List.map
       (fun (name, unit, v) ->
         Printf.sprintf "%S:{\"value\":%.17g,\"unit\":%S}" name (finite v) unit)
       ms)

let scale_model model spec =
  match String.split_on_char '=' spec with
  | [ field; factor ] -> (
    let f = float_of_string factor in
    let sc v = int_of_float (Float.round (float_of_int v *. f)) in
    match field with
    | "syscall" -> { model with Cost_model.syscall = sc model.Cost_model.syscall }
    | "nic_hash_lookup" ->
      { model with Cost_model.nic_hash_lookup = sc model.Cost_model.nic_hash_lookup }
    | _ -> raise (Arg.Bad ("unknown cost-model field " ^ field)))
  | _ -> raise (Arg.Bad ("--scale expects FIELD=FACTOR, got " ^ spec))

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let sched = ref `Wheel and model = ref Cost_model.paper_testbed in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME serve | serve-tcp | firehose | fabric");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S run size (nominal ops per second x S)");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
      ( "--sched",
        Arg.Symbol
          ([ "heap"; "wheel" ], fun s -> sched := if s = "heap" then `Heap else `Wheel),
        " event queue (perturbation)" );
      ( "--scale",
        Arg.String (fun s -> model := scale_model !model s),
        "FIELD=FACTOR scale a cost-model field: syscall | nic_hash_lookup" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "ulsperf --workload NAME --seed N --seconds S --trace 0|1";
  let spec =
    match List.find_opt (fun s -> s.name = !workload) specs with
    | Some s -> s
    | None ->
      prerr_endline ("ulsperf: unknown workload " ^ !workload);
      exit 2
  in
  let env = { W.sched = !sched; model = !model } in
  let seed = !seed and traced_mode = !trace = 1 in
  let ops = max 400 (spec.ops_per_second * max 1 !seconds) in
  Printf.printf "ulsperf %s seed=%d seconds=%d trace=%d sched=%s ops=%d rate=%s\n%!"
    spec.name seed !seconds !trace
    (if !sched = `Heap then "heap" else "wheel")
    ops
    (if spec.rate > 0. then Printf.sprintf "%.0f/s" spec.rate else "flow-controlled");
  let n = nominal spec env ~seed ~ops in
  (* Set-up time: the median of five blocks of four set-ups, each block
     timed whole (in its own process) so that a set-up of a few
     milliseconds is not lost in timer and probe noise. *)
  let setup_blocks, per_block = (5, 4) in
  let setups =
    if traced_mode then n.n_setups
    else
      List.init setup_blocks (fun _ ->
          in_child (fun () ->
              Gc.full_major ();
              let build () =
                for _ = 1 to per_block do
                  ignore (Sys.opaque_identity (spec.build env ~seed ~traced:false))
                done
              in
              snd (timed build) /. float_of_int per_block))
  in
  let max_rps, ladder_mismatches =
    match (traced_mode, spec.ladder) with
    | true, _ -> (None, 0)
    | false, Some (limit_us, window) ->
      Printf.printf "  ladder (p99 <= %.0f us, %s rungs):\n%!" limit_us
        (Format.asprintf "%a" Time.pp window);
      let best, mm = ladder spec env ~seed ~limit_us ~window in
      (Some best, mm)
    | false, None ->
      (* Flow-controlled: the nominal run already sends as fast as
         credits allow, so its delivered rate is its maximum. *)
      (Some (List.assoc "msgs_per_s" n.n_virtual), 0)
  in
  let traced_metrics, trace_ok, trace_mismatches =
    if traced_mode then traced_pair spec env ~seed ~ops:(max 200 (ops / 8))
    else ([], true, 0)
  in
  let virtual_e2e =
    (match max_rps with Some r -> [ ("max_rps", r) ] | None -> []) @ n.n_virtual
  in
  let e2e =
    virtual_e2e
    @ [
        ("host_s", n.n_host_s);
        ("setup_s", median setups);
        ("peak_heap_mb", n.n_peak_heap_mb);
      ]
  in
  let per_layer = n.n_layers @ traced_metrics in
  (* The seed contract: everything virtual, digested. *)
  let virtuals =
    List.filter (fun (n, _) -> not (List.mem n Layers.host_only)) (virtual_e2e @ per_layer)
    |> List.sort compare
  in
  let digest =
    Digest.to_hex
      (Digest.string
         (String.concat ";" (List.map (fun (n, v) -> Printf.sprintf "%s=%h" n v) virtuals)))
  in
  let mismatches = n.n_mismatches + ladder_mismatches + trace_mismatches in
  let ops_n = n.n_attempted in
  Printf.printf "  nominal run: %d ops, %d completed, %d failed (%d unfinished), %d mismatched\n"
    ops_n n.n_completed n.n_failed n.n_unfinished n.n_mismatches;
  Printf.printf "  end-to-end:\n";
  List.iter
    (fun (name, unit) ->
      match List.assoc_opt name e2e with
      | None -> ()
      | Some v ->
        let samples =
          match name with
          | "latency_p50_us" -> Printf.sprintf "n=%d, beyond=%d" ops_n (fst n.n_beyond)
          | "latency_p999_us" -> Printf.sprintf "n=%d, beyond=%d" ops_n (snd n.n_beyond)
          | "setup_s" ->
            Printf.sprintf "median of %d blocks of %d set-ups" setup_blocks per_block
          | "goodput_mbps" | "msgs_per_s" | "host_s" -> Printf.sprintf "n=%d" ops_n
          | _ -> "n=1"
        in
        Printf.printf "    %-32s %14.4f %-6s (%s)\n" name v unit samples)
    e2e_units;
  Printf.printf "    %-32s %14.6f %-6s (n=%d)\n" "fail_ratio"
    (Layers.ratio (float_of_int n.n_failed) (float_of_int ops_n)) "ratio" ops_n;
  Printf.printf "  per-layer%s:\n" (if traced_mode then "" else " (untraced run)");
  List.iter
    (fun (name, v) -> Printf.printf "    %-32s %14.4f %s\n" name v (unit_of name))
    per_layer;
  Printf.printf "  digest %s\n%!" digest;
  let detail =
    Printf.sprintf "{\"digest\":%S,\"virtual\":{%s},\"host\":{%s}}" digest
      (String.concat ","
         (List.map (fun (n, v) -> Printf.sprintf "%S:%.17g" n (finite v)) virtuals))
      (String.concat ","
         (List.filter_map
            (fun (n, v) ->
              if List.mem_assoc n virtuals then None
              else Some (Printf.sprintf "%S:%.17g" n (finite v)))
            (e2e @ per_layer)))
  in
  print_endline ("DETAIL " ^ detail);
  let reported =
    if traced_mode then List.map (fun (n, v) -> (n, unit_of n, v)) per_layer
    else List.map (fun (n, u) -> (n, u, List.assoc n e2e)) e2e_units
  in
  Printf.printf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n"
    (mismatches = 0 && trace_ok)
    ops_n
    (n.n_failed + n.n_setup_failures)
    (json_metrics reported)
