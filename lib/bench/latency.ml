open Uls_engine

type t = {
  samples : Stats.Summary.t;
  mutable t_first : Time.ns;
  mutable t_last : Time.ns;
}

let create () = { samples = Stats.Summary.create (); t_first = max_int; t_last = 0 }
let sent t ~now = t.t_first <- min t.t_first now

let completed t ~t0 ~now =
  Stats.Summary.add t.samples (float_of_int (now - t0));
  t.t_last <- max t.t_last now

type summary = {
  elapsed_ms : float;
  rps : float;
  mean_us : float;
  p50_us : float;
  p95_us : float;
  p99_us : float;
  p999_us : float;
}

let summary t =
  let n = Stats.Summary.count t.samples in
  let elapsed = if t.t_last > t.t_first then t.t_last - t.t_first else 0 in
  let us f = if n = 0 then 0. else f t.samples /. 1e3 in
  let pct p = us (fun s -> Stats.Summary.percentile s p) in
  {
    elapsed_ms = float_of_int elapsed /. 1e6;
    rps =
      (if elapsed > 0 then float_of_int n /. (float_of_int elapsed /. 1e9)
       else 0.);
    mean_us = us Stats.Summary.mean;
    p50_us = pct 0.5;
    p95_us = pct 0.95;
    p99_us = pct 0.99;
    p999_us = pct 0.999;
  }

let pp fmt s =
  Format.fprintf fmt "  elapsed %.2f ms  throughput %.0f req/s@." s.elapsed_ms
    s.rps;
  Format.fprintf fmt
    "  latency us: mean %.1f  p50 %.1f  p95 %.1f  p99 %.1f  p99.9 %.1f@."
    s.mean_us s.p50_us s.p95_us s.p99_us s.p999_us
