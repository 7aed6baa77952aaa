(** Loss-sweep chaos driver: stream a checksummed payload through a
    sockets stack while the fault engine drops (or damages, duplicates,
    delays) frames at a configured rate, and report goodput plus recovery
    work per rate. Fault sequences are seeded, so a sweep is exactly
    reproducible — the property the chaos CI job relies on. *)

open Uls_engine

type row = {
  loss_pct : float;
  goodput_mbps : float;
  elapsed_ms : float;
  faults_injected : int;
  retransmits : int;
  nacks : int;
  intact : bool;
  completed : bool;
}

(* Deterministic pseudo-random payload: loss, reordering or truncation
   anywhere in the stream shows up as a byte mismatch, which a constant
   fill would hide. *)
let pattern ~seed len =
  let rng = Rng.create ~seed in
  String.init len (fun _ -> Char.chr (Rng.int rng 256))

let liveness_bound = Time.s 60
(* Virtual time. A stuck retransmission loop or a lost wakeup turns into
   [`Time_limit] (reported as [completed = false]) instead of a test
   harness that never returns. *)

let retransmit_metric = function
  | `Sub _ -> "emp.frames_retransmitted"
  | `Tcp _ -> "tcp.retransmits"

(* One streaming run at one loss rate: client sends [total] patterned
   bytes in [msg]-byte writes, server verifies every byte and answers
   with one confirmation byte. *)
let stream_run ~kind ~seed ~loss ~total ~msg =
  let c = Cluster.create ~n:2 () in
  let api = Cluster.api c kind in
  let sim = Cluster.sim c in
  let fault = Cluster.fault ~seed c in
  if loss > 0. then Fault.set_default_plan fault (Fault.uniform_loss loss);
  let payload = pattern ~seed:(seed lxor 0x5ca1ab1e) total in
  let intact = ref false in
  let t_start = ref 0 and t_end = ref 0 in
  Sim.spawn sim ~name:"chaos-sink" (fun () ->
      let l = api.Uls_api.Sockets_api.listen ~node:1 ~port:80 ~backlog:4 in
      let s, _ = l.accept () in
      let got = Uls_api.Sockets_api.recv_exact s total in
      intact := String.equal got payload;
      t_end := Sim.now sim;
      s.send (if !intact then "k" else "x");
      s.close ();
      l.close_listener ());
  Sim.spawn sim ~name:"chaos-src" (fun () ->
      Sim.delay sim (Time.us 50);
      let s = api.Uls_api.Sockets_api.connect ~node:0 { node = 1; port = 80 } in
      t_start := Sim.now sim;
      let rec push off =
        if off < total then begin
          let n = min msg (total - off) in
          s.send (String.sub payload off n);
          push (off + n)
        end
      in
      push 0;
      ignore (s.recv 1);
      s.close ());
  let outcome = Cluster.run ~until:liveness_bound c in
  let metrics = Metrics.for_sim sim in
  let per_node name =
    Metrics.counter_value metrics ~node:0 name
    + Metrics.counter_value metrics ~node:1 name
  in
  let elapsed = max 1 (!t_end - !t_start) in
  {
    loss_pct = loss *. 100.;
    goodput_mbps =
      (if outcome = `Quiescent && !t_end > 0 then
         Time.mbps ~bytes_transferred:total ~elapsed
       else 0.);
    elapsed_ms = float_of_int elapsed /. 1_000_000.;
    faults_injected = Fault.faults_injected fault;
    retransmits = per_node (retransmit_metric kind);
    nacks = (match kind with `Sub _ -> per_node "emp.nacks_sent" | `Tcp _ -> 0);
    intact = !intact;
    completed = outcome = `Quiescent;
  }

let default_rates = [ 0.0; 0.005; 0.02; 0.05 ]

let sweep ?(seed = 42) ?(rates = default_rates) ?(total = 4 * 1024 * 1024)
    ?(msg = 16_384) ~kind () =
  List.map (fun loss -> stream_run ~kind ~seed ~loss ~total ~msg) rates

let print_table fmt ~kind rows =
  Format.fprintf fmt "%s, %s:@." (Cluster.stack_name kind)
    "goodput under uniform frame loss";
  Format.fprintf fmt "  %8s %12s %12s %8s %12s %8s %6s@." "loss%" "Mbit/s"
    "elapsed ms" "faults" "retransmits" "nacks" "ok";
  List.iter
    (fun r ->
      Format.fprintf fmt "  %8.2f %12.1f %12.2f %8d %12d %8d %6s@."
        r.loss_pct r.goodput_mbps r.elapsed_ms r.faults_injected
        r.retransmits r.nacks
        (if r.completed && r.intact then "yes"
         else if not r.completed then "HUNG"
         else "CORRUPT"))
    rows
