(* Event-core throughput shapes. See the .mli for what each models. *)

open Uls_engine

type sched = [ `Heap | `Wheel ]

type shape = {
  sh_name : string;
  sh_conns : int;
  sh_cycles : int;
  sh_timeout : Time.ns;
  sh_far : bool;
}

(* Cycle counts are sized so every run executes a few hundred thousand
   to a million events — long enough that Sys.time's resolution is
   noise, short enough that the whole matrix runs in seconds. *)
let shapes =
  [
    { sh_name = "pingpong"; sh_conns = 1; sh_cycles = 200_000;
      sh_timeout = Time.us 100; sh_far = false };
    { sh_name = "serve-512"; sh_conns = 512; sh_cycles = 400;
      sh_timeout = Time.ms 50; sh_far = false };
    { sh_name = "fabric-4096"; sh_conns = 4_096; sh_cycles = 64;
      sh_timeout = Time.ms 50; sh_far = true };
    { sh_name = "fabric-65536"; sh_conns = 65_536; sh_cycles = 8;
      sh_timeout = Time.ms 50; sh_far = true };
  ]

type row = {
  scenario : string;
  conns : int;
  sched : sched;
  events : int;
  elapsed_s : float;
  events_per_sec : float;
  minor_words_per_event : float;
}

(* Per-connection request loop, callbacks only (no fibers, so the
   measurement is queue cost plus dispatch, nothing else). Each cycle
   dispatches one activity event, arms one stale retransmission timer
   (fires as a no-op [sh_timeout] later — the cancelled-timer pattern
   every stack generates), and schedules the next cycle one jittered
   period ahead. All connections run concurrently, so the standing
   population peaks near conns x cycles stale timers. *)
let install sim sh =
  let nop () = () in
  for i = 0 to sh.sh_conns - 1 do
    (* deterministic per-conn jitter decorrelates same-slot bursts *)
    let period = Time.us 20 + ((i * 37) land 0xfff) in
    let rec cycle k t =
      Sim.at sim t (fun () ->
          Sim.at sim (t + sh.sh_timeout) nop;
          if k + 1 < sh.sh_cycles then cycle (k + 1) (t + period))
    in
    cycle 0 (Time.us 1 + i);
    if sh.sh_far then begin
      (* idle-close horizon: seconds out, top wheel levels *)
      Sim.at sim (Time.s 2 + (i * 977)) nop;
      (* sparse lease timers past the wheel's top range: overflow heap *)
      if i land 1023 = 0 then Sim.at sim ((1 lsl 41) + i) nop
    end
  done

let run_shape ~sched sh =
  (* Collect the previous run's garbage outside the timed region, so no
     run pays for another's major-heap work. *)
  Gc.full_major ();
  let sim = Sim.create ~sched () in
  install sim sh;
  let t0 = Sys.time () in
  let g0 = Gc.minor_words () in
  (match Sim.run sim with
  | `Quiescent -> ()
  | `Time_limit | `Stopped -> failwith "Engine_bench: run did not quiesce");
  let gained = Gc.minor_words () -. g0 in
  let elapsed = Sys.time () -. t0 in
  let events = Sim.events_executed sim in
  {
    scenario = sh.sh_name;
    conns = sh.sh_conns;
    sched;
    events;
    elapsed_s = elapsed;
    events_per_sec =
      (if elapsed > 0. then float_of_int events /. elapsed else 0.);
    minor_words_per_event =
      (if events > 0 then gained /. float_of_int events else 0.);
  }

(* On a shared 2-core host one heap/wheel pair swings the speedup by up
   to 20% run to run: pingpong, whose steady-state ratio there is near
   1.0x, read 0.79-1.18x per pair. Interleaved pairs see the same host
   load, and their median speedup is steady enough to gate on. *)
let pairs = 5

let run_all () =
  List.concat_map
    (fun sh ->
      let runs =
        List.init pairs (fun _ ->
            let h = run_shape ~sched:`Heap sh in
            let w = run_shape ~sched:`Wheel sh in
            (w.events_per_sec /. h.events_per_sec, h, w))
        |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
      in
      let _, h, w = List.nth runs (pairs / 2) in
      [ h; w ])
    shapes
