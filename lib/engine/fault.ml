(* Deterministic fault injection. Each link gets its own SplitMix64
   stream derived from (engine seed, link name): the verdict sequence a
   link sees depends only on how many frames crossed *that* link, so
   adding traffic elsewhere (or reordering link creation) does not
   reshuffle the faults — the property that makes chaos runs
   reproducible and their failures bisectable. *)

type decision =
  | Deliver
  | Drop of string
  | Corrupt
  | Duplicate
  | Delay of Time.ns

let decision_kind = function
  | Deliver -> "deliver"
  | Drop _ -> "drop"
  | Corrupt -> "corrupt"
  | Duplicate -> "duplicate"
  | Delay _ -> "delay"

type plan = {
  drop_p : float;
  burst_p : float;
  burst_len : int;
  corrupt_p : float;
  dup_p : float;
  delay_p : float;
  delay_max : Time.ns;
  down : (Time.ns * Time.ns) list;
}

let clean =
  {
    drop_p = 0.;
    burst_p = 0.;
    burst_len = 0;
    corrupt_p = 0.;
    dup_p = 0.;
    delay_p = 0.;
    delay_max = 0;
    down = [];
  }

let uniform_loss p = { clean with drop_p = p }

let plan_is_clean p =
  p.drop_p = 0. && p.burst_p = 0. && p.corrupt_p = 0. && p.dup_p = 0.
  && p.delay_p = 0. && p.down = []

type link_state = {
  ls_rng : Rng.t;
  mutable ls_burst_left : int;
}

type t = {
  sim : Sim.t;
  seed : int;
  metrics : Metrics.t;
  trace : Trace.t;
  links : (string, link_state) Hashtbl.t;
  pauses : (int, (Time.ns * Time.ns) list) Hashtbl.t;
  fault_counters : (string, Stats.Counter.t) Hashtbl.t;
      (* key -> handle, memoised so injection skips the registry's name
         lookup *)
  mutable plan : plan;
  mutable injected : int;
  mutable active : bool;
}

let create ?(seed = 0) sim =
  {
    sim;
    seed;
    metrics = Metrics.for_sim sim;
    trace = Trace.for_sim sim;
    links = Hashtbl.create 16;
    pauses = Hashtbl.create 4;
    fault_counters = Hashtbl.create 8;
    plan = clean;
    injected = 0;
    active = false;
  }

let refresh_active t =
  t.active <-
    (not (plan_is_clean t.plan)) || Hashtbl.length t.pauses > 0

let link_state t link =
  match Hashtbl.find_opt t.links link with
  | Some ls -> ls
  | None ->
    let ls =
      {
        (* Seed each link from (engine seed, link name) so streams are
           stable across runs and independent across links. *)
        ls_rng = Rng.create ~seed:(t.seed lxor (Hashtbl.hash link * 0x2545F49));
        ls_burst_left = 0;
      }
    in
    Hashtbl.replace t.links link ls;
    ls

let set_plan t plan =
  t.plan <- plan;
  refresh_active t

let pause_node t ~node ~from ~until =
  let windows =
    match Hashtbl.find_opt t.pauses node with Some w -> w | None -> []
  in
  Hashtbl.replace t.pauses node ((from, until) :: windows);
  refresh_active t

let in_window now windows =
  List.exists (fun (from, until) -> now >= from && now < until) windows

let node_paused t node now =
  match Hashtbl.find_opt t.pauses node with
  | Some windows -> in_window now windows
  | None -> false

let tally_key = function
  | Deliver -> ""
  | Drop cause -> "drop." ^ cause
  | Corrupt -> "corrupt"
  | Duplicate -> "duplicate"
  | Delay _ -> "delay"

let record t ~link verdict =
  match verdict with
  | Deliver -> verdict
  | _ ->
    let key = tally_key verdict in
    t.injected <- t.injected + 1;
    let c =
      match Hashtbl.find_opt t.fault_counters key with
      | Some c -> c
      | None ->
        let c = Metrics.counter t.metrics ("fault." ^ key) in
        Hashtbl.add t.fault_counters key c;
        c
    in
    Stats.Counter.incr c;
    Trace.instant t.trace ~layer:Trace.Net ("fault." ^ decision_kind verdict)
      ~args:[ ("link", link) ];
    verdict

let decide t ~link ~src ~dst =
  if not t.active then Deliver
  else begin
    let now = Sim.now t.sim in
    if node_paused t src now || node_paused t dst now then
      record t ~link (Drop "pause")
    else begin
      let ls = link_state t link in
      let plan = t.plan in
      if plan_is_clean plan && ls.ls_burst_left = 0 then Deliver
      else if in_window now plan.down then record t ~link (Drop "down")
      else if ls.ls_burst_left > 0 then begin
        ls.ls_burst_left <- ls.ls_burst_left - 1;
        record t ~link (Drop "burst")
      end
      else begin
        (* Independent draws per fault class, in a fixed order, so a
           plan's loss pattern does not change when (say) duplication is
           also enabled... it does consume extra draws, but the same
           extra draws every run. *)
        let rng = ls.ls_rng in
        let drop = plan.drop_p > 0. && Rng.float rng < plan.drop_p in
        let burst = plan.burst_p > 0. && Rng.float rng < plan.burst_p in
        let corrupt = plan.corrupt_p > 0. && Rng.float rng < plan.corrupt_p in
        let dup = plan.dup_p > 0. && Rng.float rng < plan.dup_p in
        let delay = plan.delay_p > 0. && Rng.float rng < plan.delay_p in
        if drop then record t ~link (Drop "loss")
        else if burst then begin
          ls.ls_burst_left <- max 0 (plan.burst_len - 1);
          record t ~link (Drop "burst")
        end
        else if corrupt then record t ~link Corrupt
        else if dup then record t ~link Duplicate
        else if delay then
          record t ~link (Delay (1 + Rng.int rng (max 1 plan.delay_max)))
        else Deliver
      end
    end
  end

let faults_injected t = t.injected
