(* Per-layer state, read from outside the program through its public
   accessors: NIC resources ([Tigon.tx_cpu]/[rx_cpu]/[dma_engine]), host
   CPU ([Node.busy_time], and [Kernel.cpu] under kernel TCP), wire and switch ([Link.bytes_sent],
   [Switch.frames_dropped]), the metrics registry, the engine's event
   count and the OCaml GC. A snapshot is a flat table of raw quantities;
   the per-layer metrics of a measured phase are computed from the
   difference of the snapshots taken at its start and end. *)

open Uls_engine
module Cluster = Uls_bench.Cluster
module Tigon = Uls_nic.Tigon
module Network = Uls_ether.Network
module Switch = Uls_ether.Switch
module Link = Uls_ether.Link
module Node = Uls_host.Node

type snap = (string, float) Hashtbl.t

(* Registry histograms whose sums the metrics below need. *)
let histograms =
  [
    "nic.match_walk_descs";
    "sub.credit_wait_us";
    "sub.rdvz_grant_wait_us";
    "ip.frames_per_interrupt";
  ]

let take ?tcp c : snap =
  let t = Hashtbl.create 256 in
  let put k v = Hashtbl.replace t k v in
  let add k v =
    Hashtbl.replace t k (v +. Option.value ~default:0. (Hashtbl.find_opt t k))
  in
  let sim = Cluster.sim c in
  let m = Metrics.for_sim sim in
  let net = Cluster.network c in
  let sw = Network.switch net in
  put "vtime" (float_of_int (Sim.now sim));
  put "events" (float_of_int (Sim.events_executed sim));
  List.iter
    (fun (_, name, v) -> add ("c/" ^ name) (float_of_int v))
    (Metrics.counters_snapshot m);
  for i = 0 to Cluster.size c - 1 do
    List.iter
      (fun name ->
        let h = Metrics.histogram m ~node:i name in
        add ("h/" ^ name ^ "/sum") (Stats.Summary.sum h);
        add ("h/" ^ name ^ "/count") (float_of_int (Stats.Summary.count h)))
      histograms;
    let nic = Cluster.nic c i in
    let res kind r =
      let k = Printf.sprintf "nic/%d/%s/" i kind in
      add (k ^ "busy") (float_of_int (Resource.busy_time r));
      add (k ^ "wait") (float_of_int (Resource.queue_delay_total r));
      add (k ^ "jobs") (float_of_int (Resource.jobs r))
    in
    res "tx" (Tigon.tx_cpu nic);
    for queue = 0 to Tigon.rx_queues nic - 1 do
      res "rx" (Tigon.rx_cpu ~queue nic)
    done;
    res "dma" (Tigon.dma_engine nic);
    (* Host CPU: time charged to the node, plus the kernel's execution
       resource where kernel TCP runs. *)
    let kernel =
      match tcp with
      | Some stack -> Resource.busy_time (Uls_tcp.Kernel.cpu (Uls_tcp.Tcp_stack.kernel stack i))
      | None -> 0
    in
    put (Printf.sprintf "node/%d/busy" i)
      (float_of_int (Node.busy_time (Cluster.node c i) + kernel));
    put (Printf.sprintf "link/up%d" i)
      (float_of_int (Link.bytes_sent (Network.uplink net ~station:i)));
    match Switch.station_port sw ~station:i with
    | Some port ->
      put (Printf.sprintf "link/down%d" i)
        (float_of_int (Link.bytes_sent (Switch.egress sw ~port)))
    | None -> ()
  done;
  put "switch/drops" (float_of_int (Switch.frames_dropped sw));
  let gc = Gc.quick_stat () in
  put "host" (Sys.time ());
  put "minor_words" gc.Gc.minor_words;
  put "major_gcs" (float_of_int gc.Gc.major_collections);
  t

let diff (a : snap) (b : snap) : snap =
  let d = Hashtbl.create (Hashtbl.length b) in
  Hashtbl.iter
    (fun k v ->
      Hashtbl.replace d k (v -. Option.value ~default:0. (Hashtbl.find_opt a k)))
    b;
  d

(* Add the deltas [d] into [into]: phases on fresh clusters pooled into one. *)
let accumulate (into : snap) (d : snap) =
  Hashtbl.iter
    (fun k v ->
      Hashtbl.replace into k (v +. Option.value ~default:0. (Hashtbl.find_opt into k)))
    d

let get (d : snap) k = Option.value ~default:0. (Hashtbl.find_opt d k)
let ratio a b = if b > 0. then a /. b else 0.

(* The cluster's shape as [compute] needs it, in plain data so that it
   can cross a process boundary. *)
type topology = {
  nodes : int;
  rx_queues : int array;
  bits_per_ns : float;
}

let topology c =
  {
    nodes = Cluster.size c;
    rx_queues = Array.init (Cluster.size c) (fun i -> Tigon.rx_queues (Cluster.nic c i));
    bits_per_ns = (Cluster.model c).Uls_host.Cost_model.link_bits_per_ns;
  }

(* Program-layer metrics of one measured phase. [ops] is the phase's
   attempted operations; [serving] the nodes whose CPU the workload
   loads (server, cells or source); [host_s] its host seconds. Values derived from host time or the
   GC are listed in [host_only]: they are the only ones that may differ
   between two runs of one seed. *)
let compute (topo : topology) ~(d : snap) ~ops ~serving ~host_s =
  let g = get d in
  let n = topo.nodes in
  let elapsed = g "vtime" in
  let ops = float_of_int ops in
  let nodes = List.init n Fun.id in
  let queues kind i =
    if kind = "rx" then float_of_int topo.rx_queues.(i) else 1.
  in
  let busy kind i =
    ratio (g (Printf.sprintf "nic/%d/%s/busy" i kind)) (elapsed *. queues kind i)
  in
  (* The busiest NIC for one resource, and its waiting time per job:
     the bottleneck, not an average diluted by idle client NICs. *)
  let nic kind =
    let i =
      List.fold_left (fun b i -> if busy kind i > busy kind b then i else b) 0 nodes
    in
    let k = Printf.sprintf "nic/%d/%s/" i kind in
    (busy kind i, ratio (g (k ^ "wait")) (g (k ^ "jobs")) /. 1e3)
  in
  let rx_busy, rx_wait = nic "rx"
  and tx_busy, tx_wait = nic "tx"
  and dma_busy, dma_wait = nic "dma" in
  let bits_per_ns = topo.bits_per_ns in
  let link_util =
    Hashtbl.fold
      (fun k v acc ->
        if String.length k > 5 && String.sub k 0 5 = "link/" then
          Float.max acc (ratio (v *. 8.) (elapsed *. bits_per_ns))
        else acc)
      d 0.
  in
  let cpu =
    ratio
      (List.fold_left
         (fun acc i -> acc +. ratio (g (Printf.sprintf "node/%d/busy" i)) elapsed)
         0. serving)
      (float_of_int (List.length serving))
  in
  let hmean name = ratio (g ("h/" ^ name ^ "/sum")) (g ("h/" ^ name ^ "/count")) in
  let counter name = g ("c/" ^ name) in
  [
    ("engine.events_per_op", ratio (g "events") ops);
    ("engine.host_ns_per_event", ratio (host_s *. 1e9) (g "events"));
    ("engine.minor_words_per_event", ratio (g "minor_words") (g "events"));
    ("engine.major_gcs", g "major_gcs");
    ("link.busiest_util", link_util);
    ("switch.drops", g "switch/drops");
    ("nic.rx_busy_frac", rx_busy);
    ("nic.rx_wait_us_per_job", rx_wait);
    ("nic.tx_busy_frac", tx_busy);
    ("nic.tx_wait_us_per_job", tx_wait);
    ("nic.dma_busy_frac", dma_busy);
    ("nic.dma_wait_us_per_job", dma_wait);
    ( "nic.match_descs_per_rx_frame",
      ratio (g "h/nic.match_walk_descs/sum") (counter "nic.rx_frames") );
    ( "nic.doorbells_per_msg",
      ratio (counter "nic.doorbells") (counter "emp.messages_sent") );
    ("emp.retransmit_ratio", ratio (counter "emp.frames_retransmitted") ops);
    ("emp.nacks_sent", counter "emp.nacks_sent");
    ("emp.drops_no_descriptor", counter "emp.drops_no_descriptor");
    ("emp.uq_hits_per_op", ratio (counter "emp.uq_hits") ops);
    ( "sub.credit_wait_us_per_write",
      ratio (g "h/sub.credit_wait_us/sum") (counter "sub.writes") );
    ("sub.acks_per_write", ratio (counter "sub.credit_acks_sent") (counter "sub.writes"));
    ("sub.rdvz_grant_wait_us_per_msg", hmean "sub.rdvz_grant_wait_us");
    ("sub.connect_retries", counter "sub.connect_retries");
    ("tcp.syscalls_per_req", ratio (counter "os.syscalls") ops);
    ("tcp.retransmits", counter "tcp.retransmits");
    ("ip.frames_per_interrupt", hmean "ip.frames_per_interrupt");
    ("host.cpu_busy_frac", cpu);
    ("server.wakeups_per_req", ratio (counter "server.evq.wakeups") ops);
    ("server.spurious_wakeups", counter "server.evq.spurious");
    ("server.shed", counter "server.sched.shed");
    ("fabric.probes_failed", counter "fabric.probes.failed");
  ]

let host_only =
  [
    "engine.host_ns_per_event";
    "engine.minor_words_per_event";
    "engine.major_gcs";
    "trace.host_overhead_ratio";
  ]

(* Every NIC resource's and host CPU's busy time: tracing must leave
   these untouched, since it may not perturb the virtual timeline. *)
let busy_times (s : snap) =
  Hashtbl.fold
    (fun k v acc ->
      let n = String.length k in
      if n > 5 && String.sub k (n - 5) 5 = "/busy" then (k, v) :: acc else acc)
    s []
  |> List.sort compare
