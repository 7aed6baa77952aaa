(** The paper's evaluation (§7) and the ablations DESIGN.md calls out,
    one {!Table.t} each. Most tables are sweeps, a row per swept value
    and a column per stack or knob, and are written as one [sweep]
    spec; Fig 13, [connect], [abl-cpu], [abl-pincache] and [breakdown]
    have other shapes and keep their own bodies. [all] runs them all. *)

open Uls_engine
module Opt = Uls_substrate.Options

let ds_base = Opt.data_streaming
let ds_da = { Opt.data_streaming with delayed_acks = true }
let ds_full = Opt.data_streaming_enhanced
let dg = Opt.datagram

let emp = `Emp Uls_emp.Endpoint.default_config
let latency_sizes = [ 4; 16; 64; 256; 1024; 4096 ]

(* One table over a sweep: a row per value of [values] (the quick list
   under [~quick], else the full one), printed by [show] under header
   [param], then one cell per named column. *)
let sweep ~id ~title ~param ~show ~values:(quick_values, full_values)
    ~columns ~notes ?(quick = false) () =
  {
    Table.id;
    title;
    header = param :: List.map fst columns;
    rows =
      List.map
        (fun v -> show v :: List.map (fun (_, cell) -> cell ~quick v) columns)
        (if quick then quick_values else full_values);
    notes;
  }

let both values = (values, values)
let iters ~quick = if quick then 10 else 30

(* A ping-pong latency column: one-way us for a message size. *)
let latency kind ~quick size =
  Table.cell_f2 (Microbench.ping_pong ~iters:(iters ~quick) ~kind ~size ())

(* The same at 4 bytes, for a stack built from the swept value. *)
let latency4 kind_of ~quick v = latency (kind_of v) ~quick 4

(* A stream that hung or delivered wrong bytes has no figure to report:
   fail the driver, as [matmul_run] does on a wrong product. *)
let verified_stream ~total ~kind =
  let r = Microbench.stream ~total ~kind ~msg:65_536 () in
  if not r.Microbench.completed then
    failwith (Cluster.stack_name kind ^ " stream: hung")
  else if not r.Microbench.intact then
    failwith (Cluster.stack_name kind ^ " stream: corrupted data");
  r

let stream_total ~quick = if quick then 4 * 1024 * 1024 else 16 * 1024 * 1024

(* ---------------------------------------------------------------------- *)
(* Figure 11: substrate latency vs raw EMP, per enhancement              *)
(* ---------------------------------------------------------------------- *)

let fig11 =
  sweep ~id:"fig11"
    ~title:"Micro-benchmark latency (us, one-way) vs message size"
    ~param:"size(B)" ~show:Table.cell_i
    ~values:([ 4; 256; 4096 ], latency_sizes)
    ~columns:
      [
        ("EMP", latency emp);
        ("DG", latency (`Sub dg));
        ("DS", latency (`Sub ds_base));
        ("DS_DA", latency (`Sub ds_da));
        ("DS_DA_UQ", latency (`Sub ds_full));
      ]
    ~notes:
      [
        "paper: EMP ~28us, DG ~28.5us, DS_DA_UQ ~37us at 4 bytes";
        "DS > DS_DA > DS_DA_UQ ordering comes from ack-descriptor tag-match walks";
      ]

(* ---------------------------------------------------------------------- *)
(* Figure 12: latency vs credit size under delayed acks                   *)
(* ---------------------------------------------------------------------- *)

let fig12 =
  sweep ~id:"fig12"
    ~title:"4-byte DS latency (us) vs credit size, delayed acks on/off"
    ~param:"credits" ~show:Table.cell_i
    ~values:([ 1; 8; 32 ], [ 1; 2; 4; 8; 16; 32 ])
    ~columns:
      [
        ("DS", latency4 (fun credits -> `Sub { ds_base with Opt.credits }));
        ("DS_DA", latency4 (fun credits -> `Sub { ds_da with Opt.credits }));
      ]
    ~notes:
      [
        "paper: latency drops with credit size because acks (and their ~550ns";
        "per-descriptor tag-match walks) amortise over N/2 messages";
      ]

(* ---------------------------------------------------------------------- *)
(* Figure 13: latency + bandwidth vs kernel TCP                           *)
(* ---------------------------------------------------------------------- *)

let tcp_default = Uls_tcp.Config.default
let tcp_tuned = Uls_tcp.Config.with_buffers 262_144

let fig13 ?(quick = false) () =
  let iters = iters ~quick in
  let sizes = if quick then [ 4; 1024 ] else latency_sizes in
  let lat_rows =
    List.map
      (fun size ->
        let tcp = Microbench.ping_pong ~iters ~kind:(`Tcp tcp_default) ~size () in
        let ds = Microbench.ping_pong ~iters ~kind:(`Sub ds_full) ~size () in
        let dgl = Microbench.ping_pong ~iters ~kind:(`Sub dg) ~size () in
        [
          "lat " ^ Table.cell_i size;
          Table.cell_f2 tcp;
          Table.cell_f2 ds;
          Table.cell_f2 dgl;
          Table.cell_f2 (tcp /. ds);
        ])
      sizes
  in
  let total = stream_total ~quick in
  let bw_kinds =
    [
      ("bw TCP-16K", `Tcp tcp_default);
      ("bw TCP-tuned", `Tcp tcp_tuned);
      ("bw DS_DA_UQ", `Sub ds_full);
      ("bw DG", `Sub dg);
      ("bw EMP", emp);
    ]
  in
  let bw_rows =
    List.map
      (fun (name, kind) ->
        let r = verified_stream ~total ~kind in
        [ name; Table.cell_f r.Microbench.goodput_mbps; "-"; "-"; "-" ])
      bw_kinds
  in
  {
    Table.id = "fig13";
    title =
      "Latency (us) TCP vs substrate, and peak bandwidth (Mb/s, 64KB messages)";
    header = [ "metric"; "TCP"; "DS_DA_UQ"; "DG"; "TCP/DS" ];
    rows = lat_rows @ bw_rows;
    notes =
      [
        "paper: TCP 120us vs 37us (4.2x) / 28.5us (3.4x stated for DS) at 4B";
        "paper: TCP 340 Mb/s at default 16KB buffers, ~550 tuned; substrate >840";
      ];
  }

(* ---------------------------------------------------------------------- *)
(* Figure 14: ftp bandwidth                                               *)
(* ---------------------------------------------------------------------- *)

let app_stacks : (string * Cluster.stream) list =
  [ ("TCP", `Tcp tcp_default); ("DS", `Sub ds_full); ("DG", `Sub dg) ]

(* One column per application stack, each cell [run stack v]. *)
let per_stack stacks run =
  List.map (fun (name, st) -> (name, fun ~quick v -> run ~quick st v)) stacks

let ftp_run stack ~file_size =
  let c = Cluster.create ~n:2 () in
  let api = Cluster.api c stack in
  let sim = Cluster.sim c in
  let server_disk = Uls_apps.Ramdisk.create (Cluster.node c 1) in
  let client_disk = Uls_apps.Ramdisk.create (Cluster.node c 0) in
  Uls_apps.Ramdisk.create_random server_disk ~name:"data" ~size:file_size ~seed:42;
  let result = ref 0. in
  Sim.spawn sim ~name:"ftp-server"
    (Uls_apps.Ftp.server sim api ~node:1 ~port:21 ~disk:server_disk);
  Sim.spawn sim ~name:"ftp-client" (fun () ->
      Sim.delay sim (Time.us 100);
      let tr =
        Uls_apps.Ftp.fetch sim api ~node:0 ~server:{ node = 1; port = 21 }
          ~file:"data" ~disk:client_disk
      in
      result :=
        Time.mbps ~bytes_transferred:tr.Uls_apps.Ftp.bytes
          ~elapsed:tr.Uls_apps.Ftp.elapsed;
      Sim.stop sim);
  ignore (Cluster.run c);
  !result

let fig14 =
  sweep ~id:"fig14"
    ~title:"FTP transfer bandwidth (Mb/s) vs file size (RAM disks)"
    ~param:"file(B)" ~show:Table.cell_i
    ~values:
      ( [ 262_144; 4_194_304 ],
        [ 65_536; 262_144; 1_048_576; 4_194_304; 16_777_216 ] )
    ~columns:
      (per_stack app_stacks (fun ~quick:_ st file_size ->
           Table.cell_f (ftp_run st ~file_size)))
    ~notes:
      [
        "paper: substrate roughly 2x TCP; file-system overhead keeps both";
        "below the raw socket bandwidth";
      ]

(* ---------------------------------------------------------------------- *)
(* Figures 15/16: web server response time, HTTP/1.0 and HTTP/1.1        *)
(* ---------------------------------------------------------------------- *)

let web_stacks : (string * Cluster.stream) list =
  (* Paper §7.4 uses credit size 4 for the web server workload. *)
  [
    ("TCP", `Tcp tcp_default);
    ("DS", `Sub { ds_full with Opt.credits = 4 });
    ("DG", `Sub { dg with Opt.credits = 4 });
  ]

let web_run stack ~response_size ~requests_per_conn ~connections =
  let c = Cluster.create ~n:4 () in
  let api = Cluster.api c stack in
  let sim = Cluster.sim c in
  Sim.spawn sim ~name:"web-server"
    (Uls_apps.Http.server sim api ~node:0 ~port:80 ~response_size
       ~requests_per_conn);
  let means = Array.make 3 0. in
  let finished = ref 0 in
  for client = 1 to 3 do
    Sim.spawn sim ~name:(Printf.sprintf "web-client-%d" client) (fun () ->
        Sim.delay sim (Time.us (100 * client));
        let r =
          Uls_apps.Http.client sim api ~node:client
            ~server:{ node = 0; port = 80 } ~response_size ~requests_per_conn
            ~connections
        in
        means.(client - 1) <- r.Uls_apps.Http.mean_response_time;
        incr finished;
        if !finished = 3 then Sim.stop sim)
  done;
  ignore (Cluster.run c);
  Array.fold_left ( +. ) 0. means /. 3. /. 1_000.

let web_table ~id ~requests_per_conn =
  sweep ~id
    ~title:
      (Printf.sprintf
         "Web server mean response time (us), %d request(s) per connection, 3 clients"
         requests_per_conn)
    ~param:"resp(B)" ~show:Table.cell_i
    ~values:([ 4; 1024 ], [ 4; 64; 256; 1024; 4096; 8192 ])
    ~columns:
      (per_stack web_stacks (fun ~quick st response_size ->
           Table.cell_f
             (web_run st ~response_size ~requests_per_conn
                ~connections:(if quick then 10 else 40))))
    ~notes:
      [
        "paper: up to 6x improvement under HTTP/1.0 (connection setup";
        "dominates TCP); HTTP/1.1 (8 req/conn) narrows but keeps the win";
      ]

let fig15 =
  web_table ~id:"fig15"
    ~requests_per_conn:Uls_apps.Http.http10_requests_per_conn

let fig16 =
  web_table ~id:"fig16"
    ~requests_per_conn:Uls_apps.Http.http11_requests_per_conn

(* ---------------------------------------------------------------------- *)
(* Figure 17: matrix multiplication                                       *)
(* ---------------------------------------------------------------------- *)

let matmul_run stack ~n =
  let c = Cluster.create ~n:4 () in
  let api = Cluster.api c stack in
  let sim = Cluster.sim c in
  let a = Uls_apps.Matmul.random_matrix ~seed:1 ~n in
  let b = Uls_apps.Matmul.random_matrix ~seed:2 ~n in
  let result = ref None in
  for w = 1 to 3 do
    Sim.spawn sim ~name:(Printf.sprintf "mm-worker-%d" w) (fun () ->
        Sim.delay sim (Time.us (50 * w));
        Uls_apps.Matmul.worker sim api ~node:w ~master:{ node = 0; port = 90 } ())
  done;
  Sim.spawn sim ~name:"mm-master" (fun () ->
      let r = Uls_apps.Matmul.master sim api ~node:0 ~port:90 ~workers:3 ~a ~b in
      result := Some r;
      Sim.stop sim);
  ignore (Cluster.run c);
  match !result with
  | Some r ->
    let reference = Uls_apps.Matmul.multiply_seq a b in
    if not (Uls_apps.Matmul.matrices_equal ~eps:1e-6 reference r.Uls_apps.Matmul.product)
    then failwith "matmul: distributed result mismatch";
    Time.to_ms r.Uls_apps.Matmul.elapsed
  | None -> failwith "matmul: no result"

let fig17 =
  sweep ~id:"fig17"
    ~title:"Matrix multiplication time (ms), 4 nodes (select()-based master)"
    ~param:"N" ~show:Table.cell_i
    ~values:([ 64; 128 ], [ 64; 128; 256 ])
    ~columns:
      (per_stack app_stacks (fun ~quick:_ st n ->
           Table.cell_f2 (matmul_run st ~n)))
    ~notes:[ "results verified against the sequential reference multiply" ]

(* ---------------------------------------------------------------------- *)
(* Text results of §7.2: connection time                                  *)
(* ---------------------------------------------------------------------- *)

let connect_table ?quick:_ () =
  let kinds =
    [
      ("TCP", `Tcp tcp_default);
      ("substrate DS", `Sub ds_full);
      ("substrate DG", `Sub dg);
    ]
  in
  let rows =
    List.map
      (fun (name, kind) ->
        [ name; Table.cell_f2 (Microbench.connect_time ~kind ()) ])
      kinds
  in
  {
    Table.id = "connect";
    title = "connect() time (us)";
    header = [ "stack"; "us" ];
    rows;
    notes = [ "paper: TCP connection setup is typically 200-250us (7.4)" ];
  }

(* ---------------------------------------------------------------------- *)
(* Ablations (design choices of 5-6)                                      *)
(* ---------------------------------------------------------------------- *)

(* Eager+credits (the enhanced DS default) against one variant of it,
   by message size. *)
let eager_vs ~id ~title ~eager ~variant:(name, opts) ~sizes ~notes =
  sweep ~id ~title ~param:"size(B)" ~show:Table.cell_i ~values:(both sizes)
    ~columns:[ (eager, latency (`Sub ds_full)); (name, latency (`Sub opts)) ]
    ~notes

let ablation_unexpected =
  eager_vs ~id:"abl-unexpected"
    ~title:"Unexpected-message scheme: eager+credits vs rendezvous (us)"
    ~eager:"eager"
    ~variant:("rendezvous", { ds_full with Opt.scheme = Opt.Rendezvous })
    ~sizes:[ 4; 1024; 4096 ]
    ~notes:[ "5.2: rendezvous adds a request/grant synchronisation to every send" ]

let ablation_comm_thread =
  eager_vs ~id:"abl-commthread"
    ~title:"Separate communication thread vs eager+credits (us)"
    ~eager:"eager"
    ~variant:("comm thread", { ds_full with Opt.scheme = Opt.Comm_thread })
    ~sizes:[ 4; 1024; 4096 ]
    ~notes:
      [
        "5.2: the polling-thread synchronisation costs ~20us per message,";
        "which is why the paper rejected this alternative";
      ]

let ablation_block_send =
  eager_vs ~id:"abl-blocksend"
    ~title:"Credit return policy: post-2N vs blocking send (us)"
    ~eager:"post 2N"
    ~variant:("block send", { ds_full with Opt.block_send = true })
    ~sizes:[ 4; 1024 ]
    ~notes:[ "6.1: blocking every write on its ack costs a round trip per send" ]

let ablation_cpu_util ?(quick = false) () =
  (* Host CPU time consumed while streaming (the NIC-driven design's
     selling point: the host does almost nothing). *)
  let total = stream_total ~quick in
  let row name kind =
    let r = verified_stream ~total ~kind in
    [
      name;
      Table.cell_f r.Microbench.tx_busy_ms;
      Table.cell_f r.Microbench.rx_busy_ms;
      Table.cell_f
        (100. *. (r.Microbench.tx_busy_ms +. r.Microbench.rx_busy_ms)
        /. (2. *. r.Microbench.elapsed_ms));
    ]
  in
  {
    Table.id = "abl-cpu";
    title =
      Printf.sprintf "Host CPU time streaming %d MB (ms busy; %% of 2 cpus)"
        (total / 1024 / 1024);
    header = [ "stack"; "sender ms"; "receiver ms"; "cpu %" ];
    rows = [ row "TCP (tuned)" (`Tcp tcp_tuned); row "substrate DS" (`Sub ds_full) ];
    notes =
      [
        "EMP is NIC-driven: the host only posts descriptors and copies";
        "out of credit buffers, while kernel TCP burns CPU on interrupts,";
        "checksums-era processing and copies (2)";
      ];
  }

(* Kernel UDP ping-pong: one-way us for a datagram size. *)
let udp_latency ~quick size =
  let iters = iters ~quick in
  let c = Cluster.create ~n:2 () in
  let stack = Cluster.tcp c in
  let sim = Cluster.sim c in
  let k0 = Uls_tcp.Tcp_stack.kernel stack 0
  and k1 = Uls_tcp.Tcp_stack.kernel stack 1 in
  let payload = String.make size 'u' in
  let one_way = ref 0. in
  Sim.spawn sim ~name:"udp-pong" (fun () ->
      let sock = Uls_tcp.Kernel.udp_bind k1 ~port:53 in
      for _ = 1 to iters + 3 do
        let from, data = Uls_tcp.Kernel.udp_recvfrom k1 sock in
        Uls_tcp.Kernel.udp_sendto k1 sock ~dst:from data
      done);
  Sim.spawn sim ~name:"udp-ping" (fun () ->
      let sock = Uls_tcp.Kernel.udp_bind k0 ~port:1000 in
      let sum = ref 0 in
      for i = 1 to iters + 3 do
        let t0 = Sim.now sim in
        Uls_tcp.Kernel.udp_sendto k0 sock ~dst:{ node = 1; port = 53 } payload;
        ignore (Uls_tcp.Kernel.udp_recvfrom k0 sock);
        if i > 3 then sum := !sum + (Sim.now sim - t0)
      done;
      one_way := float_of_int !sum /. float_of_int iters /. 2.);
  ignore (Cluster.run c);
  !one_way /. 1_000.

let ablation_udp =
  sweep ~id:"abl-udp"
    ~title:"Kernel UDP vs substrate datagram sockets (us, one-way)"
    ~param:"size(B)" ~show:Table.cell_i ~values:(both [ 4; 1024 ])
    ~columns:
      [
        ( "kernel UDP",
          fun ~quick size -> Table.cell_f2 (udp_latency ~quick size) );
        ("substrate DG", latency (`Sub dg));
      ]
    ~notes:
      [ "even without TCP's connection machinery, the kernel datagram path";
        "keeps the syscall/interrupt/copy costs the substrate avoids" ]

let ablation_piggyback =
  sweep ~id:"abl-piggyback"
    ~title:"Piggy-backed credit acks, 4B DS ping-pong (us)"
    ~param:"piggyback"
    ~show:(fun on -> if on then "on" else "off")
    ~values:(both [ false; true ])
    ~columns:
      [ ("us", latency4 (fun piggyback -> `Sub { ds_base with Opt.piggyback })) ]
    ~notes:[ "6.1: reverse-direction data carries the credit return for free" ]

let ablation_uq =
  sweep ~id:"abl-uq"
    ~title:"EMP unexpected queue for ack buffers: 4B DS_DA latency (us)"
    ~param:"credits" ~show:Table.cell_i
    ~values:([ 4; 32 ], [ 4; 8; 16; 32 ])
    ~columns:
      [
        ("UQ off", latency4 (fun credits -> `Sub { ds_da with Opt.credits }));
        ( "UQ on",
          latency4 (fun credits ->
              `Sub { ds_da with Opt.credits; unexpected_queue = true }) );
      ]
    ~notes:[ "6.4: ack descriptors out of the match list shorten data walks" ]

let ablation_pincache ?quick:_ () =
  (* First message pays translate-and-pin; steady state hits the cache. *)
  let run () =
    let c = Cluster.create ~n:2 () in
    let e0 = Cluster.emp c 0 and e1 = Cluster.emp c 1 in
    let sim = Cluster.sim c in
    let first = ref 0. and steady = ref 0. in
    Sim.spawn sim ~name:"pong" (fun () ->
        for _ = 1 to 20 do
          let buf = Uls_host.Memory.alloc 4096 in
          let r = Uls_emp.Endpoint.post_recv e1 ~src:0 ~tag:7 buf ~off:0 ~len:4096 in
          ignore (Uls_emp.Endpoint.wait_recv e1 r)
        done);
    Sim.spawn sim ~name:"ping" (fun () ->
        let reused = Uls_host.Memory.alloc 4096 in
        for i = 1 to 20 do
          let t0 = Sim.now sim in
          let region =
            if i = 1 then Uls_host.Memory.alloc 4096 else reused
          in
          let s = Uls_emp.Endpoint.post_send e0 ~dst:1 ~tag:7 region ~off:0 ~len:4096 in
          Uls_emp.Endpoint.wait_send e0 s;
          let dt = float_of_int (Sim.now sim - t0) /. 1_000. in
          if i = 2 then first := dt (* the reused buffer's first (miss) *)
          else if i > 2 then steady := dt
        done);
    ignore (Cluster.run c);
    (!first, !steady)
  in
  let miss, hit = run () in
  {
    Table.id = "abl-pincache";
    title = "Translation cache: 4KB send completion time (us)";
    header = [ "case"; "us" ];
    rows = [ [ "first use (pin)"; Table.cell_f2 miss ]; [ "cached"; Table.cell_f2 hit ] ];
    notes = [ "2: descriptor posts bypass the OS once the area is pinned" ];
  }

let ablation_ackwindow =
  sweep ~id:"abl-ackwindow"
    ~title:"EMP reliability ack window vs bandwidth (Mb/s)"
    ~param:"ack window" ~show:Table.cell_i
    ~values:([ 1; 4 ], [ 1; 2; 4; 8; 16 ])
    ~columns:
      [
        ( "Mb/s",
          fun ~quick ack_window ->
            let kind =
              `Emp { Uls_emp.Endpoint.default_config with ack_window }
            in
            let r = verified_stream ~total:(stream_total ~quick) ~kind in
            Table.cell_f r.Microbench.goodput_mbps );
      ]
    ~notes:[ "2: EMP acks every 4 frames; smaller windows cost NIC ack work" ]

(* ---------------------------------------------------------------------- *)
(* Per-layer latency breakdown from the structured trace                  *)
(* ---------------------------------------------------------------------- *)

let breakdown ?(quick = false) () =
  let iters = iters ~quick in
  let kinds =
    [
      ("EMP", emp);
      ("DS_DA_UQ", `Sub ds_full);
      ("TCP", `Tcp tcp_default);
    ]
  in
  let rows =
    List.concat_map
      (fun (name, kind) ->
        let trace = ref None in
        let lat =
          Microbench.ping_pong ~iters ~kind ~size:4 ()
            ~observe:(fun sim ->
              let tr = Trace.for_sim sim in
              Trace.enable tr;
              trace := Some tr)
        in
        let totals =
          List.sort
            (fun (_, _, _, a) (_, _, _, b) -> compare b a)
            (Trace.span_totals (Option.get !trace))
        in
        List.filteri (fun i _ -> i < 5) totals
        |> List.mapi (fun i (layer, sname, count, total_ns) ->
               let total_us = float_of_int total_ns /. 1_000. in
               [
                 (if i = 0 then Printf.sprintf "%s (%s us)" name (Table.cell_f2 lat)
                  else "");
                 Trace.layer_name layer ^ "/" ^ sname;
                 Table.cell_i count;
                 Table.cell_f2 total_us;
                 Table.cell_f2 (total_us /. float_of_int iters);
               ]))
      kinds
  in
  {
    Table.id = "breakdown";
    title = "Per-layer latency breakdown, 4B ping-pong (top trace spans)";
    header = [ "stack (one-way us)"; "layer/span"; "count"; "total(us)"; "us/iter" ];
    rows;
    notes =
      [
        "span totals include time spent blocked inside the span (e.g. a";
        "sub.read span covers the wait for the reply), so they bound, not";
        "partition, the round trip; counts cover warmup iterations too";
      ];
  }

(* ---------------------------------------------------------------------- *)
(* Collectives: barrier latency vs node count, bcast/allreduce bandwidth  *)
(* ---------------------------------------------------------------------- *)

module Coll = Uls_collective.Group

let coll_barrier =
  sweep ~id:"coll-barrier"
    ~title:"Barrier latency (us) vs node count, per algorithm"
    ~param:"nodes" ~show:Table.cell_i
    ~values:([ 2; 8 ], [ 2; 4; 8; 16 ])
    ~columns:
      (List.map
         (fun alg ->
           ( Coll.algorithm_name alg,
             fun ~quick nodes ->
               Table.cell_f2
                 (Microbench.barrier_latency
                    ~iters:(if quick then 4 else 10)
                    ~alg ~nodes ()) ))
         [
           Coll.Linear; Coll.Binomial_tree; Coll.Recursive_doubling;
           Coll.Nic_forward;
         ])
    ~notes:
      [
        "linear grows O(N); binomial and recursive-doubling grow O(log N)";
        "nic-forward combines arrivals on the Tigon, skipping 2(N-1) host wakeups";
      ]

let coll_bw =
  let nodes = 8 in
  let bw op alg ~quick size =
    Table.cell_f
      (Microbench.coll_bandwidth
         ~iters:(if quick then 3 else 5)
         ~op ~alg ~nodes ~size ())
  in
  sweep ~id:"coll-bw"
    ~title:
      (Printf.sprintf
         "Collective bandwidth (Mb/s, %d nodes) vs message size" nodes)
    ~param:"size(B)" ~show:Table.cell_i
    ~values:([ 8192; 65_536 ], [ 1024; 8192; 65_536; 524_288 ])
    ~columns:
      [
        ("bcast-lin", bw `Bcast Coll.Linear);
        ("bcast-bin", bw `Bcast Coll.Binomial_tree);
        ("bcast-nic", bw `Bcast Coll.Nic_forward);
        ("allred-lin", bw `Allreduce Coll.Linear);
        ("allred-rd", bw `Allreduce Coll.Recursive_doubling);
      ]
    ~notes:
      [
        "bcast-nic re-frames on the NIC for single-frame payloads, else falls back to binomial";
        "allred-rd is the MPICH recursive-doubling exchange (reduce-scatter flavoured)";
      ]

(* ---------------------------------------------------------------------- *)

let by_id =
  [
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("fig15", fig15);
    ("fig16", fig16);
    ("fig17", fig17);
    ("connect", connect_table);
    ("abl-unexpected", ablation_unexpected);
    ("abl-commthread", ablation_comm_thread);
    ("abl-blocksend", ablation_block_send);
    ("abl-piggyback", ablation_piggyback);
    ("abl-uq", ablation_uq);
    ("abl-pincache", ablation_pincache);
    ("abl-ackwindow", ablation_ackwindow);
    ("abl-cpu", ablation_cpu_util);
    ("abl-udp", ablation_udp);
    ("breakdown", breakdown);
    ("coll-barrier", coll_barrier);
    ("coll-bw", coll_bw);
  ]

let all ?quick () = List.map (fun (_, run) -> run ?quick ()) by_id
