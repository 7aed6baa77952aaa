(** One driver per table/figure of the paper's evaluation (§7), plus the
    ablation studies called out in DESIGN.md. Every driver returns a
    {!Table.t}; [all] runs the full evaluation. *)

open Uls_engine
module Opt = Uls_substrate.Options

let ds_base = Opt.data_streaming
let ds_da = { Opt.data_streaming with delayed_acks = true }
let ds_full = Opt.data_streaming_enhanced
let dg = Opt.datagram

let latency_sizes = [ 4; 16; 64; 256; 1024; 4096 ]

(* ---------------------------------------------------------------------- *)
(* Figure 11: substrate latency vs raw EMP, per enhancement              *)
(* ---------------------------------------------------------------------- *)

let fig11 ?(quick = false) () =
  let iters = if quick then 10 else 30 in
  let sizes = if quick then [ 4; 256; 4096 ] else latency_sizes in
  let kinds =
    [
      ("EMP", `Emp_raw);
      ("DG", `Sub dg);
      ("DS", `Sub ds_base);
      ("DS_DA", `Sub ds_da);
      ("DS_DA_UQ", `Sub ds_full);
    ]
  in
  let rows =
    List.map
      (fun size ->
        Table.cell_i size
        :: List.map
             (fun (_, kind) ->
               Table.cell_f2 (Microbench.ping_pong ~iters ~kind ~size ()))
             kinds)
      sizes
  in
  {
    Table.id = "fig11";
    title = "Micro-benchmark latency (us, one-way) vs message size";
    header = "size(B)" :: List.map fst kinds;
    rows;
    notes =
      [
        "paper: EMP ~28us, DG ~28.5us, DS_DA_UQ ~37us at 4 bytes";
        "DS > DS_DA > DS_DA_UQ ordering comes from ack-descriptor tag-match walks";
      ];
  }

(* ---------------------------------------------------------------------- *)
(* Figure 12: latency vs credit size under delayed acks                   *)
(* ---------------------------------------------------------------------- *)

let fig12 ?(quick = false) () =
  let iters = if quick then 10 else 30 in
  let credit_sizes = if quick then [ 1; 8; 32 ] else [ 1; 2; 4; 8; 16; 32 ] in
  let rows =
    List.map
      (fun credits ->
        let without =
          Microbench.ping_pong ~iters
            ~kind:(`Sub { ds_base with Opt.credits })
            ~size:4 ()
        in
        let with_da =
          Microbench.ping_pong ~iters
            ~kind:(`Sub { ds_da with Opt.credits })
            ~size:4 ()
        in
        [ Table.cell_i credits; Table.cell_f2 without; Table.cell_f2 with_da ])
      credit_sizes
  in
  {
    Table.id = "fig12";
    title = "4-byte DS latency (us) vs credit size, delayed acks on/off";
    header = [ "credits"; "DS"; "DS_DA" ];
    rows;
    notes =
      [
        "paper: latency drops with credit size because acks (and their ~550ns";
        "per-descriptor tag-match walks) amortise over N/2 messages";
      ];
  }

(* ---------------------------------------------------------------------- *)
(* Figure 13: latency + bandwidth vs kernel TCP                           *)
(* ---------------------------------------------------------------------- *)

let tcp_default = Uls_tcp.Config.default
let tcp_tuned = Uls_tcp.Config.(with_buffers default 262_144)

let fig13 ?(quick = false) () =
  let iters = if quick then 10 else 30 in
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
  let total = if quick then 4 * 1024 * 1024 else 16 * 1024 * 1024 in
  let bw_kinds =
    [
      ("bw TCP-16K", `Tcp tcp_default);
      ("bw TCP-tuned", `Tcp tcp_tuned);
      ("bw DS_DA_UQ", `Sub ds_full);
      ("bw DG", `Sub dg);
      ("bw EMP", `Emp_raw);
    ]
  in
  let bw_rows =
    List.map
      (fun (name, kind) ->
        [ name; Table.cell_f (Microbench.bandwidth ~total ~kind ~msg:65536 ()); "-"; "-"; "-" ])
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

let fig14 ?(quick = false) () =
  let sizes =
    if quick then [ 262_144; 4_194_304 ]
    else [ 65_536; 262_144; 1_048_576; 4_194_304; 16_777_216 ]
  in
  let rows =
    List.map
      (fun size ->
        Table.cell_i size
        :: List.map
             (fun (_, st) -> Table.cell_f (ftp_run st ~file_size:size))
             app_stacks)
      sizes
  in
  {
    Table.id = "fig14";
    title = "FTP transfer bandwidth (Mb/s) vs file size (RAM disks)";
    header = "file(B)" :: List.map fst app_stacks;
    rows;
    notes =
      [
        "paper: substrate roughly 2x TCP; file-system overhead keeps both";
        "below the raw socket bandwidth";
      ];
  }

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

let web_table ~id ~requests_per_conn ?(quick = false) () =
  let sizes = if quick then [ 4; 1024 ] else [ 4; 64; 256; 1024; 4096; 8192 ] in
  let connections = if quick then 10 else 40 in
  let rows =
    List.map
      (fun response_size ->
        Table.cell_i response_size
        :: List.map
             (fun (_, st) ->
               Table.cell_f
                 (web_run st ~response_size ~requests_per_conn
                    ~connections))
             web_stacks)
      sizes
  in
  {
    Table.id;
    title =
      Printf.sprintf
        "Web server mean response time (us), %d request(s) per connection, 3 clients"
        requests_per_conn;
    header = "resp(B)" :: List.map fst web_stacks;
    rows;
    notes =
      [
        "paper: up to 6x improvement under HTTP/1.0 (connection setup";
        "dominates TCP); HTTP/1.1 (8 req/conn) narrows but keeps the win";
      ];
  }

let fig15 ?quick () =
  web_table ~id:"fig15"
    ~requests_per_conn:Uls_apps.Http.http10_requests_per_conn ?quick ()

let fig16 ?quick () =
  web_table ~id:"fig16"
    ~requests_per_conn:Uls_apps.Http.http11_requests_per_conn ?quick ()

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

let fig17 ?(quick = false) () =
  let ns = if quick then [ 64; 128 ] else [ 64; 128; 256 ] in
  let rows =
    List.map
      (fun n ->
        Table.cell_i n
        :: List.map (fun (_, st) -> Table.cell_f2 (matmul_run st ~n)) app_stacks)
      ns
  in
  {
    Table.id = "fig17";
    title = "Matrix multiplication time (ms), 4 nodes (select()-based master)";
    header = "N" :: List.map fst app_stacks;
    rows;
    notes =
      [ "results verified against the sequential reference multiply" ];
  }

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

let ablation_unexpected ?(quick = false) () =
  let iters = if quick then 10 else 30 in
  let rows =
    List.map
      (fun size ->
        let eager =
          Microbench.ping_pong ~iters ~kind:(`Sub ds_full) ~size ()
        in
        let rdvz =
          Microbench.ping_pong ~iters
            ~kind:(`Sub { ds_full with Opt.scheme = Opt.Rendezvous })
            ~size ()
        in
        [ Table.cell_i size; Table.cell_f2 eager; Table.cell_f2 rdvz ])
      [ 4; 1024; 4096 ]
  in
  {
    Table.id = "abl-unexpected";
    title = "Unexpected-message scheme: eager+credits vs rendezvous (us)";
    header = [ "size(B)"; "eager"; "rendezvous" ];
    rows;
    notes = [ "5.2: rendezvous adds a request/grant synchronisation to every send" ];
  }

(* Stream [total] bytes over an already-built cluster/api (used by the
   CPU-utilisation ablation, which inspects busy counters afterwards). *)
let run_stream c api sim ~total =
  let msg = 65_536 in
  let count = max 1 (total / msg) in
  Sim.spawn sim ~name:"sink" (fun () ->
      let l = api.Uls_api.Sockets_api.listen ~node:1 ~port:99 ~backlog:2 in
      let s, _ = l.accept () in
      let goal = msg * count in
      let rec drain got =
        if got < goal then begin
          let chunk = s.recv 65_536 in
          if chunk <> "" then drain (got + String.length chunk)
        end
      in
      drain 0;
      s.send "k";
      s.close ());
  Sim.spawn sim ~name:"src" (fun () ->
      Sim.delay sim (Uls_engine.Time.us 50);
      let s = api.Uls_api.Sockets_api.connect ~node:0 { node = 1; port = 99 } in
      let payload = String.make msg 'y' in
      for _ = 1 to count do
        s.send payload
      done;
      ignore (s.recv 1);
      s.close ();
      Sim.stop sim);
  ignore (Cluster.run c)

let ablation_comm_thread ?(quick = false) () =
  let iters = if quick then 10 else 30 in
  let rows =
    List.map
      (fun size ->
        let eager =
          Microbench.ping_pong ~iters ~kind:(`Sub ds_full) ~size ()
        in
        let thread =
          Microbench.ping_pong ~iters
            ~kind:(`Sub { ds_full with Opt.scheme = Opt.Comm_thread })
            ~size ()
        in
        [ Table.cell_i size; Table.cell_f2 eager; Table.cell_f2 thread ])
      [ 4; 1024; 4096 ]
  in
  {
    Table.id = "abl-commthread";
    title = "Separate communication thread vs eager+credits (us)";
    header = [ "size(B)"; "eager"; "comm thread" ];
    rows;
    notes =
      [
        "5.2: the polling-thread synchronisation costs ~20us per message,";
        "which is why the paper rejected this alternative";
      ];
  }

let ablation_block_send ?(quick = false) () =
  let iters = if quick then 10 else 30 in
  let rows =
    List.map
      (fun size ->
        let normal =
          Microbench.ping_pong ~iters ~kind:(`Sub ds_full) ~size ()
        in
        let blocking =
          Microbench.ping_pong ~iters
            ~kind:(`Sub { ds_full with Opt.block_send = true })
            ~size ()
        in
        [ Table.cell_i size; Table.cell_f2 normal; Table.cell_f2 blocking ])
      [ 4; 1024 ]
  in
  {
    Table.id = "abl-blocksend";
    title = "Credit return policy: post-2N vs blocking send (us)";
    header = [ "size(B)"; "post 2N"; "block send" ];
    rows;
    notes =
      [ "6.1: blocking every write on its ack costs a round trip per send" ];
  }

let ablation_cpu_util ?(quick = false) () =
  (* Host CPU time consumed while streaming (the NIC-driven design's
     selling point: the host does almost nothing). *)
  let total = if quick then 4 * 1024 * 1024 else 16 * 1024 * 1024 in
  let stream_tcp () =
    let c = Cluster.create ~n:2 () in
    let api = Cluster.tcp_api ~config:tcp_tuned c in
    let stack = Cluster.tcp c in
    let sim = Cluster.sim c in
    run_stream c api sim ~total;
    let kernel_busy i =
      Uls_engine.Resource.busy_time (Uls_tcp.Kernel.cpu (Uls_tcp.Tcp_stack.kernel stack i))
    in
    let app_busy i = Uls_host.Node.busy_time (Cluster.node c i) in
    (kernel_busy 0 + app_busy 0, kernel_busy 1 + app_busy 1, Sim.now sim)
  and stream_sub () =
    let c = Cluster.create ~n:2 () in
    let api = Cluster.substrate_api ~opts:ds_full c in
    let sim = Cluster.sim c in
    run_stream c api sim ~total;
    let app_busy i = Uls_host.Node.busy_time (Cluster.node c i) in
    (app_busy 0, app_busy 1, Sim.now sim)
  in
  let row name (tx, rx, elapsed) =
    [
      name;
      Table.cell_f (Uls_engine.Time.to_ms tx);
      Table.cell_f (Uls_engine.Time.to_ms rx);
      Table.cell_f
        (100. *. float_of_int (tx + rx) /. (2. *. float_of_int elapsed));
    ]
  in
  {
    Table.id = "abl-cpu";
    title =
      Printf.sprintf "Host CPU time streaming %d MB (ms busy; %% of 2 cpus)"
        (total / 1024 / 1024);
    header = [ "stack"; "sender ms"; "receiver ms"; "cpu %" ];
    rows = [ row "TCP (tuned)" (stream_tcp ()); row "substrate DS" (stream_sub ()) ];
    notes =
      [
        "EMP is NIC-driven: the host only posts descriptors and copies";
        "out of credit buffers, while kernel TCP burns CPU on interrupts,";
        "checksums-era processing and copies (2)";
      ];
  }

let ablation_udp ?(quick = false) () =
  let iters = if quick then 10 else 30 in
  (* Kernel UDP ping-pong vs the substrate's datagram sockets. *)
  let udp_latency size =
    let c = Cluster.create ~n:2 () in
    let stack = Cluster.tcp c in
    let sim = Cluster.sim c in
    let k0 = Uls_tcp.Tcp_stack.kernel stack 0
    and k1 = Uls_tcp.Tcp_stack.kernel stack 1 in
    let payload = String.make size 'u' in
    let latency = ref 0. in
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
        latency := float_of_int !sum /. float_of_int iters /. 2.);
    ignore (Cluster.run c);
    !latency /. 1_000.
  in
  let rows =
    List.map
      (fun size ->
        let udp = udp_latency size in
        let dgl = Microbench.ping_pong ~iters ~kind:(`Sub dg) ~size () in
        [ Table.cell_i size; Table.cell_f2 udp; Table.cell_f2 dgl ])
      [ 4; 1024 ]
  in
  {
    Table.id = "abl-udp";
    title = "Kernel UDP vs substrate datagram sockets (us, one-way)";
    header = [ "size(B)"; "kernel UDP"; "substrate DG" ];
    rows;
    notes =
      [ "even without TCP's connection machinery, the kernel datagram path";
        "keeps the syscall/interrupt/copy costs the substrate avoids" ];
  }

let ablation_piggyback ?(quick = false) () =
  let iters = if quick then 10 else 30 in
  let mk piggyback =
    Microbench.ping_pong ~iters
      ~kind:(`Sub { ds_base with Opt.piggyback = piggyback })
      ~size:4 ()
  in
  {
    Table.id = "abl-piggyback";
    title = "Piggy-backed credit acks, 4B DS ping-pong (us)";
    header = [ "piggyback"; "us" ];
    rows = [ [ "off"; Table.cell_f2 (mk false) ]; [ "on"; Table.cell_f2 (mk true) ] ];
    notes = [ "6.1: reverse-direction data carries the credit return for free" ];
  }

let ablation_uq ?(quick = false) () =
  let iters = if quick then 10 else 30 in
  let credit_sizes = if quick then [ 4; 32 ] else [ 4; 8; 16; 32 ] in
  let rows =
    List.map
      (fun credits ->
        let off =
          Microbench.ping_pong ~iters
            ~kind:(`Sub { ds_da with Opt.credits }) ~size:4 ()
        in
        let on =
          Microbench.ping_pong ~iters
            ~kind:
              (`Sub { ds_da with Opt.credits; unexpected_queue = true })
            ~size:4 ()
        in
        [ Table.cell_i credits; Table.cell_f2 off; Table.cell_f2 on ])
      credit_sizes
  in
  {
    Table.id = "abl-uq";
    title = "EMP unexpected queue for ack buffers: 4B DS_DA latency (us)";
    header = [ "credits"; "UQ off"; "UQ on" ];
    rows;
    notes = [ "6.4: ack descriptors out of the match list shorten data walks" ];
  }

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

let ablation_ackwindow ?(quick = false) () =
  let total = if quick then 4 * 1024 * 1024 else 16 * 1024 * 1024 in
  let rows =
    List.map
      (fun ack_window ->
        let config = { Uls_emp.Endpoint.default_config with ack_window } in
        let c = Cluster.create ~n:2 () in
        let e0 = Cluster.emp ~config c 0 and e1 = Cluster.emp ~config c 1 in
        let sim = Cluster.sim c in
        let msg = 65536 in
        let count = total / msg in
        let buf0 = Uls_host.Memory.alloc msg and buf1 = Uls_host.Memory.alloc msg in
        let result = ref 0. in
        Sim.spawn sim ~name:"sink" (fun () ->
            let recvs =
              List.init count (fun _ ->
                  Uls_emp.Endpoint.post_recv e1 ~src:0 ~tag:7 buf1 ~off:0 ~len:msg)
            in
            List.iter (fun r -> ignore (Uls_emp.Endpoint.wait_recv e1 r)) recvs);
        Sim.spawn sim ~name:"src" (fun () ->
            let t0 = Sim.now sim in
            let pending = Queue.create () in
            for _ = 1 to count do
              if Queue.length pending >= 8 then
                Uls_emp.Endpoint.wait_send e0 (Queue.pop pending);
              Queue.push
                (Uls_emp.Endpoint.post_send e0 ~dst:1 ~tag:7 buf0 ~off:0 ~len:msg)
                pending
            done;
            Queue.iter (Uls_emp.Endpoint.wait_send e0) pending;
            result :=
              Time.mbps ~bytes_transferred:(msg * count) ~elapsed:(Sim.now sim - t0));
        ignore (Cluster.run c);
        [ Table.cell_i ack_window; Table.cell_f !result ])
      (if quick then [ 1; 4 ] else [ 1; 2; 4; 8; 16 ])
  in
  {
    Table.id = "abl-ackwindow";
    title = "EMP reliability ack window vs bandwidth (Mb/s)";
    header = [ "ack window"; "Mb/s" ];
    rows;
    notes = [ "2: EMP acks every 4 frames; smaller windows cost NIC ack work" ];
  }

(* ---------------------------------------------------------------------- *)
(* Per-layer latency breakdown from the structured trace                  *)
(* ---------------------------------------------------------------------- *)

let breakdown ?(quick = false) () =
  let iters = if quick then 10 else 30 in
  let kinds =
    [
      ("EMP", `Emp_raw);
      ("DS_DA_UQ", `Sub ds_full);
      ("TCP", `Tcp tcp_default);
    ]
  in
  let rows =
    List.concat_map
      (fun (name, kind) ->
        let totals = ref [] in
        let lat =
          Microbench.ping_pong ~iters ~kind ~size:4 ()
            ~observe:(fun tr _ -> totals := Trace.span_totals tr)
        in
        let totals =
          List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a) !totals
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

let coll_algs =
  [
    Coll.Linear; Coll.Binomial_tree; Coll.Recursive_doubling; Coll.Nic_forward;
  ]

let coll_barrier ?(quick = false) () =
  let iters = if quick then 4 else 10 in
  let node_counts = if quick then [ 2; 8 ] else [ 2; 4; 8; 16 ] in
  let rows =
    List.map
      (fun nodes ->
        Table.cell_i nodes
        :: List.map
             (fun alg ->
               Table.cell_f2 (Microbench.barrier_latency ~iters ~alg ~nodes ()))
             coll_algs)
      node_counts
  in
  {
    Table.id = "coll-barrier";
    title = "Barrier latency (us) vs node count, per algorithm";
    header = "nodes" :: List.map Coll.algorithm_name coll_algs;
    rows;
    notes =
      [
        "linear grows O(N); binomial and recursive-doubling grow O(log N)";
        "nic-forward combines arrivals on the Tigon, skipping 2(N-1) host wakeups";
      ];
  }

let coll_bw ?(quick = false) () =
  let iters = if quick then 3 else 5 in
  let nodes = 8 in
  let sizes =
    if quick then [ 8192; 65_536 ] else [ 1024; 8192; 65_536; 524_288 ]
  in
  let cell ~op ~alg size =
    Table.cell_f (Microbench.coll_bandwidth ~iters ~op ~alg ~nodes ~size ())
  in
  let rows =
    List.map
      (fun size ->
        [
          Table.cell_i size;
          cell ~op:`Bcast ~alg:Coll.Linear size;
          cell ~op:`Bcast ~alg:Coll.Binomial_tree size;
          cell ~op:`Bcast ~alg:Coll.Nic_forward size;
          cell ~op:`Allreduce ~alg:Coll.Linear size;
          cell ~op:`Allreduce ~alg:Coll.Recursive_doubling size;
        ])
      sizes
  in
  {
    Table.id = "coll-bw";
    title =
      Printf.sprintf
        "Collective bandwidth (Mb/s, %d nodes) vs message size" nodes;
    header =
      [
        "size(B)"; "bcast-lin"; "bcast-bin"; "bcast-nic"; "allred-lin";
        "allred-rd";
      ];
    rows;
    notes =
      [
        "bcast-nic re-frames on the NIC for single-frame payloads, else falls back to binomial";
        "allred-rd is the MPICH recursive-doubling exchange (reduce-scatter flavoured)";
      ];
  }

(* ---------------------------------------------------------------------- *)

let all ?quick () =
  [
    fig11 ?quick ();
    fig12 ?quick ();
    fig13 ?quick ();
    fig14 ?quick ();
    fig15 ?quick ();
    fig16 ?quick ();
    fig17 ?quick ();
    connect_table ?quick ();
    ablation_unexpected ?quick ();
    ablation_comm_thread ?quick ();
    ablation_block_send ?quick ();
    ablation_piggyback ?quick ();
    ablation_uq ?quick ();
    ablation_pincache ?quick ();
    ablation_ackwindow ?quick ();
    ablation_cpu_util ?quick ();
    ablation_udp ?quick ();
    breakdown ?quick ();
    coll_barrier ?quick ();
    coll_bw ?quick ();
  ]

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
