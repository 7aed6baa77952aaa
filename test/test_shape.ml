(* "Shape" tests: the qualitative results of the paper's evaluation,
   asserted as orderings so calibration drift cannot silently invert a
   conclusion. Small iteration counts keep these fast. *)
module Mb = Uls_bench.Microbench
module Opt = Uls_substrate.Options

let check_bool = Alcotest.(check bool)

let lat kind = Mb.ping_pong ~iters:8 ~kind ~size:4 ()
let bw kind =
  let r = Mb.stream ~total:(2 * 1024 * 1024) ~kind ~msg:65536 () in
  let name = Uls_bench.Cluster.stack_name kind in
  check_bool (name ^ " stream completed") true r.Mb.completed;
  check_bool (name ^ " stream intact") true r.Mb.intact;
  r.Mb.goodput_mbps

let tcp = `Tcp Uls_tcp.Config.default
let tcp_tuned = `Tcp (Uls_tcp.Config.with_buffers 262_144)
let ds_full = `Sub Opt.data_streaming_enhanced
let ds_base = `Sub Opt.data_streaming
let dg = `Sub Opt.datagram

let test_latency_ordering () =
  let emp = lat (`Emp Uls_emp.Endpoint.default_config) in
  let dg_l = lat dg in
  let ds_l = lat ds_full in
  let ds_base_l = lat ds_base in
  let tcp_l = lat tcp in
  check_bool "EMP fastest" true (emp < dg_l);
  check_bool "DG < DS (datagram avoids streaming costs)" true (dg_l < ds_l);
  check_bool "enhancements help DS" true (ds_l < ds_base_l);
  check_bool "substrate beats TCP by >2x" true (tcp_l > 2. *. ds_l);
  check_bool "datagram within a few us of EMP" true (dg_l -. emp < 10.)

let test_latency_enhancement_chain () =
  (* DS > DS_DA > DS_DA_UQ, the Figure 11 ordering. The UQ gap is widest
     at moderate credit counts (more ack descriptors in the walk). *)
  let at opts = Mb.ping_pong ~iters:12 ~kind:(`Sub opts) ~size:4 () in
  let ds = at { Opt.data_streaming with credits = 8 } in
  let ds_da = at { Opt.data_streaming with credits = 8; delayed_acks = true } in
  let ds_da_uq =
    at { Opt.data_streaming_enhanced with credits = 8 }
  in
  check_bool "delayed acks help" true (ds_da < ds);
  check_bool "unexpected queue helps further" true (ds_da_uq < ds_da)

let test_fig12_credits_trend () =
  let at credits =
    Mb.ping_pong ~iters:8
      ~kind:(`Sub { Opt.data_streaming with delayed_acks = true; credits })
      ~size:4 ()
  in
  check_bool "more credits, lower DS_DA latency" true (at 32 < at 2)

let test_bandwidth_ordering () =
  let tcp_16k = bw tcp in
  let tcp_big = bw tcp_tuned in
  let sub = bw ds_full in
  check_bool "tuned TCP beats default buffers" true (tcp_big > tcp_16k);
  check_bool "substrate beats tuned TCP" true (sub > tcp_big);
  check_bool "substrate above 700 Mb/s" true (sub > 700.)

let test_connect_ordering () =
  let sub =
    Mb.connect_time ~kind:(`Sub { Opt.data_streaming_enhanced with credits = 4 }) ()
  in
  let tcp_c = Mb.connect_time ~kind:tcp () in
  check_bool "substrate connects faster than TCP" true (sub < tcp_c)

let test_determinism () =
  (* Identical experiments on fresh simulators produce identical virtual
     results — the whole stack is deterministic. *)
  let a = Mb.ping_pong ~iters:5 ~kind:ds_full ~size:256 () in
  let b = Mb.ping_pong ~iters:5 ~kind:ds_full ~size:256 () in
  Alcotest.(check (float 0.)) "bit-identical latencies" a b;
  let x = bw tcp in
  let y = bw tcp in
  Alcotest.(check (float 0.)) "bit-identical bandwidth" x y

let suites =
  [
    ( "shape.paper",
      [
        Alcotest.test_case "latency ordering" `Quick test_latency_ordering;
        Alcotest.test_case "enhancement chain" `Quick
          test_latency_enhancement_chain;
        Alcotest.test_case "fig12 credits trend" `Quick test_fig12_credits_trend;
        Alcotest.test_case "bandwidth ordering" `Quick test_bandwidth_ordering;
        Alcotest.test_case "connect ordering" `Quick test_connect_ordering;
        Alcotest.test_case "determinism" `Quick test_determinism;
      ] );
  ]
