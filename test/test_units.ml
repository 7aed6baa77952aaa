(* Unit tests for the small pure modules: substrate tags/codec/options,
   send pools, TCP segment arithmetic, engine trace, and the bench
   drivers' shared vocabulary (stack names, latency summary). *)
open Uls_engine
module Opt = Uls_substrate.Options
module Tags = Uls_substrate.Tags
module Codec = Uls_substrate.Codec
module Seg = Uls_tcp.Segment

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Tags --- *)

let test_tags_distinct_kinds () =
  let kinds =
    [
      Tags.Conn_request;
      Tags.Conn_reply;
      Tags.Data;
      Tags.Credit_ack;
      Tags.Rdvz_request;
      Tags.Rdvz_grant;
      Tags.Rdvz_data;
      Tags.Close;
    ]
  in
  let tags = List.map (fun k -> Tags.make k 7) kinds in
  let uniq = List.sort_uniq compare tags in
  check_int "all kinds distinct for same id" (List.length kinds)
    (List.length uniq)

let test_tags_16bit () =
  List.iter
    (fun k ->
      let t = Tags.make k Tags.max_id in
      check_bool "fits 16 bits" true (t >= 0 && t < 65_536))
    [ Tags.Conn_request; Tags.Close ]

let test_tags_range_checked () =
  Alcotest.check_raises "id too large"
    (Invalid_argument "Tags.make: id out of range") (fun () ->
      ignore (Tags.make Tags.Data 4096));
  Alcotest.check_raises "negative id"
    (Invalid_argument "Tags.make: id out of range") (fun () ->
      ignore (Tags.make Tags.Data (-1)))

let prop_tags_injective =
  QCheck.Test.make ~name:"tag encoding is injective" ~count:300
    QCheck.(pair (pair (int_range 0 7) (int_range 0 4095))
              (pair (int_range 0 7) (int_range 0 4095)))
    (fun ((k1, i1), (k2, i2)) ->
      let kind = function
        | 0 -> Tags.Conn_request
        | 1 -> Tags.Conn_reply
        | 2 -> Tags.Data
        | 3 -> Tags.Credit_ack
        | 4 -> Tags.Rdvz_request
        | 5 -> Tags.Rdvz_grant
        | 6 -> Tags.Rdvz_data
        | _ -> Tags.Close
      in
      let t1 = Tags.make (kind k1) i1 and t2 = Tags.make (kind k2) i2 in
      (t1 = t2) = (k1 = k2 && i1 = i2))

(* --- Codec --- *)

let decode_string kind s =
  Array.to_list
    (Codec.decode kind ~owner:7 ~peer:1 ~len:(String.length s)
       (String.get_int64_le s))

let prop_codec_roundtrip =
  QCheck.Test.make ~name:"codec int list roundtrip" ~count:200
    QCheck.(triple int int int)
    (fun (a, b, c) ->
      decode_string Tags.Rdvz_request (Codec.encode [ a; b; c ]) = [ a; b; c ])

let test_codec_region () =
  let region = Uls_host.Memory.of_string (Codec.encode [ 42; -7; max_int ]) in
  Alcotest.(check (list int)) "decode from a region" [ 42; -7; max_int ]
    (Array.to_list
       (Codec.decode Tags.Conn_request ~owner:80 ~peer:1 ~len:24
          (Uls_host.Memory.get_int64_le region)))

let test_codec_partial_decode () =
  (* A message carries more than its kind's leading fields (a data
     message's payload follows its header): only the fields are read. *)
  let s = Codec.encode [ 1; 2; 3 ] in
  Alcotest.(check (list int)) "data header" [ 1; 2 ] (decode_string Tags.Data s);
  Alcotest.(check (list int)) "close" [ 1 ] (decode_string Tags.Close s)

let test_codec_short_message () =
  List.iter
    (fun (kind, what) ->
      match decode_string kind "zzz" with
      | _ -> Alcotest.failf "short %s decoded" (Tags.kind_name kind)
      | exception Codec.Protocol_error msg ->
        Alcotest.(check string)
          (Tags.kind_name kind ^ " names owner, kind and peer")
          (Printf.sprintf "%s 7: %s message from node 1 too short (3 B < %d B)"
             what (Tags.kind_name kind)
             (if kind = Tags.Data then 16 else 8))
          msg)
    [
      (Tags.Data, "conn");
      (Tags.Credit_ack, "conn");
      (Tags.Close, "conn");
      (Tags.Conn_reply, "conn");
    ];
  match decode_string Tags.Conn_request (Codec.encode [ 1; 2 ]) with
  | _ -> Alcotest.fail "a two-field connection request decoded"
  | exception Codec.Protocol_error msg ->
    Alcotest.(check string) "listener names its port"
      "listener port 7: conn_request message from node 1 too short (16 B < 24 B)"
      msg

(* --- Options --- *)

let test_ack_threshold () =
  check_int "no DA: every message" 1 (Opt.ack_threshold Opt.data_streaming);
  check_int "DA: half the credits" 16
    (Opt.ack_threshold { Opt.data_streaming with delayed_acks = true });
  check_int "DA with 1 credit still acks" 1
    (Opt.ack_threshold { Opt.data_streaming with delayed_acks = true; credits = 1 });
  check_int "blocking send forces per-message acks" 1
    (Opt.ack_threshold
       { Opt.data_streaming with delayed_acks = true; block_send = true })

let test_chunk_capacity () =
  check_int "buffer minus header"
    (65_536 - Opt.header_bytes)
    (Opt.chunk_capacity Opt.data_streaming)

let test_mode_names () =
  Alcotest.(check string) "DS" "DS" (Opt.mode_name Opt.data_streaming);
  Alcotest.(check string) "DG" "DG" (Opt.mode_name Opt.datagram)

(* --- Sendpool --- *)

let test_sendpool_reuses_slots () =
  let c = Uls_bench.Cluster.create ~n:2 () in
  let e0 = Uls_bench.Cluster.emp c 0 and e1 = Uls_bench.Cluster.emp c 1 in
  let sim = Uls_bench.Cluster.sim c in
  let pool =
    Uls_substrate.Sendpool.create (Uls_bench.Cluster.node c 0) e0
      ~slots:2 ~size:64
  in
  let received = ref [] in
  Sim.spawn sim (fun () ->
      let buf = Uls_host.Memory.alloc 64 in
      for _ = 1 to 6 do
        let r = Uls_emp.Endpoint.post_recv e1 ~src:0 ~tag:5 buf ~off:0 ~len:64 in
        let len, _, _ = Uls_emp.Endpoint.wait_recv e1 r in
        received := Uls_host.Memory.sub_string buf ~off:0 ~len :: !received
      done);
  Sim.spawn sim (fun () ->
      for i = 1 to 6 do
        ignore
          (Uls_substrate.Sendpool.send pool ~dst:1 ~tag:5 (Printf.sprintf "m%d" i))
      done);
  ignore (Uls_bench.Cluster.run c);
  Alcotest.(check (list string))
    "all messages delivered in order despite 2 slots"
    [ "m1"; "m2"; "m3"; "m4"; "m5"; "m6" ]
    (List.rev !received);
  (* Ring slots are pre-registered: no pin misses during sends. *)
  check_int "no pin misses"
    0
    (Uls_host.Os.translation_cache_misses
       (Uls_host.Node.os (Uls_bench.Cluster.node c 0)))

let test_sendpool_size_limit () =
  let c = Uls_bench.Cluster.create ~n:2 () in
  let e0 = Uls_bench.Cluster.emp c 0 in
  let pool =
    Uls_substrate.Sendpool.create (Uls_bench.Cluster.node c 0) e0
      ~slots:2 ~size:8
  in
  let sim = Uls_bench.Cluster.sim c in
  let got = ref "" in
  Sim.spawn sim (fun () ->
      try ignore (Uls_substrate.Sendpool.send pool ~dst:1 ~tag:1 "123456789")
      with Invalid_argument msg -> got := msg);
  ignore (Uls_bench.Cluster.run c);
  Alcotest.(check string) "oversized message rejected"
    "Sendpool.send: message too large" !got

(* --- TCP segment arithmetic --- *)

let test_segment_sizes () =
  check_int "mss fills a frame" 1_460 Seg.mss;
  check_int "tcp payload bytes"
    (20 + 5)
    (Seg.payload_bytes
       (Seg.Tcp
          {
            src_port = 1;
            dst_port = 2;
            seq = 0;
            ack_no = 0;
            flags = Seg.flag ();
            wnd = 0;
            data = "hello";
          }));
  check_int "udp payload bytes" (8 + 3)
    (Seg.payload_bytes
       (Seg.Udp { u_src_port = 1; u_dst_port = 2; u_data = "abc" }))

let qsuite = List.map QCheck_alcotest.to_alcotest

(* --- bench vocabulary --- *)

let test_stack_names () =
  let name = Uls_bench.Cluster.stack_name in
  Alcotest.(check (list string))
    "names"
    [ "EMP-DS"; "EMP-DG"; "TCP"; "EMP" ]
    [
      name (`Sub Opt.data_streaming_enhanced);
      name (`Sub Opt.datagram);
      name (`Tcp Uls_tcp.Config.default);
      name (`Emp Uls_emp.Endpoint.default_config);
    ]

(* A total that is not a multiple of the write size ends in a short
   write: exactly [total] bytes cross, and goodput counts only them. *)
let test_stream_short_last_write kind () =
  let total = 100_000 in
  let r = Uls_bench.Microbench.stream ~total ~kind ~msg:65_536 () in
  let name = Uls_bench.Cluster.stack_name kind in
  Alcotest.(check bool) (name ^ " completed") true r.completed;
  Alcotest.(check bool) (name ^ " intact") true r.intact;
  (* Mb/s x ms = 1000 bits. *)
  Alcotest.(check (float 1e-6))
    (name ^ " goodput over 100000 bytes")
    (float_of_int (total * 8))
    (r.goodput_mbps *. r.elapsed_ms *. 1000.)

let check_summary label (want : Uls_bench.Latency.summary)
    (got : Uls_bench.Latency.summary) =
  let f name a b = Alcotest.(check (float 1e-9)) (label ^ " " ^ name) a b in
  f "elapsed_ms" want.elapsed_ms got.elapsed_ms;
  f "rps" want.rps got.rps;
  f "mean_us" want.mean_us got.mean_us;
  f "p50_us" want.p50_us got.p50_us;
  f "p95_us" want.p95_us got.p95_us;
  f "p99_us" want.p99_us got.p99_us;
  f "p999_us" want.p999_us got.p999_us

let test_latency_empty () =
  (* A run that completed nothing reports zeros, never nan. *)
  let l = Uls_bench.Latency.create () in
  Uls_bench.Latency.sent l ~now:5_000;
  check_summary "empty"
    {
      elapsed_ms = 0.;
      rps = 0.;
      mean_us = 0.;
      p50_us = 0.;
      p95_us = 0.;
      p99_us = 0.;
      p999_us = 0.;
    }
    (Uls_bench.Latency.summary l)

let test_latency_known_samples () =
  (* Request k (k = 0..100) is sent at k * 10 us and takes k + 1 us:
     latencies 1..101 us, first send at 0, last completion at 1101 us.
     Nearest rank over 101 sorted samples picks index round(p * 100). *)
  let l = Uls_bench.Latency.create () in
  for k = 0 to 100 do
    let t0 = Time.us (10 * k) in
    Uls_bench.Latency.sent l ~now:t0;
    Uls_bench.Latency.completed l ~t0 ~now:(t0 + Time.us (k + 1))
  done;
  check_summary "101 samples"
    {
      elapsed_ms = 1.101;
      rps = 101. /. 1.101e-3;
      mean_us = 51.;
      p50_us = 51.;
      p95_us = 96.;
      p99_us = 100.;
      p999_us = 101.;
    }
    (Uls_bench.Latency.summary l)

let suites =
  [
    ( "substrate.tags",
      Alcotest.test_case "kinds distinct" `Quick test_tags_distinct_kinds
      :: Alcotest.test_case "16 bit" `Quick test_tags_16bit
      :: Alcotest.test_case "range checked" `Quick test_tags_range_checked
      :: qsuite [ prop_tags_injective ] );
    ( "substrate.codec",
      Alcotest.test_case "decode_region" `Quick test_codec_region
      :: Alcotest.test_case "partial decode" `Quick test_codec_partial_decode
      :: Alcotest.test_case "short message is a protocol error" `Quick
           test_codec_short_message
      :: qsuite [ prop_codec_roundtrip ] );
    ( "substrate.options",
      [
        Alcotest.test_case "ack threshold" `Quick test_ack_threshold;
        Alcotest.test_case "chunk capacity" `Quick test_chunk_capacity;
        Alcotest.test_case "mode names" `Quick test_mode_names;
      ] );
    ( "substrate.sendpool",
      [
        Alcotest.test_case "slot reuse" `Quick test_sendpool_reuses_slots;
        Alcotest.test_case "size limit" `Quick test_sendpool_size_limit;
      ] );
    ( "tcp.segment",
      [
        Alcotest.test_case "sizes" `Quick test_segment_sizes;
      ] );
    ( "bench.vocabulary",
      [
        Alcotest.test_case "stack names" `Quick test_stack_names;
        Alcotest.test_case "stream: short last write over ds" `Quick
          (test_stream_short_last_write (`Sub Opt.data_streaming_enhanced));
        Alcotest.test_case "stream: short last write over tcp" `Quick
          (test_stream_short_last_write (`Tcp Uls_tcp.Config.default));
        Alcotest.test_case "latency: empty run" `Quick test_latency_empty;
        Alcotest.test_case "latency: known samples" `Quick
          test_latency_known_samples;
      ] );
  ]
