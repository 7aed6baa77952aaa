(* Tests for the application layer: RAM disk, ftp, web server, matmul —
   each exercised over both the substrate and kernel TCP. *)
open Uls_engine
module Opt = Uls_substrate.Options

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* --- Ramdisk --- *)

let in_sim f =
  let sim = Sim.create () in
  Sim.spawn sim (fun () -> f sim);
  ignore (Sim.run sim)

let mk_disk sim =
  Uls_apps.Ramdisk.create
    (Uls_host.Node.create sim Uls_host.Cost_model.paper_testbed ~id:0)

let test_ramdisk_write_read () =
  in_sim (fun sim ->
      let d = mk_disk sim in
      Uls_apps.Ramdisk.write_file d ~name:"f" "hello disk";
      check_bool "exists" true (Uls_apps.Ramdisk.exists d "f");
      Alcotest.(check (option int)) "size" (Some 10) (Uls_apps.Ramdisk.size d "f");
      check_str "full read" "hello disk" (Uls_apps.Ramdisk.read d ~name:"f" ~off:0 ~len:100);
      check_str "offset read" "disk" (Uls_apps.Ramdisk.read d ~name:"f" ~off:6 ~len:4);
      check_str "past end" "" (Uls_apps.Ramdisk.read d ~name:"f" ~off:50 ~len:4))

let test_ramdisk_missing () =
  in_sim (fun sim ->
      let d = mk_disk sim in
      check_bool "missing" false (Uls_apps.Ramdisk.exists d "nope");
      try
        ignore (Uls_apps.Ramdisk.read d ~name:"nope" ~off:0 ~len:1);
        Alcotest.fail "expected Not_found"
      with Not_found -> ())

let test_ramdisk_costs_time () =
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      let d = mk_disk sim in
      Uls_apps.Ramdisk.create_random d ~name:"big" ~size:100_000 ~seed:1;
      let t0 = Sim.now sim in
      ignore (Uls_apps.Ramdisk.read d ~name:"big" ~off:0 ~len:100_000);
      check_bool "file read costs virtual time" true (Sim.now sim - t0 > 0));
  ignore (Sim.run sim)

let test_ramdisk_list () =
  in_sim (fun sim ->
      let d = mk_disk sim in
      Uls_apps.Ramdisk.write_file d ~name:"b" "2";
      Uls_apps.Ramdisk.write_file d ~name:"a" "1";
      Alcotest.(check (list string)) "sorted list" [ "a"; "b" ]
        (Uls_apps.Ramdisk.list d))

(* --- ftp over each stack --- *)

let stacks =
  [
    ("ds", fun c -> Uls_bench.Cluster.substrate_api ~opts:Opt.data_streaming_enhanced c);
    ("dg", fun c -> Uls_bench.Cluster.substrate_api ~opts:Opt.datagram c);
    ("tcp", fun c -> Uls_bench.Cluster.tcp_api c);
  ]

let ftp_roundtrip make_api () =
  let c = Uls_bench.Cluster.create ~n:2 () in
  let api = make_api c in
  let sim = Uls_bench.Cluster.sim c in
  let server_disk = Uls_apps.Ramdisk.create (Uls_bench.Cluster.node c 1) in
  let client_disk = Uls_apps.Ramdisk.create (Uls_bench.Cluster.node c 0) in
  Uls_apps.Ramdisk.create_random server_disk ~name:"data" ~size:300_000 ~seed:3;
  Uls_apps.Ramdisk.create_random client_disk ~name:"up" ~size:123_457 ~seed:4;
  let ok = ref false in
  Sim.spawn sim ~name:"ftp-server"
    (Uls_apps.Ftp.server sim api ~node:1 ~port:21 ~disk:server_disk);
  Sim.spawn sim ~name:"ftp-client" (fun () ->
      Sim.delay sim (Time.us 100);
      let server = { Uls_api.Sockets_api.node = 1; port = 21 } in
      (* download *)
      let tr = Uls_apps.Ftp.fetch sim api ~node:0 ~server ~file:"data" ~disk:client_disk in
      check_int "downloaded size" 300_000 tr.Uls_apps.Ftp.bytes;
      check_bool "elapsed positive" true (tr.Uls_apps.Ftp.elapsed > 0);
      check_str "content identical"
        (Uls_apps.Ramdisk.read server_disk ~name:"data" ~off:0 ~len:300_000)
        (Uls_apps.Ramdisk.read client_disk ~name:"data" ~off:0 ~len:300_000);
      (* upload *)
      let tr = Uls_apps.Ftp.store sim api ~node:0 ~server ~file:"up" ~disk:client_disk in
      check_int "uploaded size" 123_457 tr.Uls_apps.Ftp.bytes;
      check_str "upload content identical"
        (Uls_apps.Ramdisk.read client_disk ~name:"up" ~off:0 ~len:123_457)
        (Uls_apps.Ramdisk.read server_disk ~name:"up" ~off:0 ~len:123_457);
      (* metadata *)
      Alcotest.(check (list string)) "remote list" [ "data"; "up" ]
        (Uls_apps.Ftp.remote_list api ~node:0 ~server);
      ok := true;
      Sim.stop sim);
  ignore (Uls_bench.Cluster.run c);
  check_bool "client finished" true !ok

(* --- web server --- *)

let web_roundtrip make_api () =
  let c = Uls_bench.Cluster.create ~n:4 () in
  let api = make_api c in
  let sim = Uls_bench.Cluster.sim c in
  Sim.spawn sim ~name:"server"
    (Uls_apps.Http.server sim api ~node:0 ~port:80 ~response_size:512
       ~requests_per_conn:8);
  let results = ref [] in
  let finished = ref 0 in
  for client = 1 to 3 do
    Sim.spawn sim ~name:"client" (fun () ->
        Sim.delay sim (Time.us (50 * client));
        let r =
          Uls_apps.Http.client sim api ~node:client
            ~server:{ node = 0; port = 80 } ~response_size:512
            ~requests_per_conn:8 ~connections:3
        in
        results := r :: !results;
        incr finished;
        if !finished = 3 then Sim.stop sim)
  done;
  ignore (Uls_bench.Cluster.run c);
  check_int "all clients reported" 3 (List.length !results);
  List.iter
    (fun r ->
      check_int "24 requests per client" 24 r.Uls_apps.Http.requests;
      check_bool "positive mean" true (r.Uls_apps.Http.mean_response_time > 0.);
      check_int "every request timed" 24 (List.length r.Uls_apps.Http.response_times))
    !results

(* --- matmul --- *)

let test_matmul_seq_reference () =
  let a = [| [| 1.; 2. |]; [| 3.; 4. |] |] in
  let b = [| [| 5.; 6. |]; [| 7.; 8. |] |] in
  let expected = [| [| 19.; 22. |]; [| 43.; 50. |] |] in
  check_bool "2x2 known product" true
    (Uls_apps.Matmul.matrices_equal expected (Uls_apps.Matmul.multiply_seq a b))

let matmul_distributed make_api () =
  let n = 48 in
  let c = Uls_bench.Cluster.create ~n:4 () in
  let api = make_api c in
  let sim = Uls_bench.Cluster.sim c in
  let a = Uls_apps.Matmul.random_matrix ~seed:21 ~n in
  let b = Uls_apps.Matmul.random_matrix ~seed:22 ~n in
  for w = 1 to 3 do
    Sim.spawn sim (fun () ->
        Sim.delay sim (Time.us (10 * w));
        Uls_apps.Matmul.worker sim api ~node:w ~master:{ node = 0; port = 90 } ())
  done;
  let ok = ref false in
  Sim.spawn sim (fun () ->
      let r = Uls_apps.Matmul.master sim api ~node:0 ~port:90 ~workers:3 ~a ~b in
      ok :=
        Uls_apps.Matmul.matrices_equal ~eps:1e-6
          (Uls_apps.Matmul.multiply_seq a b)
          r.Uls_apps.Matmul.product;
      Sim.stop sim);
  ignore (Uls_bench.Cluster.run c);
  check_bool "distributed = sequential" true !ok

let test_matmul_uneven_partition () =
  (* n not divisible by worker count: 7 rows over 3 workers. *)
  let n = 7 in
  let c = Uls_bench.Cluster.create ~n:4 () in
  let api = Uls_bench.Cluster.tcp_api c in
  let sim = Uls_bench.Cluster.sim c in
  let a = Uls_apps.Matmul.random_matrix ~seed:31 ~n in
  let b = Uls_apps.Matmul.random_matrix ~seed:32 ~n in
  for w = 1 to 3 do
    Sim.spawn sim (fun () ->
        Sim.delay sim (Time.us (10 * w));
        Uls_apps.Matmul.worker sim api ~node:w ~master:{ node = 0; port = 90 } ())
  done;
  let ok = ref false in
  Sim.spawn sim (fun () ->
      let r = Uls_apps.Matmul.master sim api ~node:0 ~port:90 ~workers:3 ~a ~b in
      ok :=
        Uls_apps.Matmul.matrices_equal ~eps:1e-6
          (Uls_apps.Matmul.multiply_seq a b)
          r.Uls_apps.Matmul.product;
      Sim.stop sim);
  ignore (Uls_bench.Cluster.run c);
  check_bool "uneven rows verified" true !ok

let per_stack name f =
  List.map
    (fun (sname, make_api) ->
      Alcotest.test_case (Printf.sprintf "%s over %s" name sname) `Quick
        (f make_api))
    stacks

let suites =
  [
    ( "apps.ramdisk",
      [
        Alcotest.test_case "write/read" `Quick test_ramdisk_write_read;
        Alcotest.test_case "missing file" `Quick test_ramdisk_missing;
        Alcotest.test_case "costs time" `Quick test_ramdisk_costs_time;
        Alcotest.test_case "list" `Quick test_ramdisk_list;
      ] );
    ("apps.ftp", per_stack "roundtrip" ftp_roundtrip);
    ("apps.web", per_stack "3 clients x 8 reqs" web_roundtrip);
    ( "apps.matmul",
      Alcotest.test_case "sequential reference" `Quick test_matmul_seq_reference
      :: Alcotest.test_case "uneven partition" `Quick test_matmul_uneven_partition
      :: per_stack "distributed" matmul_distributed );
  ]
