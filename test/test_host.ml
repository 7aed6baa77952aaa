(* Tests for the host model: cost arithmetic, memory regions, the OS
   pin/translation cache, node accounting. *)
open Uls_engine
open Uls_host

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let model = Cost_model.paper_testbed

let test_copy_cost () =
  check_int "zero" 0 (Cost_model.copy_cost model 0);
  check_int "1000 bytes at 1.8ns/B" 1_800 (Cost_model.copy_cost model 1_000)

let test_dma_cost () =
  check_int "setup only" model.Cost_model.dma_setup (Cost_model.dma_cost model 0);
  check_int "1000 bytes"
    (model.Cost_model.dma_setup + 1_900)
    (Cost_model.dma_cost model 1_000)

let test_pin_cost_pages () =
  let one_page = Cost_model.pin_cost model ~bytes:100 in
  let two_pages = Cost_model.pin_cost model ~bytes:4_097 in
  check_int "one page" (15_000 + 2_000) one_page;
  check_int "two pages" (15_000 + 4_000) two_pages;
  check_int "zero bytes still pins a page" one_page
    (Cost_model.pin_cost model ~bytes:0)

let test_memory_roundtrip () =
  let r = Memory.of_string "hello world" in
  Alcotest.(check string) "sub" "world" (Memory.sub_string r ~off:6 ~len:5);
  Memory.blit_from_string "HELLO" r ~off:0;
  Alcotest.(check string) "after blit" "HELLO world"
    (Memory.sub_string r ~off:0 ~len:11)

let test_memory_ids_unique () =
  let a = Memory.alloc 10 and b = Memory.alloc 10 in
  check_bool "distinct ids" true (Memory.id a <> Memory.id b)

let test_memory_blit_between_regions () =
  let src = Memory.of_string "abcdef" in
  let dst = Memory.alloc 6 in
  Memory.blit ~src ~src_off:2 ~dst ~dst_off:0 ~len:3;
  Alcotest.(check string) "blit" "cde" (Memory.sub_string dst ~off:0 ~len:3)

let zeros n = String.make n '\000'

let test_memory_unwritten_reads_zero () =
  let r = Memory.alloc 100 in
  Alcotest.(check string) "fresh region" (zeros 100)
    (Memory.sub_string r ~off:0 ~len:100);
  Memory.blit_from_string "abc" r ~off:10;
  Alcotest.(check string) "around a write" "\000\000abc\000\000\000"
    (Memory.sub_string r ~off:8 ~len:8);
  Alcotest.(check string) "past the written prefix" (zeros 50)
    (Memory.sub_string r ~off:50 ~len:50);
  Memory.blit_from_string ~len:2 "xyz" r ~off:98;
  Alcotest.(check string) "prefix of a string, at the end" "\000xy"
    (Memory.sub_string r ~off:97 ~len:3);
  Alcotest.(check bool) "bad range still rejected" true
    (match Memory.sub_string r ~off:90 ~len:11 with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_memory_blit_across_boundary () =
  (* The source has 4 written bytes; a blit of 8 carries them and then
     zeros, overwriting what the destination already held. *)
  let src = Memory.alloc 64 in
  Memory.blit_from_string "WXYZ" src ~off:0;
  let dst = Memory.of_string (String.make 16 '.') in
  Memory.blit ~src ~src_off:2 ~dst ~dst_off:4 ~len:8;
  Alcotest.(check string) "written then unwritten source"
    "....YZ\000\000\000\000\000\000...."
    (Memory.sub_string dst ~off:0 ~len:16);
  (* Into a never-written destination, from a fully written source. *)
  let dst = Memory.alloc 32 in
  Memory.blit ~src:(Memory.of_string "abcdef") ~src_off:0 ~dst ~dst_off:20
    ~len:6;
  Alcotest.(check string) "lands past the destination's prefix"
    (zeros 20 ^ "abcdef" ^ zeros 6)
    (Memory.sub_string dst ~off:0 ~len:32);
  (* Within one region, overlapping. *)
  let r = Memory.alloc 16 in
  Memory.blit_from_string "0123" r ~off:0;
  Memory.blit ~src:r ~src_off:0 ~dst:r ~dst_off:2 ~len:6;
  Alcotest.(check string) "overlapping self-blit" "010123\000\000"
    (Memory.sub_string r ~off:0 ~len:8);
  Alcotest.(check int64) "int64 across the prefix" 0x0000000000003332L
    (Memory.get_int64_le r 4)

let test_memory_unwritten_costs_unchanged () =
  (* Materialization is invisible to the cost model: a never-written
     region has its declared length and pins exactly like a written one. *)
  let sim = Sim.create () in
  let os = Os.create sim model in
  let fresh = Memory.alloc 10_000 in
  let written = Memory.of_string (String.make 10_000 'w') in
  check_int "declared length" 10_000 (Memory.length fresh);
  let pin r =
    let t0 = ref 0 and t1 = ref 0 in
    Sim.spawn sim (fun () ->
        t0 := Sim.now sim;
        Os.pin_region os r ~off:0 ~len:1;
        t1 := Sim.now sim);
    ignore (Sim.run sim);
    !t1 - !t0
  in
  let cost = Cost_model.pin_cost model ~bytes:10_000 in
  check_int "never-written pin cost" cost (pin fresh);
  check_int "written pin cost" cost (pin written)

let test_translation_cache () =
  let sim = Sim.create () in
  let os = Os.create sim model in
  let region = Memory.alloc 8_192 in
  let t_first = ref 0 and t_second = ref 0 in
  Sim.spawn sim (fun () ->
      let t0 = Sim.now sim in
      Os.pin_region os region ~off:0 ~len:8_192;
      t_first := Sim.now sim - t0;
      let t1 = Sim.now sim in
      Os.pin_region os region ~off:0 ~len:8_192;
      t_second := Sim.now sim - t1);
  ignore (Sim.run sim);
  check_int "first pays pin syscall" (15_000 + 4_000) !t_first;
  check_int "second is free" 0 !t_second;
  check_int "hits" 1 (Os.translation_cache_hits os);
  check_int "misses" 1 (Os.translation_cache_misses os)

let test_translation_cache_flush () =
  let sim = Sim.create () in
  let os = Os.create sim model in
  let region = Memory.alloc 100 in
  Sim.spawn sim (fun () ->
      Os.pin_region os region ~off:0 ~len:100;
      Os.flush_translation_cache os;
      Os.pin_region os region ~off:0 ~len:100);
  ignore (Sim.run sim);
  check_int "two misses after flush" 2 (Os.translation_cache_misses os)

let test_prepin () =
  let sim = Sim.create () in
  let os = Os.create sim model in
  let region = Memory.alloc 100 in
  Os.prepin os region;
  Sim.spawn sim (fun () -> Os.pin_region os region ~off:0 ~len:100);
  ignore (Sim.run sim);
  check_int "prepin makes the first use a hit" 1 (Os.translation_cache_hits os);
  check_int "no time passed" 0 (Sim.now sim)

let test_node_accounting () =
  let sim = Sim.create () in
  let node = Node.create sim model ~id:3 in
  Sim.spawn sim (fun () ->
      Node.compute node 500;
      Sim.delay sim 500;
      Node.compute node 250);
  ignore (Sim.run sim);
  check_int "id" 3 (Node.id node);
  check_int "busy" 750 (Node.busy_time node);
  Alcotest.(check (float 0.001)) "utilization" 0.6 (Node.utilization node)

let test_node_copy_charges () =
  let sim = Sim.create () in
  let node = Node.create sim model ~id:0 in
  let src = Memory.of_string (String.make 1_000 'z') in
  let dst = Memory.alloc 1_000 in
  Sim.spawn sim (fun () ->
      Node.copy node ~src ~src_off:0 ~dst ~dst_off:0 ~len:1_000);
  ignore (Sim.run sim);
  check_int "copy charged" (Cost_model.copy_cost model 1_000) (Node.busy_time node);
  Alcotest.(check string) "data moved" "zzz" (Memory.sub_string dst ~off:0 ~len:3)

let prop_pin_cost_monotone =
  QCheck.Test.make ~name:"pin cost monotone in size" ~count:100
    QCheck.(pair (int_range 0 100_000) (int_range 0 100_000))
    (fun (a, b) ->
      let lo = min a b and hi = max a b in
      Cost_model.pin_cost model ~bytes:lo <= Cost_model.pin_cost model ~bytes:hi)

let suites =
  [
    ( "host.cost_model",
      Alcotest.test_case "copy cost" `Quick test_copy_cost
      :: Alcotest.test_case "dma cost" `Quick test_dma_cost
      :: Alcotest.test_case "pin cost pages" `Quick test_pin_cost_pages
      :: List.map QCheck_alcotest.to_alcotest [ prop_pin_cost_monotone ] );
    ( "host.memory",
      [
        Alcotest.test_case "roundtrip" `Quick test_memory_roundtrip;
        Alcotest.test_case "unique ids" `Quick test_memory_ids_unique;
        Alcotest.test_case "blit between regions" `Quick
          test_memory_blit_between_regions;
        Alcotest.test_case "unwritten reads zero" `Quick
          test_memory_unwritten_reads_zero;
        Alcotest.test_case "blit across the written prefix" `Quick
          test_memory_blit_across_boundary;
        Alcotest.test_case "unwritten costs unchanged" `Quick
          test_memory_unwritten_costs_unchanged;
      ] );
    ( "host.os",
      [
        Alcotest.test_case "translation cache" `Quick test_translation_cache;
        Alcotest.test_case "cache flush" `Quick test_translation_cache_flush;
        Alcotest.test_case "prepin" `Quick test_prepin;
      ] );
    ( "host.node",
      [
        Alcotest.test_case "accounting" `Quick test_node_accounting;
        Alcotest.test_case "costed copy" `Quick test_node_copy_charges;
      ] );
  ]
