(* Collective subsystem: correctness of every operation under every
   algorithm over EMP, round-count complexity, and the latency advantage
   of the NIC-forwarded barrier. *)

open Uls_engine
module Group = Uls_collective.Group
module Emp_group = Uls_collective.Emp_group
module Cluster = Uls_bench.Cluster

(* --- harness ----------------------------------------------------------- *)

(* Run [f group rank] as one fiber per rank and return every rank's
   result (failing the test on deadlock). *)
let run_ranks ~n ~make f =
  let c = Cluster.create ~n () in
  let setup = make c in
  let results = Array.make n None in
  for r = 0 to n - 1 do
    Sim.spawn (Cluster.sim c)
      ~name:(Printf.sprintf "rank%d" r)
      (fun () ->
        let g = setup ~rank:r in
        results.(r) <- Some (f g r))
  done;
  (match Cluster.run c with
  | `Quiescent -> ()
  | _ -> Alcotest.fail "cluster did not quiesce");
  Array.map
    (function
      | Some v -> v
      | None -> Alcotest.fail "rank fiber deadlocked")
    results

let emp_make ?nic () c =
  let eps = Array.init (Cluster.size c) (fun i -> Cluster.emp c i) in
  fun ~rank -> Emp_group.create ?nic eps ~rank

(* --- data helpers ------------------------------------------------------ *)

let pack_floats fs =
  let b = Bytes.create (8 * Array.length fs) in
  Array.iteri (fun i f -> Bytes.set_int64_le b (i * 8) (Int64.bits_of_float f)) fs;
  Bytes.to_string b

let unpack_floats s =
  Array.init (String.length s / 8) (fun i ->
      Int64.float_of_bits (String.get_int64_le s (i * 8)))

let check_str = Alcotest.(check string)

(* Exercise every collective once under [alg]; assertions run inside the
   rank fibers (a failure surfaces as a Fiber_failure). *)
let exercise ~alg ~n g rank =
  let root = (n - 1) / 2 in
  let where op = Printf.sprintf "%s/%s n=%d rank=%d"
      op (Group.algorithm_name alg) n rank in
  Group.barrier ~alg g;
  (* bcast *)
  let payload = "broadcast-payload" in
  let got = Group.bcast ~alg g ~root ~max:64 (if rank = root then payload else "") in
  check_str (where "bcast") payload got;
  (* allreduce: integer-valued doubles, so any combine order is exact *)
  let contrib = pack_floats [| float_of_int (rank + 1); float_of_int (2 * (rank + 1)) |] in
  let expect = [| float_of_int (n * (n + 1) / 2); float_of_int (n * (n + 1)) |] in
  let r = Group.allreduce ~alg g ~op:Group.float_sum ~max:16 contrib in
  Alcotest.(check (array (float 0.0))) (where "allreduce") expect (unpack_floats r)

let algorithms =
  [ Group.Linear; Group.Binomial_tree; Group.Recursive_doubling; Group.Nic_forward ]

let correctness_case name make sizes =
  Alcotest.test_case name `Slow (fun () ->
      List.iter
        (fun n ->
          ignore
            (run_ranks ~n ~make (fun g rank ->
                 List.iter (fun alg -> exercise ~alg ~n g rank) algorithms)))
        sizes)

(* --- complexity: rounds and timestamps --------------------------------- *)

(* Per-iteration barrier latency: a warm-up barrier, then [iters] timed
   barriers between per-rank timestamps. Dividing the full span by the
   iteration count amortises the exit skew of the warm-up barrier. *)
let barrier_timing ~alg ~n ?nic () =
  let iters = 5 in
  let c = Cluster.create ~n () in
  let eps = Array.init n (fun i -> Cluster.emp c i) in
  let sim = Cluster.sim c in
  let start = Array.make n max_int in
  let finish = Array.make n 0 in
  let rounds = Array.make n 0 in
  for r = 0 to n - 1 do
    Sim.spawn sim
      ~name:(Printf.sprintf "rank%d" r)
      (fun () ->
        let g = Emp_group.create ?nic eps ~rank:r in
        Group.barrier ~alg g;
        start.(r) <- Sim.now sim;
        for _ = 1 to iters do
          Group.barrier ~alg g
        done;
        rounds.(r) <- Group.last_rounds g;
        finish.(r) <- Sim.now sim)
  done;
  (match Cluster.run c with
  | `Quiescent -> ()
  | _ -> Alcotest.fail "barrier timing: no quiesce");
  let span =
    Array.fold_left max 0 finish - Array.fold_left min max_int start
  in
  (span / iters, rounds)

let ceil_log2 n =
  let r = ref 0 in
  while 1 lsl !r < n do incr r done;
  !r

let rounds_test () =
  let n = 16 in
  let _, lin = barrier_timing ~alg:Group.Linear ~n () in
  Alcotest.(check int) "linear barrier root rounds O(N)" (2 * (n - 1)) lin.(0);
  let _, bin = barrier_timing ~alg:Group.Binomial_tree ~n () in
  Array.iteri
    (fun r k ->
      if k > 2 * ceil_log2 n then
        Alcotest.failf "binomial rank %d took %d rounds (> 2 log2 N = %d)" r k
          (2 * ceil_log2 n))
    bin

let timestamps_test () =
  let n = 16 in
  let lin, _ = barrier_timing ~alg:Group.Linear ~n () in
  let bin, _ = barrier_timing ~alg:Group.Binomial_tree ~n () in
  if not (bin < lin) then
    Alcotest.failf "binomial barrier (%d ns) not faster than linear (%d ns) at N=%d"
      bin lin n

let nic_barrier_test () =
  let n = 8 in
  let host, _ = barrier_timing ~alg:Group.Linear ~n () in
  let nic, _ = barrier_timing ~alg:Group.Nic_forward ~n () in
  if not (nic < host) then
    Alcotest.failf
      "NIC-forwarded barrier (%d ns) not faster than host linear barrier (%d ns) at N=8"
      nic host

(* --- suites ------------------------------------------------------------ *)

let sizes_emp = [ 2; 3; 4; 5; 8; 13; 16 ]

let wedged_span_test () =
  (* Rank 2 skips its barriers: the other ranks park in theirs and the
     cluster quiesces. The runner must say so, not divide a span whose
     finish times were never written. *)
  Alcotest.check_raises "ranks 0, 1 and 3 wedged"
    (Failure "collective benchmark: ranks 0, 1, 3 never finished")
    (fun () ->
      ignore
        (Uls_bench.Microbench.coll_span ~observe:None ~nodes:4 ~iters:3
           (fun g ~rank ->
             if rank <> 2 then Group.barrier ~alg:Group.Binomial_tree g)))

let suites =
  [
    ( "collective.correct",
      [
        correctness_case "emp all ops/algs" (emp_make ()) sizes_emp;
        correctness_case "emp no-nic fallback" (emp_make ~nic:false ()) [ 4 ];
      ] );
    ( "collective.complexity",
      [
        Alcotest.test_case "rounds: binomial O(log N) vs linear O(N)" `Quick
          rounds_test;
        Alcotest.test_case "timestamps: binomial beats linear at N=16" `Quick
          timestamps_test;
        Alcotest.test_case "NIC barrier beats host linear at N=8" `Quick
          nic_barrier_test;
        Alcotest.test_case "a wedged collective raises, naming its ranks"
          `Quick wedged_span_test;
      ] );
  ]
