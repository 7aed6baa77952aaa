(* The invariant suite: small, closed workloads the schedule explorer
   runs under perturbed same-timestamp dispatch. A scenario builds a
   cluster with the requested tie-break policy, enables the invariant
   monitors, drives a workload to quiescence, then runs the sanitizers
   and captures the final-state fingerprint. Clean scenarios must
   fingerprint identically under every schedule; the buggy fixtures
   exist so CI can prove the explorer still catches the bug class they
   encode. *)

open Uls_engine
module Cluster = Uls_bench.Cluster
module Sub = Uls_substrate.Substrate
module Conn = Uls_substrate.Conn
module Opt = Uls_substrate.Options
module E = Uls_emp.Endpoint
module Mem = Uls_host.Memory

type tiebreak = Sim.tiebreak_spec

type outcome = {
  fingerprint : Fingerprint.t;
  violations : Invariant.violation list;
  deadlock : Deadlock.report option;
  leaks : Sanitizer.finding list;
  stop : [ `Quiescent | `Time_limit | `Stopped ];
}

(* Opt-in to the depth-first sweep. [b_runs] caps how many schedules
   the sweep executes; [b_preemptions] caps deviations from FIFO per
   schedule (max_int means the explorer may claim exhaustiveness if the
   tree drains within budget). *)
type bound = {
  b_runs : int;
  b_preemptions : int;
}

type t = {
  sc_name : string;
  sc_descr : string;
  sc_buggy : bool;
  sc_run : tiebreak -> outcome;
  sc_bound : bound option;
}

(* Observables accumulate from concurrently finishing fibers, so their
   arrival order is schedule-dependent even when their contents are not:
   sort before fingerprinting. *)
let finish cluster ~conns ~observables stop =
  let sim = Cluster.sim cluster in
  let leaks = Sanitizer.scan ~conns:!conns cluster in
  let fingerprint =
    Fingerprint.capture
      ~observables:(List.sort compare !observables)
      sim
      ~subs:(Cluster.substrates cluster)
  in
  {
    fingerprint;
    violations = Invariant.violations (Invariant.for_sim sim);
    deadlock = Deadlock.check sim;
    leaks;
    stop;
  }

let start ?(n = 2) ?match_engine tiebreak =
  let cluster = Cluster.create ?match_engine ~tiebreak ~n () in
  Invariant.enable (Invariant.for_sim (Cluster.sim cluster));
  cluster

let read_exact conn need =
  let buf = Buffer.create need in
  let rec go () =
    if Buffer.length buf < need then begin
      let chunk = Conn.read conn (need - Buffer.length buf) in
      if chunk <> "" then begin
        Buffer.add_string buf chunk;
        go ()
      end
    end
  in
  go ();
  Buffer.contents buf

let pattern ~client n =
  String.init n (fun j -> Char.chr (Char.code 'a' + ((client * 31 + j * 7) mod 26)))

let hex s = Digest.to_hex (Digest.string s)

(* --- eager-echo: streaming mode, two clients echoed by one server --- *)

let eager_echo ?match_engine ?opts
    ?(writes = [ 1_900; 4_096; 512; 9_000; 64; 2_048 ]) tiebreak =
  let cluster = start ~n:3 ?match_engine tiebreak in
  let sim = Cluster.sim cluster in
  let conns = ref [] and obs = ref [] in
  let server = Cluster.substrate ?opts cluster 0 in
  let total = List.fold_left ( + ) 0 writes in
  Sim.spawn sim ~name:"echo-server" (fun () ->
      let l = Sub.listen server ~port:80 ~backlog:4 in
      for _ = 1 to 2 do
        let conn, _ = Sub.accept server l in
        conns := (0, conn) :: !conns;
        Sim.spawn sim ~name:"echo-worker" (fun () ->
            let rec pump () =
              let chunk = Conn.read conn 8_192 in
              if chunk <> "" then begin
                Conn.write conn chunk;
                pump ()
              end
            in
            pump ();
            Conn.close conn)
      done;
      Sub.close_listener server l);
  for client = 1 to 2 do
    let sub = Cluster.substrate ?opts cluster client in
    Sim.spawn sim ~name:(Printf.sprintf "echo-client-%d" client) (fun () ->
        Sim.delay sim (Time.us 20);
        let conn = Sub.connect sub { Uls_api.Sockets_api.node = 0; port = 80 } in
        conns := (client, conn) :: !conns;
        List.iter (fun n -> Conn.write conn (pattern ~client n)) writes;
        let back = read_exact conn total in
        obs :=
          Printf.sprintf "echo client=%d bytes=%d digest=%s" client
            (String.length back) (hex back)
          :: !obs;
        Conn.close conn)
  done;
  let stop = Cluster.run cluster in
  finish cluster ~conns ~observables:obs stop

(* --- dg-rendezvous: datagram mode, large writes through the
   substrate's request/grant path from two clients at once (the surface
   of the shared-grant-queue bug this suite's fixture re-introduces) --- *)

let dg_rendezvous tiebreak =
  let cluster = start ~n:3 tiebreak in
  let sim = Cluster.sim cluster in
  let conns = ref [] and obs = ref [] in
  let opts = Opt.datagram in
  let server = Cluster.substrate ~opts cluster 0 in
  let msg_bytes = 96_000 (* > eager_max: forced onto rendezvous *) in
  let msgs = 3 in
  Sim.spawn sim ~name:"dg-server" (fun () ->
      let l = Sub.listen server ~port:90 ~backlog:4 in
      for _ = 1 to 2 do
        let conn, peer = Sub.accept server l in
        conns := (0, conn) :: !conns;
        Sim.spawn sim ~name:"dg-reader" (fun () ->
            for k = 1 to msgs do
              let msg = Conn.read conn msg_bytes in
              obs :=
                Printf.sprintf "dg from=%d msg=%d bytes=%d digest=%s"
                  peer.Uls_api.Sockets_api.node k (String.length msg) (hex msg)
                :: !obs
            done;
            ignore (Conn.read conn 1);
            Conn.close conn)
      done;
      Sub.close_listener server l);
  for client = 1 to 2 do
    let sub = Cluster.substrate ~opts cluster client in
    Sim.spawn sim ~name:(Printf.sprintf "dg-client-%d" client) (fun () ->
        Sim.delay sim (Time.us 20);
        let conn = Sub.connect sub { Uls_api.Sockets_api.node = 0; port = 90 } in
        conns := (client, conn) :: !conns;
        for k = 1 to msgs do
          Conn.write conn (pattern ~client:(client * 10 + k) msg_bytes)
        done;
        Conn.close conn)
  done;
  let stop = Cluster.run cluster in
  finish cluster ~conns ~observables:obs stop

(* --- connect-churn: connection setup/teardown cycles reclaim every
   descriptor (the 2N+3 provisioning of §5.3 against the leak scans) --- *)

let connect_churn ?opts tiebreak =
  let cluster = start ~n:2 tiebreak in
  let sim = Cluster.sim cluster in
  let conns = ref [] and obs = ref [] in
  let server = Cluster.substrate ?opts cluster 0 in
  let client = Cluster.substrate ?opts cluster 1 in
  let cycles = 4 in
  Sim.spawn sim ~name:"churn-server" (fun () ->
      let l = Sub.listen server ~port:70 ~backlog:2 in
      for _ = 1 to cycles do
        let conn, _ = Sub.accept server l in
        conns := (0, conn) :: !conns;
        let msg = read_exact conn 24 in
        Conn.write conn (hex msg);
        ignore (Conn.read conn 1);
        Conn.close conn
      done;
      Sub.close_listener server l);
  Sim.spawn sim ~name:"churn-client" (fun () ->
      Sim.delay sim (Time.us 20);
      for k = 1 to cycles do
        let conn = Sub.connect client { Uls_api.Sockets_api.node = 0; port = 70 } in
        conns := (1, conn) :: !conns;
        Conn.write conn (pattern ~client:k 24);
        let reply = read_exact conn 32 in
        obs := Printf.sprintf "churn cycle=%d reply=%s" k reply :: !obs;
        Conn.close conn
      done);
  let stop = Cluster.run cluster in
  finish cluster ~conns ~observables:obs stop

(* --- raw-EMP grant fixture -------------------------------------------
   A miniature rendezvous protocol over bare EMP. Two writer fibers on
   node 1 each request a transfer; the receiver on node 0 posts a
   per-request receive buffer tagged with the request id and answers
   with a grant naming that id. The [routed] variant delivers each grant
   to the mailbox of the writer that requested it (per-rid routing — the
   PR 2 fix); the buggy variant pushes all grants through one shared
   mailbox, so whichever writer pops first claims whatever grant arrived
   first. Under FIFO dispatch the orders happen to agree; once the
   schedule reorders the tie, the writers' wake-up order at the gate decouples from the
   grant arrival order and the pairing crosses — caught both by the
   [scenario.grant_routing] invariant and by fingerprint divergence. *)

let grant_fixture ~routed tiebreak =
  let cluster = start ~n:2 tiebreak in
  let sim = Cluster.sim cluster in
  let inv = Invariant.for_sim sim in
  let e0 = Cluster.emp cluster 0 in
  let e1 = Cluster.emp cluster 1 in
  let req_tag = 900 and grant_tag = 901 and data_tag = 910 in
  let size = 512 in
  let writers = 2 in
  let obs = ref [] in
  (* Receiver: one handler fiber per expected request. *)
  for i = 0 to writers - 1 do
    Sim.spawn sim ~name:(Printf.sprintf "grant-server-%d" i) (fun () ->
        let req_reg = Mem.alloc 64 in
        let req_rv = E.post_recv e0 ~src:1 ~tag:req_tag req_reg ~off:0 ~len:64 in
        let len, _, _ = E.wait_recv e0 req_rv in
        let rid, sz =
          match String.split_on_char ':' (Mem.sub_string req_reg ~off:0 ~len) with
          | [ a; b ] -> (int_of_string a, int_of_string b)
          | _ -> failwith "grant fixture: malformed request"
        in
        let data_reg = Mem.alloc sz in
        let data_rv =
          E.post_recv e0 ~src:1 ~tag:(data_tag + rid) data_reg ~off:0 ~len:sz
        in
        let grant = Mem.of_string (string_of_int rid) in
        E.wait_send e0
          (E.post_send e0 ~dst:1 ~tag:grant_tag grant ~off:0
             ~len:(Mem.length grant));
        let dlen, _, _ = E.wait_recv e0 data_rv in
        let payload = Mem.sub_string data_reg ~off:0 ~len:dlen in
        let writer =
          if dlen > 0 then Char.code payload.[0] - Char.code '0' else -1
        in
        Invariant.check inv ~name:"scenario.grant_routing" (writer = rid)
          (fun () ->
            Printf.sprintf
              "grant for request %d consumed by writer %d (grants crossed)"
              rid writer);
        obs :=
          Printf.sprintf "grant rid=%d len=%d writer=%d digest=%s" rid dlen
            writer (hex payload)
          :: !obs)
  done;
  (* Client node: grant delivery, then the writers. *)
  let gate = Cond.create ~label:"grant-gate" sim in
  let shared = Mailbox.create ~label:"shared-grant-queue" sim in
  let routed_boxes =
    Array.init writers (fun i ->
        Mailbox.create ~label:(Printf.sprintf "grant-queue-%d" i) sim)
  in
  let grants_seen = ref 0 in
  for i = 0 to writers - 1 do
    Sim.spawn sim ~name:(Printf.sprintf "grant-pump-%d" i) (fun () ->
        let reg = Mem.alloc 16 in
        let rv = E.post_recv e1 ~src:0 ~tag:grant_tag reg ~off:0 ~len:16 in
        let len, _, _ = E.wait_recv e1 rv in
        let rid = int_of_string (Mem.sub_string reg ~off:0 ~len) in
        if routed then Mailbox.send routed_boxes.(rid) rid
        else Mailbox.send shared rid;
        incr grants_seen;
        (* Release every writer at the same instant once all grants are
           queued: their wake-up order is exactly what the explorer
           perturbs. *)
        if !grants_seen = writers then Cond.broadcast gate)
  done;
  for c = 0 to writers - 1 do
    Sim.spawn sim ~name:(Printf.sprintf "grant-writer-%d" c) (fun () ->
        let req = Mem.of_string (Printf.sprintf "%d:%d" c size) in
        E.wait_send e1
          (E.post_send e1 ~dst:0 ~tag:req_tag req ~off:0 ~len:(Mem.length req));
        while !grants_seen < writers do
          Cond.wait gate
        done;
        let grid =
          if routed then Mailbox.recv routed_boxes.(c) else Mailbox.recv shared
        in
        let data = Mem.of_string (String.make size (Char.chr (Char.code '0' + c))) in
        E.wait_send e1
          (E.post_send e1 ~dst:0 ~tag:(data_tag + grid) data ~off:0 ~len:size))
  done;
  let stop = Cluster.run cluster in
  finish cluster ~conns:(ref []) ~observables:obs stop

(* --- fabric-churn: session arrivals over the sharded serving fabric ---
   Unlike the raw-substrate scenarios above, this one drives the whole
   stack-on-top — ring placement, reuseport demux, per-cell schedulers —
   through the serving driver's open-loop session arrivals, and
   fingerprints the report's schedule-independent facts (placement,
   completion and failure counts, cell states). The driver owns its
   cluster, so the sanitizer/invariant channels are empty here;
   divergence of the observables across tie-breaks is the signal. *)

let fabric_churn tiebreak =
  let module L = Uls_bench.Load in
  let r =
    L.run
      {
        L.default with
        topology = L.Fabric { L.fabric with cells = 3; shards = 2 };
        arrival = L.Sessions 20_000.;
        conns = 32;
        requests_per_conn = 2;
        size = 96;
        client_nodes = 2;
        backlog = 128;
        seed = 11;
        tiebreak = Some tiebreak;
      }
  in
  let obs =
    Printf.sprintf
      "fleet established=%d completed=%d shed=%d refused=%d resets=%d \
       errors=%d mismatches=%d no_route=%d remapped=%d quiesced=%b intact=%b"
      r.L.established r.completed r.shed r.refused r.resets r.errors
      r.mismatches r.no_route r.remapped r.completed_run r.intact
    :: Array.to_list
         (Array.mapi
            (fun id (c : L.cell_report) ->
              Printf.sprintf "cell %d state=%s conns=%d completed=%d shed=%d"
                id c.c_state c.c_connects c.c_completed c.c_shed)
            r.per_cell)
  in
  {
    fingerprint = Fingerprint.capture ~observables:obs (Sim.create ()) ~subs:[];
    violations = [];
    deadlock = None;
    leaks = [];
    stop = (if r.completed_run then `Quiescent else `Time_limit);
  }

(* --- rings-firehose: two producers, one reaper, one shared tx ring ---
   Two producer fibers interleave batched submissions ([post_sendv])
   into the same endpoint submission ring while a single reaper retires
   completions through the completion ring — the SQ cursor handoff,
   doorbell arming and CQ reaping are exactly the shared state the
   explorer perturbs. Every message is tag-addressed, so a cross-producer
   descriptor mixup surfaces as a digest mismatch at the receiver.
   Doorbell/fetch-batch counts are schedule-dependent (a doorbell rung
   mid-fetch coalesces), so the fingerprint takes only the
   schedule-independent ring facts: submitted and completed. *)

let rings_firehose ?(msgs = 24) ?(batch = 4) tiebreak =
  let cluster = start ~n:2 tiebreak in
  let sim = Cluster.sim cluster in
  let obs = ref [] in
  let e0 = Cluster.emp cluster 0 and e1 = Cluster.emp cluster 1 in
  let producers = 2 and size = 96 in
  let payload p i =
    String.init size (fun j ->
        Char.chr (Char.code 'a' + (((p * 7) + (i * 3) + j) mod 26)))
  in
  (* Receiver: one fiber per producer, descriptors pre-posted through
     the fill ring so no message ever races a missing descriptor. *)
  for p = 0 to producers - 1 do
    Sim.spawn sim
      ~name:(Printf.sprintf "fire-recv-%d" p)
      (fun () ->
        let specs =
          List.init msgs (fun i -> (0, (p * 100) + i, Mem.alloc size, 0, size))
        in
        let rvs = E.post_recv_batch e1 specs in
        List.iteri
          (fun i rv ->
            let len, _, _ = E.wait_recv e1 rv in
            let _, _, reg, _, _ = List.nth specs i in
            let got = Mem.sub_string reg ~off:0 ~len in
            obs :=
              Printf.sprintf "fire p=%d i=%d len=%d ok=%b digest=%s" p i len
                (got = payload p i) (hex got)
              :: !obs)
          rvs)
  done;
  let pending = Mailbox.create ~label:"fire-pending" sim in
  let total = producers * msgs in
  for p = 0 to producers - 1 do
    Sim.spawn sim
      ~name:(Printf.sprintf "fire-prod-%d" p)
      (fun () ->
        Sim.delay sim (Time.us 30);
        let i = ref 0 in
        while !i < msgs do
          let k = min batch (msgs - !i) in
          let specs =
            List.init k (fun j ->
                let idx = !i + j in
                (1, (p * 100) + idx, Mem.of_string (payload p idx), 0, size))
          in
          let sends = E.post_sendv e0 specs in
          List.iter (fun s -> Mailbox.send pending s) sends;
          i := !i + k
        done)
  done;
  Sim.spawn sim ~name:"fire-reaper" (fun () ->
      let retired = ref 0 in
      while !retired < total do
        let s = Mailbox.recv pending in
        E.wait_send e0 s;
        incr retired;
        ignore (E.reap_sent e0)
      done;
      obs := Printf.sprintf "fire reaper retired=%d" !retired :: !obs;
      match E.tx_ring_stats e0 with
      | Some s ->
        obs :=
          Printf.sprintf "fire ring submitted=%d completed=%d"
            s.Uls_rings.Ringpair.submitted s.Uls_rings.Ringpair.completed
          :: !obs
      | None -> ());
  let stop = Cluster.run cluster in
  finish cluster ~conns:(ref []) ~observables:obs stop

(* --- lost-signal: a wakeup that only gets lost off the FIFO path ------
   The canonical lost-wakeup: a waiter parks on a condition and a
   signaller fires exactly once, both scheduled at the same instant.
   Under FIFO the waiter parks first and the signal lands; if the
   signaller wins the tie the signal finds no waiter and is dropped, and
   the waiter parks forever — a deadlock that exists on exactly one of
   the two possible schedules. A seeded walk finds it with probability
   1/2; the depth-first sweep proves both schedules. Runs on a bare sim
   (no cluster) so the schedule tree is exactly the two fibers. *)

let lost_signal tiebreak =
  let sim = Sim.create () in
  Sim.set_tiebreak sim tiebreak;
  Invariant.enable (Invariant.for_sim sim);
  let obs = ref [] in
  let ready = Cond.create ~label:"lost-signal-ready" sim in
  Sim.spawn sim ~name:"ls-waiter" (fun () ->
      Cond.wait ready;
      obs := "ls waiter woke" :: !obs);
  Sim.spawn sim ~name:"ls-signaller" (fun () ->
      Cond.signal ready;
      obs := "ls signalled" :: !obs);
  let stop = Sim.run sim in
  {
    fingerprint =
      Fingerprint.capture ~observables:(List.sort compare !obs) sim ~subs:[];
    violations = Invariant.violations (Invariant.for_sim sim);
    deadlock = Deadlock.check sim;
    leaks = [];
    stop;
  }

(* --- registry --------------------------------------------------------- *)

(* Sweep bounds. Micro fixtures get an unbounded preemption cap — their
   whole schedule tree fits in the run budget, so the explorer can claim
   exhaustiveness. Protocol scenarios get a preemption-bounded sweep
   (every schedule within [b_preemptions] deviations of FIFO); where a
   full-size run is too slow to afford hundreds of schedules, the
   full-size scenario is walked only and a "-mini" variant of the same
   workload carries the sweep. *)

(* Compact substrate profile for the "-mini" variants: the object under
   test is the schedule tree, not bulk payload, and the default
   32-credit x 64 KB provisioning makes each of the hundreds of runs
   fault megabytes of fresh buffer pages (the whole sweep went from
   seconds to tens of seconds of kernel time without this). *)
let mini_opts =
  { Opt.data_streaming with Opt.credits = 4; buffer_size = 4_096 }

let exhaustive runs = Some { b_runs = runs; b_preemptions = max_int }

let preemption_bounded ~runs ~preemptions =
  Some { b_runs = runs; b_preemptions = preemptions }

let clean_suite =
  [
    {
      sc_name = "eager-echo";
      sc_descr = "streaming echo through credit flow control, 2 clients";
      sc_buggy = false;
      sc_run = eager_echo ?match_engine:None ?opts:None ?writes:None;
      sc_bound = None;
    };
    {
      sc_name = "eager-echo-mini";
      sc_descr = "eager-echo with 4 x 4 KB credits and two short writes";
      sc_buggy = false;
      sc_run =
        eager_echo ?match_engine:None ~opts:mini_opts ~writes:[ 512; 64 ];
      sc_bound = preemption_bounded ~runs:160 ~preemptions:1;
    };
    {
      sc_name = "hashed-echo";
      sc_descr = "eager-echo over the hashed match engine: two RSS-steered \
                  receive queues with concurrent dispatcher fibers";
      sc_buggy = false;
      sc_run =
        eager_echo ~match_engine:Uls_nic.Match_list.Hashed ?opts:None
          ?writes:None;
      sc_bound = None;
    };
    {
      sc_name = "hashed-echo-mini";
      sc_descr = "hashed-echo with 4 x 4 KB credits and two short writes";
      sc_buggy = false;
      sc_run =
        eager_echo ~match_engine:Uls_nic.Match_list.Hashed ~opts:mini_opts
          ~writes:[ 512; 64 ];
      sc_bound = preemption_bounded ~runs:160 ~preemptions:1;
    };
    {
      sc_name = "dg-rendezvous";
      sc_descr = "datagram large messages over the request/grant path";
      sc_buggy = false;
      sc_run = dg_rendezvous;
      sc_bound = None;
    };
    {
      sc_name = "connect-churn";
      sc_descr = "connect/transfer/close cycles reclaim all descriptors";
      sc_buggy = false;
      sc_run = connect_churn ?opts:None;
      sc_bound = None;
    };
    {
      sc_name = "connect-churn-mini";
      sc_descr = "connect-churn with 4 x 4 KB credits";
      sc_buggy = false;
      sc_run = connect_churn ~opts:mini_opts;
      sc_bound = preemption_bounded ~runs:160 ~preemptions:1;
    };
    {
      sc_name = "rendezvous-grants";
      sc_descr = "raw-EMP grant protocol with per-request grant routing";
      sc_buggy = false;
      sc_run = grant_fixture ~routed:true;
      sc_bound = preemption_bounded ~runs:256 ~preemptions:2;
    };
    {
      sc_name = "rings-firehose";
      sc_descr = "two producers batch-submitting into one shared tx ring, \
                  one reaper retiring completions";
      sc_buggy = false;
      sc_run = rings_firehose ?msgs:None ?batch:None;
      sc_bound = None;
    };
    {
      sc_name = "rings-firehose-mini";
      sc_descr = "rings-firehose with 6 messages per producer, batch 2";
      sc_buggy = false;
      sc_run = rings_firehose ~msgs:6 ~batch:2;
      sc_bound = preemption_bounded ~runs:160 ~preemptions:1;
    };
    {
      sc_name = "fabric-churn";
      sc_descr = "fleet arrivals over the sharded fabric: placement + \
                  completion counts are schedule-independent";
      sc_buggy = false;
      sc_run = fabric_churn;
      sc_bound = None;
    };
  ]

let buggy_suite =
  [
    {
      sc_name = "shared-grant-queue";
      sc_descr =
        "re-introduced PR 2 bug: grants popped from one shared mailbox";
      sc_buggy = true;
      sc_run = grant_fixture ~routed:false;
      sc_bound = preemption_bounded ~runs:256 ~preemptions:2;
    };
    {
      sc_name = "lost-signal";
      sc_descr =
        "lost-wakeup fixture: a signal that fires before its waiter parks \
         is dropped — deadlock on exactly one of two schedules";
      sc_buggy = true;
      sc_run = lost_signal;
      sc_bound = exhaustive 64;
    };
  ]

let all = clean_suite @ buggy_suite
let find name = List.find_opt (fun sc -> sc.sc_name = name) all
