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
   sort before fingerprinting. A run without a [cluster] is on a bare
   sim, with no substrate to fingerprint or scan. *)
let finish ?cluster sim ~conns ~observables stop =
  let leaks, subs =
    match cluster with
    | Some c -> (Sanitizer.scan ~conns c, Cluster.substrates c)
    | None -> ([], [])
  in
  let fingerprint =
    Fingerprint.capture ~observables:(List.sort compare observables) sim ~subs
  in
  {
    fingerprint;
    violations = Invariant.violations (Invariant.for_sim sim);
    deadlock = Deadlock.check sim;
    leaks;
    stop;
  }

(* Run a cluster workload to quiescence under [tiebreak], monitors on:
   [setup] spawns its fibers, recording each connection it opens in
   [conns] and each observable in [obs]. *)
let cluster_run ?(n = 2) ?match_engine tiebreak setup =
  let cluster = Cluster.create ?match_engine ~tiebreak ~n () in
  let sim = Cluster.sim cluster in
  Invariant.enable (Invariant.for_sim sim);
  let conns = ref [] and obs = ref [] in
  setup cluster sim conns obs;
  let stop = Cluster.run cluster in
  finish ~cluster sim ~conns:!conns ~observables:!obs stop

(* Node 0's side of a substrate workload: listen on [port], accept
   [accepts] connections, record each and hand it to [handle] with its
   peer's address, then close the listener. *)
let server sim sub ~conns ~name ~port ~backlog ~accepts handle =
  Sim.spawn sim ~name (fun () ->
      let l = Sub.listen sub ~port ~backlog in
      for _ = 1 to accepts do
        let conn, peer = Sub.accept sub l in
        conns := (0, conn) :: !conns;
        handle conn peer
      done;
      Sub.close_listener sub l)

(* A client fiber on [node], started 20 us in: [connect ()] opens a
   connection to node 0's [port] and records it. *)
let client sim sub ~conns ~node ~name ~port body =
  Sim.spawn sim ~name (fun () ->
      Sim.delay sim (Time.us 20);
      body (fun () ->
          let conn = Sub.connect sub { Uls_api.Sockets_api.node = 0; port } in
          conns := (node, conn) :: !conns;
          conn))

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

(* The substrate profile of the mini scale: the object under test is the
   schedule tree, not bulk payload, and the default 32-credit x 64 KB
   provisioning makes each of a sweep's hundreds of runs fault megabytes
   of fresh buffer pages (the whole sweep went from seconds to tens of
   seconds of kernel time without this). *)
let mini_opts ~mini =
  if mini then
    Some { Opt.data_streaming with Opt.credits = 4; buffer_size = 4_096 }
  else None

(* --- eager-echo: streaming mode, two clients echoed by one server --- *)

let eager_echo ?match_engine ~mini tiebreak =
  let opts = mini_opts ~mini in
  let writes =
    if mini then [ 512; 64 ] else [ 1_900; 4_096; 512; 9_000; 64; 2_048 ]
  in
  let total = List.fold_left ( + ) 0 writes in
  cluster_run ~n:3 ?match_engine tiebreak @@ fun cluster sim conns obs ->
  server sim (Cluster.substrate ?opts cluster 0) ~conns ~name:"echo-server"
    ~port:80 ~backlog:4 ~accepts:2 (fun conn _ ->
      Sim.spawn sim ~name:"echo-worker" (fun () ->
          let rec pump () =
            let chunk = Conn.read conn 8_192 in
            if chunk <> "" then begin
              Conn.write conn chunk;
              pump ()
            end
          in
          pump ();
          Conn.close conn));
  for client_node = 1 to 2 do
    client sim (Cluster.substrate ?opts cluster client_node) ~conns
      ~node:client_node ~port:80
      ~name:(Printf.sprintf "echo-client-%d" client_node) (fun connect ->
        let conn = connect () in
        List.iter
          (fun n -> Conn.write conn (pattern ~client:client_node n))
          writes;
        let back = read_exact conn total in
        obs :=
          Printf.sprintf "echo client=%d bytes=%d digest=%s" client_node
            (String.length back) (hex back)
          :: !obs;
        Conn.close conn)
  done

(* --- dg-rendezvous: datagram mode, large writes through the
   substrate's request/grant path from two clients at once (the surface
   of the shared-grant-queue bug this suite's fixture re-introduces) --- *)

let dg_rendezvous tiebreak =
  let opts = Opt.datagram in
  let msg_bytes = 96_000 (* > eager_max: forced onto rendezvous *) in
  let msgs = 3 in
  cluster_run ~n:3 tiebreak @@ fun cluster sim conns obs ->
  server sim (Cluster.substrate ~opts cluster 0) ~conns ~name:"dg-server"
    ~port:90 ~backlog:4 ~accepts:2 (fun conn peer ->
      Sim.spawn sim ~name:"dg-reader" (fun () ->
          for k = 1 to msgs do
            let msg = Conn.read conn msg_bytes in
            obs :=
              Printf.sprintf "dg from=%d msg=%d bytes=%d digest=%s"
                peer.Uls_api.Sockets_api.node k (String.length msg) (hex msg)
              :: !obs
          done;
          ignore (Conn.read conn 1);
          Conn.close conn));
  for client_node = 1 to 2 do
    client sim (Cluster.substrate ~opts cluster client_node) ~conns
      ~node:client_node ~port:90
      ~name:(Printf.sprintf "dg-client-%d" client_node) (fun connect ->
        let conn = connect () in
        for k = 1 to msgs do
          Conn.write conn (pattern ~client:((client_node * 10) + k) msg_bytes)
        done;
        Conn.close conn)
  done

(* --- connect-churn: connection setup/teardown cycles reclaim every
   descriptor (the 2N+3 provisioning of §5.3 against the leak scans) --- *)

let connect_churn ~mini tiebreak =
  let opts = mini_opts ~mini in
  let cycles = 4 in
  cluster_run tiebreak @@ fun cluster sim conns obs ->
  (* Both substrates exist before the server fiber spawns. *)
  let server_sub = Cluster.substrate ?opts cluster 0 in
  let client_sub = Cluster.substrate ?opts cluster 1 in
  server sim server_sub ~conns ~name:"churn-server" ~port:70 ~backlog:2
    ~accepts:cycles (fun conn _ ->
      let msg = read_exact conn 24 in
      Conn.write conn (hex msg);
      ignore (Conn.read conn 1);
      Conn.close conn);
  client sim client_sub ~conns ~node:1 ~name:"churn-client" ~port:70
    (fun connect ->
      for k = 1 to cycles do
        let conn = connect () in
        Conn.write conn (pattern ~client:k 24);
        let reply = read_exact conn 32 in
        obs := Printf.sprintf "churn cycle=%d reply=%s" k reply :: !obs;
        Conn.close conn
      done)

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
  cluster_run tiebreak @@ fun cluster sim _ obs ->
  let inv = Invariant.for_sim sim in
  let e0 = Cluster.emp cluster 0 in
  let e1 = Cluster.emp cluster 1 in
  let req_tag = 900 and grant_tag = 901 and data_tag = 910 in
  let size = 512 in
  let writers = 2 in
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
  done

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

let rings_firehose ~mini tiebreak =
  let msgs, batch = if mini then (6, 2) else (24, 4) in
  cluster_run tiebreak @@ fun cluster sim _ obs ->
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
      | None -> ())

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
  finish sim ~conns:[] ~observables:!obs stop

(* --- registry --------------------------------------------------------- *)

(* Sweep bounds. Micro fixtures get an unbounded preemption cap — their
   whole schedule tree fits in the run budget, so the explorer can claim
   exhaustiveness. Protocol scenarios get a preemption-bounded sweep
   (every schedule within [b_preemptions] deviations of FIFO). *)

let bounded b_runs b_preemptions = { b_runs; b_preemptions }

let row ?bound ?(buggy = false) sc_name sc_descr sc_run =
  { sc_name; sc_descr; sc_buggy = buggy; sc_run; sc_bound = bound }

(* A workload too slow to afford hundreds of schedules at full size is
   walked only; its "-mini" row, the same workload at the mini scale,
   carries the sweep. *)
let with_mini name descr ~mini run =
  [
    row name descr (run ~mini:false);
    row (name ^ "-mini") (name ^ " with " ^ mini) (run ~mini:true)
      ~bound:(bounded 160 1);
  ]

let clean_suite =
  List.concat
    [
      with_mini "eager-echo"
        "streaming echo through credit flow control, 2 clients"
        ~mini:"4 x 4 KB credits and two short writes"
        (eager_echo ?match_engine:None);
      with_mini "hashed-echo"
        "eager-echo over the hashed match engine: two RSS-steered receive \
         queues with concurrent dispatcher fibers"
        ~mini:"4 x 4 KB credits and two short writes"
        (eager_echo ~match_engine:Uls_nic.Match_list.Hashed);
      [
        row "dg-rendezvous" "datagram large messages over the request/grant path"
          dg_rendezvous;
      ];
      with_mini "connect-churn"
        "connect/transfer/close cycles reclaim all descriptors"
        ~mini:"4 x 4 KB credits" connect_churn;
      [
        row "rendezvous-grants"
          "raw-EMP grant protocol with per-request grant routing"
          (grant_fixture ~routed:true) ~bound:(bounded 256 2);
      ];
      with_mini "rings-firehose"
        "two producers batch-submitting into one shared tx ring, one reaper \
         retiring completions"
        ~mini:"6 messages per producer, batch 2" rings_firehose;
      [
        row "fabric-churn"
          "fleet arrivals over the sharded fabric: placement + completion \
           counts are schedule-independent"
          fabric_churn;
      ];
    ]

let buggy_suite =
  [
    row ~buggy:true "shared-grant-queue"
      "re-introduced grant-routing bug: grants popped from one shared mailbox"
      (grant_fixture ~routed:false) ~bound:(bounded 256 2);
    row ~buggy:true "lost-signal"
      "lost-wakeup fixture: a signal that fires before its waiter parks is \
       dropped — deadlock on exactly one of two schedules"
      lost_signal ~bound:(bounded 64 max_int);
  ]

let all = clean_suite @ buggy_suite
let find name = List.find_opt (fun sc -> sc.sc_name = name) all
