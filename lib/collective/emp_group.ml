open Uls_engine
open Uls_emp

type t = {
  sim : Sim.t;
  eps : Endpoint.t array;
  rank : int;
  os : Uls_host.Os.t;
  pool : (int, Uls_host.Memory.region Queue.t) Hashtbl.t;
}

(* Prepinned staging buffers in power-of-two buckets (same idea as the
   substrate's send pool): collectives reuse a handful of regions, so
   after warm-up every post hits the translation cache and no pin
   syscall lands on the timed path. *)
let bucket len =
  let len = max 64 len in
  let b = ref 64 in
  while !b < len do b := !b * 2 done;
  !b

let take t len =
  let b = bucket len in
  match Hashtbl.find_opt t.pool b with
  | Some q when not (Queue.is_empty q) -> Queue.pop q
  | _ ->
    let r = Uls_host.Memory.alloc b in
    Uls_host.Os.prepin t.os r;
    r

let give t r =
  let b = Uls_host.Memory.length r in
  let q =
    match Hashtbl.find_opt t.pool b with
    | Some q -> q
    | None ->
      let q = Queue.create () in
      Hashtbl.add t.pool b q;
      q
  in
  Queue.push r q

let send t ~dst ~tag data =
  let len = String.length data in
  let r = take t len in
  Uls_host.Memory.blit_from_string data r ~off:0;
  let ep = t.eps.(t.rank) in
  let s =
    Endpoint.post_send ep ~dst:(Endpoint.node_id t.eps.(dst)) ~tag r ~off:0 ~len
  in
  Endpoint.wait_send ep s;
  give t r

let irecv t ~src ~tag ~max =
  let r = take t max in
  let ep = t.eps.(t.rank) in
  let rv =
    Endpoint.post_recv ep
      ~src:(Endpoint.node_id t.eps.(src))
      ~tag r ~off:0 ~len:(Uls_host.Memory.length r)
  in
  fun () ->
    let len, _, _ = Endpoint.wait_recv ep rv in
    let s = Uls_host.Memory.sub_string r ~off:0 ~len in
    give t r;
    s

(* NIC-offloaded barrier/bcast tags live in their own space (no 0x8000
   bit needed: they never traverse EMP tag matching, only the NIC's
   forward-on-match list). Phase 0 = arrive, 1 = release, 2 = bcast. *)
let nic_tag ~seq ~phase = ((seq land 0x3FFF) * 4) + phase

let make_nic_ops t =
  let size = Array.length t.eps in
  let rank = t.rank in
  let nic = Endpoint.nic t.eps.(rank) in
  Uls_nic.Tigon.set_coll_classifier nic Coll_wire.classify;
  let node r = Endpoint.node_id t.eps.(r) in
  let my_node = node rank in
  let nic_barrier ~seq =
    if size > 1 then begin
      let atag = nic_tag ~seq ~phase:0 and rtag = nic_tag ~seq ~phase:1 in
      let kids = Group.Tree.children ~root:0 ~size rank in
      let finished = ref false in
      let cond =
        Cond.create ~label:(Printf.sprintf "coll:r%d barrier" rank) t.sim
      in
      let release_frames _ =
        List.map
          (fun c -> Coll_wire.frame ~src:my_node ~dst:(node c) ~tag:rtag "")
          kids
      in
      (match Group.Tree.parent ~root:0 ~size rank with
      | None ->
        (* Root: when every child subtree (plus this host) has arrived,
           the firmware releases the children directly and DMAs the
           completion up — the host fiber sleeps through the fan-in. *)
        Uls_nic.Tigon.post_forward nic ~src:(-1) ~tag:atag
          ~need:(List.length kids + 1)
          ~deliver:(fun _ ->
            finished := true;
            Cond.broadcast cond)
          ~emit:release_frames ()
      | Some p ->
        (* Combine-and-forward: collect children + local doorbell, then
           emit one arrive frame towards the parent. *)
        Uls_nic.Tigon.post_forward nic ~src:(-1) ~tag:atag
          ~need:(List.length kids + 1)
          ~emit:(fun _ ->
            [ Coll_wire.frame ~src:my_node ~dst:(node p) ~tag:atag "" ])
          ();
        (* Release: one frame from the parent fans out to the children
           and wakes the host. *)
        Uls_nic.Tigon.post_forward nic ~src:(node p) ~tag:rtag ~need:1
          ~deliver:(fun _ ->
            finished := true;
            Cond.broadcast cond)
          ~emit:release_frames ());
      Uls_nic.Tigon.coll_signal nic ~tag:atag;
      Cond.wait_until cond (fun () -> !finished)
    end
  in
  let nic_bcast ~seq ~root ~max data =
    (* Single-frame payloads only; [max] is uniform across ranks, so
       every rank falls back together when it does not fit. *)
    if max > Coll_wire.max_body then None
    else if size = 1 then Some data
    else begin
      let btag = nic_tag ~seq ~phase:2 in
      let kids = Group.Tree.children ~root ~size rank in
      let frames_for body =
        List.map
          (fun c -> Coll_wire.frame ~src:my_node ~dst:(node c) ~tag:btag body)
          kids
      in
      if rank = root then begin
        List.iter (Uls_nic.Tigon.coll_inject nic) (frames_for data);
        Some data
      end
      else begin
        let p = Option.get (Group.Tree.parent ~root ~size rank) in
        let result = ref None in
        let cond =
          Cond.create ~label:(Printf.sprintf "coll:r%d bcast" rank) t.sim
        in
        Uls_nic.Tigon.post_forward nic ~src:(node p) ~tag:btag ~need:1
          ~deliver:(fun fr ->
            let body = match fr with Some f -> Coll_wire.body f | None -> "" in
            result := Some body;
            Cond.broadcast cond)
          ~emit:(fun fr ->
            match fr with Some f -> frames_for (Coll_wire.body f) | None -> [])
          ();
        Cond.wait_until cond (fun () -> !result <> None);
        !result
      end
    end
  in
  { Group.nic_barrier; nic_bcast }

(* Each rank's unexpected queue: 16 slots of 4096 B absorb the
   cross-rank races at operation entry. *)
let uq_slots = 16
let uq_size = 4096

let create ?(nic = true) eps ~rank =
  if Array.length eps = 0 then invalid_arg "Emp_group.create: no endpoints";
  if rank < 0 || rank >= Array.length eps then
    invalid_arg "Emp_group.create: rank";
  let ep = eps.(rank) in
  let t =
    {
      sim = Endpoint.sim ep;
      eps;
      rank;
      os = Uls_host.Node.os (Endpoint.node ep);
      pool = Hashtbl.create 8;
    }
  in
  Endpoint.provision_unexpected ep ~slots:uq_slots ~size:uq_size;
  let tr =
    {
      Group.rank;
      size = Array.length eps;
      send = (fun ~dst ~tag data -> send t ~dst ~tag data);
      irecv = (fun ~src ~tag ~max -> irecv t ~src ~tag ~max);
    }
  in
  let nic_ops = if nic then Some (make_nic_ops t) else None in
  Group.create ?nic:nic_ops ~sim:t.sim tr
