open Uls_engine

type algorithm = Linear | Binomial_tree | Recursive_doubling | Nic_forward

let algorithm_name = function
  | Linear -> "linear"
  | Binomial_tree -> "binomial"
  | Recursive_doubling -> "recdbl"
  | Nic_forward -> "nic"

type op = { op_name : string; combine : string -> string -> string }

let float_sum =
  {
    op_name = "float-sum";
    combine =
      (fun a b ->
        if String.length a <> String.length b then
          invalid_arg "Group.float_sum: operand lengths differ";
        if String.length a mod 8 <> 0 then
          invalid_arg "Group.float_sum: not a packed double vector";
        let out = Bytes.create (String.length a) in
        for i = 0 to (String.length a / 8) - 1 do
          let x = Int64.float_of_bits (String.get_int64_le a (i * 8)) in
          let y = Int64.float_of_bits (String.get_int64_le b (i * 8)) in
          Bytes.set_int64_le out (i * 8) (Int64.bits_of_float (x +. y))
        done;
        Bytes.to_string out);
  }

type handle = unit -> string

type transport = {
  rank : int;
  size : int;
  send : dst:int -> tag:int -> string -> unit;
  irecv : src:int -> tag:int -> max:int -> handle;
}

type nic_ops = {
  nic_barrier : seq:int -> unit;
  nic_bcast : seq:int -> root:int -> max:int -> string -> string option;
}

(* Metric handles resolved once at construction — collectives sit on
   the hot path, so per-call name lookups are banned (ulslint
   metrics-name-lookup). *)
type counters = {
  hc_barrier : Stats.Counter.t;
  hc_bcast : Stats.Counter.t;
  hc_allreduce : Stats.Counter.t;
  hh_rounds : Stats.Summary.t;
}

type t = {
  tr : transport;
  nic : nic_ops option;
  mutable seq : int;
  mutable last_rounds : int;
  hot : counters option;
  trace : Trace.t option;
}

let create ?nic ?sim tr =
  if tr.size <= 0 then invalid_arg "Group.create: size must be positive";
  if tr.rank < 0 || tr.rank >= tr.size then invalid_arg "Group.create: rank";
  {
    tr;
    nic;
    seq = 0;
    last_rounds = 0;
    hot =
      Option.map
        (fun sim ->
          let metrics = Metrics.for_sim sim in
          let counter name = Metrics.counter metrics ~node:tr.rank name in
          {
            hc_barrier = counter "coll.barrier";
            hc_bcast = counter "coll.bcast";
            hc_allreduce = counter "coll.allreduce";
            hh_rounds = Metrics.histogram metrics ~node:tr.rank "coll.rounds";
          })
        sim;
    trace = Option.map Trace.for_sim sim;
  }

let last_rounds t = t.last_rounds

(* Wrap one collective in a Collective-layer span (when the transport
   wired a simulation in) and record the per-op round count — the
   quantity the algorithm families trade against each other. *)
let observed t name alg sel f =
  let r =
    match t.trace with
    | Some trace when Trace.enabled trace ->
      Trace.span trace ~layer:Trace.Collective ~node:t.tr.rank ~seq:t.seq name
        ~args:[ ("alg", algorithm_name alg) ]
        f
    | _ -> f ()
  in
  (match t.hot with
  | None -> ()
  | Some h ->
    Stats.Counter.incr (sel h);
    Stats.Summary.add h.hh_rounds (float_of_int t.last_rounds));
  r

(* Every collective consumes one sequence number; ranks stay in lockstep
   because collectives must be called in the same order on every member.
   The high bit keeps collective tags out of the application tag space. *)
let tag_of ~seq ~round = 0x8000 lor ((seq land 0x1FF) lsl 5) lor (round land 0x1F)

let next_seq t =
  let s = t.seq in
  t.seq <- t.seq + 1;
  t.last_rounds <- 0;
  s

let send t ~dst ~tag data =
  t.tr.send ~dst ~tag data;
  t.last_rounds <- t.last_rounds + 1

let irecv t ~src ~tag ~max = t.tr.irecv ~src ~tag ~max

let await t h =
  let r = h () in
  t.last_rounds <- t.last_rounds + 1;
  r

(* --- binomial tree shape ---------------------------------------------- *)

module Tree = struct
  let rel ~root ~size r = (r - root + size) mod size
  let unrel ~root ~size rr = (rr + root) mod size

  let parent ~root ~size r =
    let rr = rel ~root ~size r in
    if rr = 0 then None else Some (unrel ~root ~size (rr land (rr - 1)))

  let children ~root ~size r =
    let rr = rel ~root ~size r in
    let lowbit = if rr = 0 then size else rr land -rr in
    let rec collect j acc =
      let step = 1 lsl j in
      if step >= lowbit || rr + step >= size then List.rev acc
      else collect (j + 1) (unrel ~root ~size (rr + step) :: acc)
    in
    collect 0 []
end

let floor_pow2 n =
  let p = ref 1 in
  while !p * 2 <= n do p := !p * 2 done;
  !p

let check_root t root =
  if root < 0 || root >= t.tr.size then invalid_arg "Group: root out of range"

(* --- barrier ----------------------------------------------------------- *)

let barrier_linear t ~seq =
  let { rank; size; _ } = t.tr in
  let atag = tag_of ~seq ~round:0 and rtag = tag_of ~seq ~round:1 in
  if rank = 0 then begin
    let hs = List.init (size - 1) (fun i -> irecv t ~src:(i + 1) ~tag:atag ~max:0) in
    List.iter (fun h -> ignore (await t h)) hs;
    for i = 1 to size - 1 do
      send t ~dst:i ~tag:rtag ""
    done
  end
  else begin
    (* Post the release descriptor before announcing arrival, so the
       root's release can never race an unposted receive. *)
    let release = irecv t ~src:0 ~tag:rtag ~max:0 in
    send t ~dst:0 ~tag:atag "";
    ignore (await t release)
  end

let barrier_binomial t ~seq =
  let { rank; size; _ } = t.tr in
  let atag = tag_of ~seq ~round:0 and rtag = tag_of ~seq ~round:1 in
  let kids = Tree.children ~root:0 ~size rank in
  let par = Tree.parent ~root:0 ~size rank in
  let kid_hs = List.map (fun c -> irecv t ~src:c ~tag:atag ~max:0) kids in
  let release = Option.map (fun p -> irecv t ~src:p ~tag:rtag ~max:0) par in
  List.iter (fun h -> ignore (await t h)) kid_hs;
  (match par with Some p -> send t ~dst:p ~tag:atag "" | None -> ());
  (match release with Some h -> ignore (await t h) | None -> ());
  List.iter (fun c -> send t ~dst:c ~tag:rtag "") kids

(* Dissemination barrier: works for any [size], ceil(log2 size) rounds,
   no release phase. *)
let barrier_dissemination t ~seq =
  let { rank; size; _ } = t.tr in
  let rounds =
    let r = ref 0 in
    while 1 lsl !r < size do incr r done;
    !r
  in
  let hs =
    Array.init rounds (fun r ->
        irecv t
          ~src:((rank - (1 lsl r) + size) mod size)
          ~tag:(tag_of ~seq ~round:r) ~max:0)
  in
  for r = 0 to rounds - 1 do
    send t ~dst:((rank + (1 lsl r)) mod size) ~tag:(tag_of ~seq ~round:r) "";
    ignore (await t hs.(r))
  done

let barrier ?(alg = Binomial_tree) t =
  observed t "barrier" alg (fun h -> h.hc_barrier) @@ fun () ->
  let seq = next_seq t in
  if t.tr.size = 1 then ()
  else
    match alg with
    | Linear -> barrier_linear t ~seq
    | Binomial_tree -> barrier_binomial t ~seq
    | Recursive_doubling -> barrier_dissemination t ~seq
    | Nic_forward -> (
        match t.nic with
        | Some n ->
            n.nic_barrier ~seq;
            t.last_rounds <- 2
        | None -> barrier_binomial t ~seq)

(* --- broadcast --------------------------------------------------------- *)

let bcast_linear t ~seq ~round ~root ~max data =
  let { rank; size; _ } = t.tr in
  let tag = tag_of ~seq ~round in
  if rank = root then begin
    for i = 0 to size - 1 do
      if i <> root then send t ~dst:i ~tag data
    done;
    data
  end
  else await t (irecv t ~src:root ~tag ~max)

let bcast_binomial t ~seq ~round ~root ~max data =
  let { rank; size; _ } = t.tr in
  let tag = tag_of ~seq ~round in
  let kids = Tree.children ~root ~size rank in
  let data =
    match Tree.parent ~root ~size rank with
    | None -> data
    | Some p -> await t (irecv t ~src:p ~tag ~max)
  in
  List.iter (fun c -> send t ~dst:c ~tag data) kids;
  data

let bcast ?(alg = Binomial_tree) t ~root ~max data =
  check_root t root;
  if t.tr.rank = root && String.length data > max then
    invalid_arg "Group.bcast: data longer than max";
  observed t "bcast" alg (fun h -> h.hc_bcast) @@ fun () ->
  let seq = next_seq t in
  if t.tr.size = 1 then data
  else
    match alg with
    | Linear -> bcast_linear t ~seq ~round:0 ~root ~max data
    | Binomial_tree | Recursive_doubling ->
        bcast_binomial t ~seq ~round:0 ~root ~max data
    | Nic_forward -> (
        match t.nic with
        | None -> bcast_binomial t ~seq ~round:0 ~root ~max data
        | Some n -> (
            (* The NIC path only handles single-frame payloads; the
               fallback decision depends only on [max], which every rank
               knows, so all ranks take the same branch. *)
            match n.nic_bcast ~seq ~root ~max data with
            | Some s ->
                t.last_rounds <- 2;
                s
            | None -> bcast_binomial t ~seq ~round:0 ~root ~max data))

(* --- reduce ------------------------------------------------------------ *)

let reduce_linear t ~seq ~round ~op ~root ~max data =
  let { rank; size; _ } = t.tr in
  let tag = tag_of ~seq ~round in
  if rank = root then begin
    let hs =
      Array.init size (fun i ->
          if i = root then None else Some (irecv t ~src:i ~tag ~max))
    in
    let acc = ref None in
    Array.iter
      (fun h ->
        let contrib = match h with None -> data | Some h -> await t h in
        acc :=
          Some
            (match !acc with
            | None -> contrib
            | Some a -> op.combine a contrib))
      hs;
    Some (Option.get !acc)
  end
  else begin
    send t ~dst:root ~tag data;
    None
  end

let reduce_binomial t ~seq ~round ~op ~root ~max data =
  let { rank; size; _ } = t.tr in
  let tag = tag_of ~seq ~round in
  let kids = Tree.children ~root ~size rank in
  let kid_hs = List.map (fun c -> irecv t ~src:c ~tag ~max) kids in
  let acc =
    List.fold_left (fun a h -> op.combine a (await t h)) data kid_hs
  in
  match Tree.parent ~root ~size rank with
  | Some p ->
      send t ~dst:p ~tag acc;
      None
  | None -> Some acc

(* --- allreduce --------------------------------------------------------- *)

(* MPICH-style recursive doubling with non-power-of-two fold-in: the
   [rem = size - pof2] extra ranks first fold into a power-of-two core,
   the core runs log2(pof2) exchange rounds, and the folded-out ranks get
   the result back at the end. Round tags: 0 = fold-in, 1..k = exchange,
   30 = return. *)
let allreduce_rd t ~seq ~op ~max data =
  let { rank; size; _ } = t.tr in
  let pof2 = floor_pow2 size in
  let rem = size - pof2 in
  let tag r = tag_of ~seq ~round:r in
  let fold_h =
    if rank < 2 * rem && rank land 1 = 1 then
      Some (irecv t ~src:(rank - 1) ~tag:(tag 0) ~max)
    else None
  in
  let newrank =
    if rank < 2 * rem then if rank land 1 = 0 then -1 else rank / 2
    else rank - rem
  in
  let actual nr = if nr < rem then (2 * nr) + 1 else nr + rem in
  let rd_hs =
    if newrank < 0 then []
    else begin
      let rec loop mask r acc =
        if mask >= pof2 then List.rev acc
        else
          loop (mask lsl 1) (r + 1)
            (irecv t ~src:(actual (newrank lxor mask)) ~tag:(tag r) ~max :: acc)
      in
      loop 1 1 []
    end
  in
  let ret_h =
    if rank < 2 * rem && rank land 1 = 0 then
      Some (irecv t ~src:(rank + 1) ~tag:(tag 30) ~max)
    else None
  in
  let acc = ref data in
  if rank < 2 * rem then begin
    if rank land 1 = 0 then send t ~dst:(rank + 1) ~tag:(tag 0) data
    else acc := op.combine !acc (await t (Option.get fold_h))
  end;
  if newrank >= 0 then begin
    let mask = ref 1 and r = ref 1 and hs = ref rd_hs in
    while !mask < pof2 do
      send t ~dst:(actual (newrank lxor !mask)) ~tag:(tag !r) !acc;
      (match !hs with
      | h :: rest ->
          acc := op.combine !acc (await t h);
          hs := rest
      | [] ->
        (* [rd_hs] pre-posted one receive per doubling round, so running
           out before [mask] reaches [pof2] is a protocol bug, not an
           input error. *)
        failwith
          (Printf.sprintf
             "Group.allreduce_rd: rank %d exhausted its pre-posted round \
              receives at round %d (invariant: one per doubling round)"
             rank !r));
      mask := !mask lsl 1;
      incr r
    done
  end;
  if rank < 2 * rem then begin
    if rank land 1 = 1 then send t ~dst:(rank - 1) ~tag:(tag 30) !acc
    else acc := await t (Option.get ret_h)
  end;
  !acc

let allreduce ?(alg = Binomial_tree) t ~op ~max data =
  if String.length data > max then
    invalid_arg "Group.allreduce: data longer than max";
  observed t "allreduce" alg (fun h -> h.hc_allreduce) @@ fun () ->
  let seq = next_seq t in
  if t.tr.size = 1 then data
  else
    match alg with
    | Recursive_doubling -> allreduce_rd t ~seq ~op ~max data
    | Linear ->
        let r = reduce_linear t ~seq ~round:0 ~op ~root:0 ~max data in
        bcast_linear t ~seq ~round:16 ~root:0 ~max
          (Option.value r ~default:"")
    | Binomial_tree | Nic_forward ->
        let r = reduce_binomial t ~seq ~round:0 ~op ~root:0 ~max data in
        bcast_binomial t ~seq ~round:16 ~root:0 ~max
          (Option.value r ~default:"")
