(** Consistent-hash ring with virtual nodes. See the .mli for the
    placement contract. *)

(* SplitMix64's finalizer: every bit of the key reaches every bit of the
   point, deterministically across runs and processes. *)
let hash2 ~seed a b =
  let mix = Uls_engine.Rng.mix in
  let h = mix (Int64.of_int seed) in
  let h = mix (Int64.logxor h (Int64.of_int a)) in
  let h = mix (Int64.logxor h (Int64.of_int b)) in
  Int64.to_int h land max_int

type t = {
  vnodes : int;
  seed : int;
  mutable members : int list;  (* sorted ascending *)
  mutable points : (int * int) array;  (* (position, cell), sorted *)
}

let create ?(vnodes = 128) ?(seed = 0) () =
  if vnodes < 1 then invalid_arg "Ring.create: vnodes < 1";
  { vnodes; seed; members = []; points = [||] }

let members t = t.members
let size t = List.length t.members
let mem t cell = List.mem cell t.members

let rebuild t =
  let pts =
    List.concat_map
      (fun cell ->
        List.init t.vnodes (fun r -> (hash2 ~seed:t.seed cell r, cell)))
      t.members
  in
  let arr = Array.of_list pts in
  (* ECMP-style tie-break: equal positions are owned by the lower cell
     id, on every node that computes the ring — no coordination needed. *)
  Array.sort compare arr;
  t.points <- arr

let add t cell =
  if not (mem t cell) then begin
    t.members <- List.sort compare (cell :: t.members);
    rebuild t
  end

let remove t cell =
  if mem t cell then begin
    t.members <- List.filter (fun c -> c <> cell) t.members;
    rebuild t
  end

(* First point clockwise from the key's position (wrapping), by binary
   search: O(log (cells * vnodes)) per flow. *)
let lookup t ~key =
  let n = Array.length t.points in
  if n = 0 then None
  else begin
    let pos = hash2 ~seed:(t.seed lxor 0x5bd1e995) key 0 in
    let lo = ref 0 and hi = ref n in
    (* smallest index with position >= pos *)
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if fst t.points.(mid) >= pos then hi := mid else lo := mid + 1
    done;
    let i = if !lo = n then 0 else !lo in
    Some (snd t.points.(i))
  end
