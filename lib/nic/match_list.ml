type engine = Linear | Hashed

type probe = { walked : int; lookups : int }

(* Every posted descriptor is one cell on two intrusive doubly-linked
   lists: the global post-order list (authoritative for the linear walk,
   wildcard queries and predicate removal) and, under the hashed
   engine, the FIFO of its match key. Removal unlinks the cell from both
   in O(1), so a removed descriptor is unreachable at once — nothing is
   tombstoned and nothing waits to be reaped. *)
type 'a entry =
  | Nil
  | Entry of {
      src : int;
      tag : int;
      seq : int;
      value : 'a;
      mutable live : bool;
      mutable prev : 'a entry;
      mutable next : 'a entry;
      mutable kprev : 'a entry;
      mutable knext : 'a entry;
      key : 'a keyq;
    }

(* One match key's descriptors in post order. *)
and 'a keyq = { mutable k_head : 'a entry; mutable k_tail : 'a entry }

type 'a handle = 'a entry

let detached = Nil

(* The hashed engine indexes the same cells: one key FIFO per match key,
   bucketed by wildcard class. A concrete (src, tag) frame can only
   match four keys — (src, tag), (-1, tag), (src, -1), (-1, -1) — so a
   lookup probes at most four FIFO heads and picks the lowest sequence
   number, which is exactly the entry a full linear walk would return
   first. A key whose FIFO empties leaves its table. *)
type 'a index = {
  exact : (int * int, 'a keyq) Hashtbl.t;
  any_src : (int, 'a keyq) Hashtbl.t;  (* posted src = -1 *)
  any_tag : (int, 'a keyq) Hashtbl.t;  (* posted tag = -1 *)
  all_wild : 'a keyq;  (* posted src = tag = -1 *)
  mutable any_src_on : bool;
  mutable any_tag_on : bool;
      (* wildcard-class enable bits: set by the first post of the class
         and never cleared. A lookup pays the class's hash probe once its
         bit is set, even when the class has no live key at that
         moment. *)
}

type 'a t = {
  engine : engine;
  mutable first : 'a entry;
  mutable last : 'a entry;
  mutable live : int;
  mutable seq : int;
  index : 'a index option;
  unkeyed : 'a keyq;  (* the key of every entry under the linear engine *)
}

let new_keyq () = { k_head = Nil; k_tail = Nil }

let create ?(engine = Linear) () =
  {
    engine;
    first = Nil;
    last = Nil;
    live = 0;
    seq = 0;
    index =
      (match engine with
      | Linear -> None
      | Hashed ->
        Some
          {
            exact = Hashtbl.create 64;
            any_src = Hashtbl.create 8;
            any_tag = Hashtbl.create 8;
            all_wild = new_keyq ();
            any_src_on = false;
            any_tag_on = false;
          });
    unkeyed = new_keyq ();
  }

let engine t = t.engine
let length t = t.live

let engine_name = function Linear -> "linear" | Hashed -> "hashed"

let engine_of_string = function
  | "linear" -> Some Linear
  | "hashed" -> Some Hashed
  | _ -> None

let keyq_of tbl key =
  match Hashtbl.find_opt tbl key with
  | Some q -> q
  | None ->
    let q = new_keyq () in
    Hashtbl.replace tbl key q;
    q

let key_for t ~src ~tag =
  match t.index with
  | None -> t.unkeyed
  | Some idx ->
    if src = -1 && tag = -1 then idx.all_wild
    else if src = -1 then begin
      idx.any_src_on <- true;
      keyq_of idx.any_src tag
    end
    else if tag = -1 then begin
      idx.any_tag_on <- true;
      keyq_of idx.any_tag src
    end
    else keyq_of idx.exact (src, tag)

let post t ~src ~tag value =
  t.seq <- t.seq + 1;
  let key = key_for t ~src ~tag in
  let cell =
    Entry
      {
        src;
        tag;
        seq = t.seq;
        value;
        live = true;
        prev = t.last;
        next = Nil;
        kprev = key.k_tail;
        knext = Nil;
        key;
      }
  in
  (match t.last with Nil -> t.first <- cell | Entry p -> p.next <- cell);
  t.last <- cell;
  (match t.index with
  | None -> ()
  | Some _ ->
    (match key.k_tail with Nil -> key.k_head <- cell | Entry p -> p.knext <- cell);
    key.k_tail <- cell);
  t.live <- t.live + 1;
  cell

(* Unlink a live cell from both lists and drop its key once empty. The
   cell's own links are cleared too, so a handle kept by the caller
   never pins its former neighbours. *)
let unlink t cell =
  match cell with
  | Nil -> ()
  | Entry e ->
    e.live <- false;
    (match e.prev with Nil -> t.first <- e.next | Entry p -> p.next <- e.next);
    (match e.next with Nil -> t.last <- e.prev | Entry n -> n.prev <- e.prev);
    e.prev <- Nil;
    e.next <- Nil;
    t.live <- t.live - 1;
    match t.index with
    | None -> ()
    | Some idx ->
      let q = e.key in
      (match e.kprev with Nil -> q.k_head <- e.knext | Entry p -> p.knext <- e.knext);
      (match e.knext with Nil -> q.k_tail <- e.kprev | Entry n -> n.kprev <- e.kprev);
      e.kprev <- Nil;
      e.knext <- Nil;
      if q.k_head == Nil then
        if e.src = -1 && e.tag = -1 then ()
        else if e.src = -1 then Hashtbl.remove idx.any_src e.tag
        else if e.tag = -1 then Hashtbl.remove idx.any_tag e.src
        else Hashtbl.remove idx.exact (e.src, e.tag)

let remove t cell =
  match cell with
  | Entry e when e.live ->
    unlink t cell;
    true
  | _ -> false

let matches ~src ~tag = function
  | Nil -> false
  | Entry e ->
    (e.src = -1 || src = -1 || e.src = src) && (e.tag = -1 || tag = -1 || e.tag = tag)

(* Linear walk, the Tigon firmware's original O(posted descriptors)
   engine — also the fallback for query-side wildcards in hashed mode
   (FIFO order across keys is not recoverable from per-key FIFOs). *)
let walk t ~src ~tag =
  let rec go cell walked =
    match cell with
    | Nil -> (Nil, { walked; lookups = 0 })
    | Entry e ->
      if matches ~src ~tag cell then (cell, { walked = walked + 1; lookups = 0 })
      else go e.next (walked + 1)
  in
  go t.first 0

let seq_of = function Nil -> max_int | Entry e -> e.seq

(* Hashed lookup for a concrete (src, tag): probe the (at most) four
   candidate keys and take the earliest-posted head. [lookups] counts
   the hash-table probes actually made; [walked] the key heads
   compared. *)
let index_lookup idx ~src ~tag =
  let best = ref Nil and heads = ref 0 and lookups = ref 1 in
  let consider = function
    | Nil -> ()
    | head ->
      incr heads;
      if seq_of head < seq_of !best then best := head
  in
  (match Hashtbl.find_opt idx.exact (src, tag) with
  | Some q -> consider q.k_head
  | None -> ());
  if idx.any_src_on then begin
    incr lookups;
    match Hashtbl.find_opt idx.any_src tag with
    | Some q -> consider q.k_head
    | None -> ()
  end;
  if idx.any_tag_on then begin
    incr lookups;
    match Hashtbl.find_opt idx.any_tag src with
    | Some q -> consider q.k_head
    | None -> ()
  end;
  if idx.all_wild.k_head != Nil then begin
    incr lookups;
    consider idx.all_wild.k_head
  end;
  (!best, { walked = !heads; lookups = !lookups })

let lookup t ~src ~tag =
  match t.index with
  | Some idx when src <> -1 && tag <> -1 -> index_lookup idx ~src ~tag
  | _ -> walk t ~src ~tag

let take t ~src ~tag =
  match lookup t ~src ~tag with
  | (Entry e as cell), probe ->
    unlink t cell;
    (Some e.value, probe)
  | Nil, probe -> (None, probe)

let find t ~src ~tag =
  match lookup t ~src ~tag with
  | Entry e, probe -> (Some e.value, probe)
  | Nil, probe -> (None, probe)

let remove_first t pred =
  let rec go = function
    | Nil -> None
    | Entry e as cell ->
      if pred e.value then begin
        unlink t cell;
        Some e.value
      end
      else go e.next
  in
  go t.first
