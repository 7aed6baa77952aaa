(* Hierarchical timing wheel (hashed calendar queue) over integer event
   slots, with a near-future heap, an exact-order contract, and an
   overflow heap for far-future timers.

   Slab: a pending event is a slot id into [tm]/[sq] (unboxed time and
   sequence number) and [fn] (its callback). [next] chains a queued
   slot into its wheel bag, or a free slot into the free list. Everything
   below moves slot ids only and compares [(tm, sq)] inline, so no store
   in a sift, placement or cascade is a pointer store: the write barrier
   runs once when [add] stores the callback and once when [take]
   overwrites it with [nop]. Bags are intrusive lists through [next],
   so the wheel's memory is the slab's and tracks the peak pending
   count; per-slot bag arrays would each keep the largest batch their
   slot ever held, and only after a full turn of the top level would
   their total stop growing.

   Cancellation: a free slot's [sq] is [-1], which is how [cancel] tells
   a queued slot from a freed or reused one. [back] links each bag
   member to its predecessor, so a cancelled slot in a bag (where a
   timer waits until its grain is near, unless it lies beyond the top
   level) is unlinked and freed at once, in O(1). One in [cur] or
   [ovf] keeps its heap position (removing it
   would need a position index that every sift keeps up to date):
   [cancel] swaps its callback for [cancelled], and it is freed when it
   surfaces, at the top of [cur] or in an overflow migration.

   Layout: [levels] wheels of [W = 256] slots each. A level-[l] slot
   spans [grain << (slot_bits * l)] ns, so the whole level-[l] wheel
   spans exactly one level-[l+1] slot. Events land in the lowest level
   whose wheel still covers their delta from [base] (the start of the
   level-0 cursor slot); anything beyond the top level's range goes to
   the [ovf] heap and migrates down when the cursor approaches. A bag's
   order is immaterial: [(time, seq)] keys are unique, and [cur] orders
   by them whatever order a cascade pushes in.

   Exactness: everything with [time < base + grain] lives in [cur], a
   binary heap ordered by the full (time, seq) key, so extraction order
   is *identical* to a plain comparison heap — the wheel only replaces
   where far-out events wait, not how due events are ordered. Advancing
   works slot-batch at a time: the next occupied level-0 slot is dumped
   into [cur] wholesale; occupied higher-level slots cascade down when
   the cursor enters them. Insertions are O(1) (a list push),
   extraction is O(log batch) on a batch that is one grain wide, and
   cursor movement amortizes to O(1) per event.

   Ordering safety of the near-future heap: [base] only moves forward,
   and any later insertion with [time < base + grain] is routed into
   [cur] where the key orders it exactly — so peeking ahead (which
   advances [base]) can never misorder a subsequent insert, even one
   earlier than the peeked event. *)

let grain_bits = 8
let grain = 1 lsl grain_bits
let slot_bits = 8
let wsize = 1 lsl slot_bits
let wmask = wsize - 1
let levels = 4

(* level-l slot width, as a shift *)
let shift l = grain_bits + (slot_bits * l)
let top_range = 1 lsl shift levels

(* Binary min-heap of slot ids, ordered by [before]. *)
type heap = {
  mutable a : int array;
  mutable n : int;
}

let nop () = ()

(* The callback of a cancelled slot left in a heap, until it surfaces.
   Its own body, so it can never be physically equal to a callback a
   caller passed in. *)
let cancelled () = invalid_arg "Wheel: a cancelled slot was dispatched"

(* [back.(s)] of a queued slot: [in_heap] while it waits in [cur] or
   [ovf]; in a bag, [(p + 1) lsl 2 lor l] for its predecessor [p] ([-1]
   at the bag's head) and the bag's level [l]. *)
let in_heap = -1
let back_of ~pred l = ((pred + 1) lsl 2) lor l

type t = {
  mutable tm : int array;
  mutable sq : int array;
  mutable fn : (unit -> unit) array;
  mutable next : int array;  (* bag or free-list link; -1 ends a list *)
  mutable back : int array;  (* bag back-link and level, or [in_heap] *)
  mutable free : int;  (* head of the free-slot list *)
  heads : int array;  (* bag heads, [l * wsize + idx] *)
  counts : int array;  (* slots resident per level *)
  mutable base : int;  (* start of the level-0 cursor slot; grain-aligned *)
  cur : heap;  (* near-future heap *)
  ovf : heap;  (* overflow heap *)
  mutable len : int;  (* queued slots, cancelled ones excluded *)
}

let create () =
  {
    tm = [||];
    sq = [||];
    fn = [||];
    next = [||];
    back = [||];
    free = -1;
    heads = Array.make (levels * wsize) (-1);
    counts = Array.make levels 0;
    base = 0;
    cur = { a = [||]; n = 0 };
    ovf = { a = [||]; n = 0 };
    len = 0;
  }

let length w = w.len
let capacity w = Array.length w.tm
let time w s = w.tm.(s)
let seq w s = w.sq.(s)

(* --- slab --------------------------------------------------------------- *)

(* Double the slab and thread the new slots onto the free list. *)
let grow w =
  let n = Array.length w.tm in
  let cap = if n = 0 then 64 else 2 * n in
  let widen a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 n;
    b
  in
  w.tm <- widen w.tm 0;
  w.sq <- widen w.sq 0;
  w.fn <- widen w.fn nop;
  w.next <- widen w.next 0;
  w.back <- widen w.back in_heap;
  for s = cap - 1 downto n do
    w.next.(s) <- w.free;
    w.free <- s
  done

let release w s =
  w.fn.(s) <- nop;
  w.sq.(s) <- -1;
  w.next.(s) <- w.free;
  w.free <- s

let take w s =
  let f = w.fn.(s) in
  release w s;
  f

let is_cancelled w s = w.fn.(s) == cancelled

let cancel w s ~seq =
  if s >= 0 && s < Array.length w.tm && seq >= 0 && w.sq.(s) = seq
     && not (is_cancelled w s)
  then begin
    w.len <- w.len - 1;
    let k = w.back.(s) in
    if k = in_heap then w.fn.(s) <- cancelled
    else begin
      let l = k land 3 and pred = (k asr 2) - 1 in
      let n = w.next.(s) in
      if pred >= 0 then w.next.(pred) <- n
      else
        w.heads.((l lsl slot_bits) + ((w.tm.(s) asr shift l) land wmask)) <- n;
      if n >= 0 then w.back.(n) <- back_of ~pred l;
      w.counts.(l) <- w.counts.(l) - 1;
      release w s
    end;
    true
  end
  else false

(* --- heap ops ----------------------------------------------------------- *)

let before w a b =
  let ta = w.tm.(a) and tb = w.tm.(b) in
  ta < tb || (ta = tb && w.sq.(a) < w.sq.(b))

let heap_push w h s =
  if h.n = Array.length h.a then begin
    let b = Array.make (if h.n = 0 then 16 else 2 * h.n) 0 in
    Array.blit h.a 0 b 0 h.n;
    h.a <- b
  end;
  h.n <- h.n + 1;
  let a = h.a in
  (* sift up *)
  let i = ref (h.n - 1) in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    if before w s a.(p) then begin
      a.(!i) <- a.(p);
      i := p
    end
    else continue := false
  done;
  a.(!i) <- s

let heap_pop w h =
  let a = h.a in
  let top = a.(0) in
  h.n <- h.n - 1;
  let n = h.n in
  if n > 0 then begin
    let x = a.(n) in
    (* sift down *)
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        let c = if l + 1 < n && before w a.(l + 1) a.(l) then l + 1 else l in
        if before w a.(c) x then begin
          a.(!i) <- a.(c);
          i := c
        end
        else continue := false
      end
    done;
    a.(!i) <- x
  end;
  top

(* --- placement ---------------------------------------------------------- *)

(* Place slot [s] into the structure appropriate for its delta from
   [base]. Shared by [reinsert] and [cascade]; does not touch [len]. *)
let place w s =
  let t = w.tm.(s) in
  if t < w.base + grain then begin
    w.back.(s) <- in_heap;
    heap_push w w.cur s
  end
  else begin
    let delta = t - w.base in
    let l = ref 0 in
    while !l < levels && delta asr shift (!l + 1) <> 0 do
      incr l
    done;
    if !l = levels then begin
      w.back.(s) <- in_heap;
      heap_push w w.ovf s
    end
    else begin
      let l = !l in
      let b = (l lsl slot_bits) + ((t asr shift l) land wmask) in
      let head = w.heads.(b) in
      w.next.(s) <- head;
      w.back.(s) <- back_of ~pred:(-1) l;
      if head >= 0 then w.back.(head) <- back_of ~pred:s l;
      w.heads.(b) <- s;
      w.counts.(l) <- w.counts.(l) + 1
    end
  end

let reinsert w s =
  w.len <- w.len + 1;
  place w s

let add w ~time ~seq f =
  if w.free < 0 then grow w;
  let s = w.free in
  w.free <- w.next.(s);
  w.tm.(s) <- time;
  w.sq.(s) <- seq;
  w.fn.(s) <- f;
  reinsert w s;
  s

(* Empty a bag through [place] (level-0 slots land in [cur],
   higher-level slots redistribute downward). *)
let cascade w l idx =
  let b = (l lsl slot_bits) + idx in
  let s = ref w.heads.(b) in
  w.heads.(b) <- -1;
  while !s >= 0 do
    let x = !s in
    s := w.next.(x);
    w.counts.(l) <- w.counts.(l) - 1;
    place w x
  done

(* Pull every overflow event the wheel can now cover back down. Runs
   whenever the cursor enters a new top-level slot (and when the wheels
   drain entirely), so an overflow timer always migrates long before
   the wheel's range reaches it. *)
let migrate_ovf w =
  let limit = w.base + top_range in
  while w.ovf.n > 0 && w.tm.(w.ovf.a.(0)) < limit do
    let s = heap_pop w w.ovf in
    if is_cancelled w s then release w s else place w s
  done

(* Advance [base] until [cur] is non-empty (or the wheel is empty).
   Scans the lowest occupied level for its next slot; an exhausted
   window crosses the parent boundary, cascading the parent slot the
   cursor enters. Amortized O(1) per event: every scan either finds a
   batch or retires a whole window. *)
let advance w =
  if w.cur.n = 0 && w.len > 0 then begin
    while w.cur.n = 0 do
      let l = ref 0 in
      while !l < levels && w.counts.(!l) = 0 do
        incr l
      done;
      if !l = levels then begin
        (* wheels empty: jump to the first overflow event *)
        let t = w.tm.(w.ovf.a.(0)) in
        w.base <- t land lnot (grain - 1);
        migrate_ovf w
      end
      else begin
        let l = !l in
        let cursor = (w.base asr shift l) land wmask in
        (* Mid-window, the cursor slot holds only wrapped next-window
           events, so the scan starts after it. But when [base] sits
           exactly at the cursor slot's start (right after a boundary
           cross or jump), wrapped events there have just become due
           and must be scanned — and only then is cascading the cursor
           slot safe: every event re-places strictly below level [l],
           never back into the slot being drained. *)
        let aligned = w.base land ((1 lsl shift l) - 1) = 0 in
        let start = if aligned then cursor else cursor + 1 in
        let found = ref (-1) in
        let i = ref start in
        while !found < 0 && !i < wsize do
          if w.heads.((l lsl slot_bits) + !i) >= 0 then found := !i;
          incr i
        done;
        if !found >= 0 then begin
          let s = !found in
          let slot_start = ((w.base asr shift l) + (s - cursor)) lsl shift l in
          if slot_start > w.base then begin
            w.base <- slot_start;
            (* a top-level jump enters a new top slot: pull newly
               coverable overflow events down before cascading, or one
               parked just above an old base's horizon is overtaken *)
            if l = levels - 1 then migrate_ovf w
          end;
          cascade w l s
        end
        else begin
          (* Window exhausted: cross into the next parent slot. The new
             base is aligned at the level-(l+1) slot width, but it may
             coincide with boundaries at several levels at once (a
             level-0 window ending exactly at a level-2 slot edge), so
             the cursor can enter a NEW slot at every level above l in
             the same step. Enter them top-down — migrate overflow when
             a fresh top-level slot comes into range, then cascade each
             newly entered slot, higher levels first so their contents
             re-place below before the lower slot is drained. Cascading
             only the immediate parent would leave anything parked in a
             coincidentally entered higher slot to be silently overtaken
             until the wheel wrapped back around. *)
          let pshift = shift (l + 1) in
          w.base <- ((w.base asr pshift) + 1) lsl pshift;
          (* Down to 0, not l+1: a higher cascade can feed [cur]
             directly, ending the advance loop before the scan would
             ever revisit the lower cursor slots — so their wrapped,
             now-due entries must be cascaded here as well. That holds
             for a cross out of the top level too (the new base is
             aligned at every level): the top-level slot it enters may
             hold events placed a whole turn ago, and if a migrated
             overflow event sent the cursor into a lower level first,
             the scan would step past that slot for another turn. *)
          for lv = levels - 1 downto 0 do
            if w.base land ((1 lsl shift lv) - 1) = 0 then begin
              if lv = levels - 1 then migrate_ovf w;
              cascade w lv ((w.base asr shift lv) land wmask)
            end
          done
        end
      end
    done
  end

(* [advance] only runs while a live slot is queued ([len] counts no
   cancelled one), and stops at the first non-empty [cur]; cancelled
   slots at the top of [cur] are freed here, advancing again when that
   empties it. *)
let rec peek w =
  advance w;
  if w.cur.n = 0 then -1
  else
    let s = w.cur.a.(0) in
    if is_cancelled w s then begin
      ignore (heap_pop w w.cur : int);
      release w s;
      peek w
    end
    else s

let pop w =
  let s = peek w in
  if s >= 0 then begin
    w.len <- w.len - 1;
    ignore (heap_pop w w.cur : int)
  end;
  s
