module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr t = t.v <- t.v + 1
  let add t n = t.v <- t.v + n
  let value t = t.v
end

module Summary = struct
  (* Bounded reservoir: the first [cap] samples are kept exactly (so
     percentiles on experiment-sized runs are unchanged); beyond that,
     Algorithm R replaces a uniformly drawn slot, keeping a uniform
     subsample of everything observed while count/sum/max stay exact
     via running accumulators.
     The replacement PRNG is seeded per-summary with a fixed constant,
     so identical observation streams yield identical reservoirs —
     determinism double-runs stay byte-identical. *)
  let cap = 8192
  let reservoir_seed = 0x52455356 (* "RESV" *)

  (* The running accumulators live in an all-float record, which OCaml
     stores flat: updating them allocates nothing, where float fields
     of a mixed record box every new value. *)
  type acc = {
    mutable total : float;
    mutable mx : float;
  }

  type t = {
    mutable acc : acc;
    mutable samples : Float.Array.t;  (* grows by doubling up to [cap] *)
    mutable len : int;  (* reservoir size *)
    mutable sorted : bool;
    mutable n : int;  (* total observed, not reservoir size *)
    mutable rng : Rng.t;
  }

  let fresh_acc () = { total = 0.; mx = neg_infinity }

  let create () =
    {
      acc = fresh_acc ();
      samples = Float.Array.create 0;
      len = 0;
      sorted = true;
      n = 0;
      rng = Rng.create ~seed:reservoir_seed;
    }

  let push t x =
    let size = Float.Array.length t.samples in
    if t.len = size then begin
      let grown = Float.Array.create (if size = 0 then 16 else 2 * size) in
      Float.Array.blit t.samples 0 grown 0 t.len;
      t.samples <- grown
    end;
    Float.Array.set t.samples t.len x;
    t.len <- t.len + 1

  let add t x =
    let a = t.acc in
    t.n <- t.n + 1;
    a.total <- a.total +. x;
    if x > a.mx then a.mx <- x;
    if t.len < cap then begin
      push t x;
      t.sorted <- false
    end
    else begin
      let j = Rng.int t.rng t.n in
      if j < cap then begin
        Float.Array.set t.samples j x;
        t.sorted <- false
      end
    end

  let count t = t.n
  let sum t = t.acc.total
  let mean t = if t.n = 0 then 0. else t.acc.total /. float_of_int t.n
  let max t = t.acc.mx

  let percentile t p =
    let n = t.len in
    if n = 0 then 0.
    else begin
      if not t.sorted then begin
        let a = Float.Array.sub t.samples 0 n in
        Float.Array.sort Float.compare a;
        Float.Array.blit a 0 t.samples 0 n;
        t.sorted <- true
      end;
      let rank = int_of_float (Float.round (p *. float_of_int (n - 1))) in
      let rank = Stdlib.min (n - 1) (Stdlib.max 0 rank) in
      Float.Array.get t.samples rank
    end

end
