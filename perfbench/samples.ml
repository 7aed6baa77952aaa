(* Growable sample buffer with exact nearest-rank percentiles. Unlike
   the engine's reservoir summaries it keeps every sample, so tail
   percentiles of long runs are exact. Failed operations are not stored
   as samples: [percentile ~missing] ranks them above every success, so
   a failure always counts against a latency limit. *)

type t = {
  mutable data : float array;
  mutable n : int;
  mutable sorted : bool;
}

let create () = { data = Array.make 1024 0.; n = 0; sorted = true }

let add t x =
  if t.n = Array.length t.data then begin
    let d = Array.make (2 * t.n) 0. in
    Array.blit t.data 0 d 0 t.n;
    t.data <- d
  end;
  t.data.(t.n) <- x;
  t.n <- t.n + 1;
  t.sorted <- false

let count t = t.n

let append dst src =
  for i = 0 to src.n - 1 do
    add dst src.data.(i)
  done

let sort t =
  if not t.sorted then begin
    let a = Array.sub t.data 0 t.n in
    Array.sort Float.compare a;
    Array.blit a 0 t.data 0 t.n;
    t.sorted <- true
  end

(* Nearest rank over [count t + missing] samples, the [missing] ones
   being +infinity. 0 for an empty buffer with nothing missing. *)
let percentile ?(missing = 0) t p =
  let total = t.n + missing in
  if total = 0 then 0.
  else begin
    let k = max 1 (int_of_float (Float.ceil (p *. float_of_int total))) in
    if k > t.n then infinity
    else begin
      sort t;
      t.data.(k - 1)
    end
  end

(* Samples strictly above the [p] percentile: the evidence behind it. *)
let beyond ?(missing = 0) t p =
  let total = t.n + missing in
  total - max 1 (int_of_float (Float.ceil (p *. float_of_int total)))
