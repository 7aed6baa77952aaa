type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let next_state t =
  t.state <- Int64.add t.state golden_gamma;
  t.state

(* SplitMix64 finalizer (Steele, Lea & Flood 2014). *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 t = mix (next_state t)

let split t = { state = int64 t }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Mask to OCaml's 63-bit non-negative range before reducing. *)
  let r = Int64.to_int (int64 t) land max_int in
  r mod bound

let float t =
  let bits53 = Int64.to_int (Int64.shift_right_logical (int64 t) 11) in
  float_of_int bits53 *. (1. /. 9007199254740992.)

let exponential t ~mean =
  let u = float t in
  -.mean *. log (1. -. u)

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
