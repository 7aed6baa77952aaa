type ns = int

let us x = x * 1_000
let ms x = x * 1_000_000
let s x = x * 1_000_000_000
let to_ms t = float_of_int t /. 1_000_000.
let to_s t = float_of_int t /. 1_000_000_000.

let pp fmt t =
  let ft = float_of_int t in
  if t < 10_000 then Format.fprintf fmt "%d ns" t
  else if t < 10_000_000 then Format.fprintf fmt "%.2f us" (ft /. 1e3)
  else if t < 10_000_000_000 then Format.fprintf fmt "%.2f ms" (ft /. 1e6)
  else Format.fprintf fmt "%.3f s" (ft /. 1e9)

let mbps ~bytes_transferred ~elapsed =
  if elapsed <= 0 then 0.
  else
    let bits = float_of_int bytes_transferred *. 8. in
    bits /. (float_of_int elapsed /. 1e9) /. 1e6
