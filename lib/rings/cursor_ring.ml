type 'a t = {
  mask : int;
  slots : 'a array;
  dummy : 'a;  (* written back into a slot once it is consumed *)
  mutable prod : int;
  mutable cons : int;
}

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let create ?(start = 0) ~capacity ~dummy () =
  if not (is_power_of_two capacity) then
    invalid_arg "Cursor_ring.create: capacity must be a power of two";
  { mask = capacity - 1; slots = Array.make capacity dummy; dummy;
    prod = start; cons = start }

let capacity t = t.mask + 1

(* Cursors are free-running and may overflow past max_int; two's
   complement subtraction keeps the distance exact as long as fewer than
   2^62 slots are in flight, which the capacity bound guarantees. *)
let length t = t.prod - t.cons

let is_empty t = t.prod = t.cons
let is_full t = length t = capacity t

let try_push t x =
  if is_full t then false
  else begin
    t.slots.(t.prod land t.mask) <- x;
    t.prod <- t.prod + 1;
    true
  end

let push_exn t x =
  if not (try_push t x) then failwith "Cursor_ring.push_exn: ring full"

(* A consumed slot gets the dummy back, so the ring never keeps a
   popped or dropped element reachable. *)
let take t =
  let i = t.cons land t.mask in
  let x = t.slots.(i) in
  t.slots.(i) <- t.dummy;
  t.cons <- t.cons + 1;
  x

let try_pop t = if is_empty t then None else Some (take t)

let pop_up_to t ~max =
  let n = min max (length t) in
  let rec go k acc =
    if k = 0 then List.rev acc
    else
      match try_pop t with
      | None -> List.rev acc
      | Some x -> go (k - 1) (x :: acc)
  in
  go n []

let drop_oldest t =
  if is_empty t then false
  else begin
    ignore (take t);
    true
  end
