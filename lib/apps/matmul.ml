open Uls_api.Sockets_api
module Sim = Uls_engine.Sim

type matrix = float array array

let random_matrix ~seed ~n =
  let rng = Uls_engine.Rng.create ~seed in
  Array.init n (fun _ -> Array.init n (fun _ -> Uls_engine.Rng.float rng -. 0.5))

let multiply_seq a b =
  let n = Array.length a in
  let m = Array.length b.(0) in
  let k = Array.length b in
  Array.init n (fun i ->
      Array.init m (fun j ->
          let sum = ref 0. in
          for l = 0 to k - 1 do
            sum := !sum +. (a.(i).(l) *. b.(l).(j))
          done;
          !sum))

let matrices_equal ?(eps = 1e-9) a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ra rb ->
         Array.length ra = Array.length rb
         && Array.for_all2 (fun x y -> Float.abs (x -. y) <= eps) ra rb)
       a b

(* --- float (de)serialisation ---------------------------------------- *)

let encode_rows rows =
  let nrows = Array.length rows in
  let ncols = if nrows = 0 then 0 else Array.length rows.(0) in
  let b = Bytes.create (nrows * ncols * 8) in
  Array.iteri
    (fun i row ->
      Array.iteri
        (fun j v ->
          Bytes.set_int64_le b (((i * ncols) + j) * 8) (Int64.bits_of_float v))
        row)
    rows;
  Bytes.to_string b

let decode_rows s ~rows ~cols =
  let b = Bytes.of_string s in
  Array.init rows (fun i ->
      Array.init cols (fun j ->
          Int64.float_of_bits (Bytes.get_int64_le b (((i * cols) + j) * 8))))

let header_bytes = 64

(* Fixed-size headers keep the protocol working over datagram-mode
   sockets (one recv = one whole message). *)
let header ints =
  let line = String.concat " " (List.map string_of_int ints) in
  if String.length line >= header_bytes then invalid_arg "matmul: header too long";
  line ^ String.make (header_bytes - String.length line) ' '

let read_header s =
  let line = String.trim (recv_exact s header_bytes) in
  List.map int_of_string (String.split_on_char ' ' line)

(* --- worker ----------------------------------------------------------- *)

(* Naive triple loop on a ~700 MHz Pentium III: ~140 Mflop/s. *)
let ns_per_flop = 7.0

let worker sim stack ~node ~master () =
  let s = stack.connect ~node master in
  (match read_header s with
  | [ row_start; rows; n ] ->
    let a_block =
      if rows = 0 then [||]
      else decode_rows (recv_exact s (rows * n * 8)) ~rows ~cols:n
    in
    let b = decode_rows (recv_exact s (n * n * 8)) ~rows:n ~cols:n in
    let product = if rows = 0 then [||] else multiply_seq a_block b in
    (* Charge the sequential compute time of the block. *)
    let flops = 2. *. float_of_int (rows * n * n) in
    Sim.delay sim (int_of_float (flops *. ns_per_flop));
    s.send (header [ row_start; rows ]);
    if rows > 0 then s.send (encode_rows product)
  | _ -> failwith "matmul worker: bad header");
  s.close ()

(* --- master ------------------------------------------------------------ *)

type result = {
  product : matrix;
  elapsed : Uls_engine.Time.ns;
}

let master sim stack ~node ~port ~workers ~a ~b =
  let n = Array.length a in
  let l = stack.listen ~node ~port ~backlog:workers in
  let streams = Array.init workers (fun _ -> fst (l.accept ())) in
  let t0 = Sim.now sim in
  (* Distribute row blocks and B. *)
  let base = n / workers and extra = n mod workers in
  let row_start = ref 0 in
  Array.iteri
    (fun w s ->
      let rows = base + (if w < extra then 1 else 0) in
      s.send (header [ !row_start; rows; n ]);
      if rows > 0 then s.send (encode_rows (Array.sub a !row_start rows));
      s.send (encode_rows b);
      row_start := !row_start + rows)
    streams;
  (* Collect with select() as workers finish. *)
  let product = Array.make n [||] in
  let pending = ref (Array.to_list streams) in
  let done_count = ref 0 in
  while !done_count < workers do
    let ready = stack.select ~node !pending in
    List.iter
      (fun s ->
        match read_header s with
        | [ row_start; rows ] ->
          if rows > 0 then begin
            let block = decode_rows (recv_exact s (rows * n * 8)) ~rows ~cols:n in
            Array.blit block 0 product row_start rows
          end;
          incr done_count;
          pending := List.filter (fun s' -> s' != s) !pending;
          s.close ()
        | _ -> failwith "matmul master: bad result header")
      ready
  done;
  l.close_listener ();
  { product; elapsed = Sim.now sim - t0 }
