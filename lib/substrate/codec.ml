(** Fixed-width little-endian integer framing for the substrate's
    control messages and eager-data headers. *)

let int_bytes = 8

exception Protocol_error of string
(** A peer sent a control message the substrate cannot decode (wrong
    size or shape). Raised instead of asserting so the failure names the
    connection and message kind. *)

let protocol_error fmt = Printf.ksprintf (fun s -> raise (Protocol_error s)) fmt

let encode ints =
  let b = Bytes.create (int_bytes * List.length ints) in
  List.iteri (fun i v -> Bytes.set_int64_le b (i * int_bytes) (Int64.of_int v)) ints;
  Bytes.to_string b

let decode ?(count = -1) s =
  let n = String.length s / int_bytes in
  let n = if count >= 0 then min count n else n in
  List.init n (fun i ->
      Int64.to_int (Bytes.get_int64_le (Bytes.of_string s) (i * int_bytes)))

let decode_region region ~off ~count =
  List.init count (fun i ->
      Int64.to_int
        (Uls_host.Memory.get_int64_le region (off + (i * int_bytes))))
