(** Fixed-width little-endian integer framing for the substrate's
    control messages and eager-data headers. *)

let int_bytes = 8

exception Protocol_error of string

let encode ints =
  let b = Bytes.create (int_bytes * List.length ints) in
  List.iteri (fun i v -> Bytes.set_int64_le b (i * int_bytes) (Int64.of_int v)) ints;
  Bytes.to_string b

(* The integers each kind of message leads with. *)
let fields = function
  | Tags.Conn_request -> 3  (* client node, client conn id, client port *)
  | Tags.Rdvz_request -> 3  (* sequence number, rendezvous id, size *)
  | Tags.Data -> 2  (* sequence number, piggy-backed credits *)
  | Tags.Conn_reply | Tags.Credit_ack | Tags.Rdvz_grant | Tags.Close -> 1
  | Tags.Rdvz_data -> 0

let decode kind ~owner ~peer ~len get =
  let n = fields kind in
  if len < n * int_bytes then
    raise
      (Protocol_error
         (Printf.sprintf "%s %d: %s message from node %d too short (%d B < %d B)"
            (if kind = Tags.Conn_request then "listener port" else "conn")
            owner (Tags.kind_name kind) peer len (n * int_bytes)));
  let ints = Array.make n 0 in
  for i = 0 to n - 1 do
    ints.(i) <- Int64.to_int (get (i * int_bytes))
  done;
  ints
