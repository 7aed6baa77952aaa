open Uls_host

type t = {
  node : Node.t;
  files : (string, string) Hashtbl.t;
}

let file_read_overhead = 9_000

let create node = { node; files = Hashtbl.create 16 }

let fs_cost t len =
  Node.compute t.node file_read_overhead;
  Node.compute t.node (Cost_model.copy_cost (Node.model t.node) len)

let write_file t ~name data =
  fs_cost t (String.length data);
  Hashtbl.replace t.files name data

let create_random t ~name ~size ~seed =
  let rng = Uls_engine.Rng.create ~seed in
  let b = Bytes.create size in
  for i = 0 to size - 1 do
    Bytes.set b i (Char.chr (32 + Uls_engine.Rng.int rng 95))
  done;
  Hashtbl.replace t.files name (Bytes.to_string b)

let exists t name = Hashtbl.mem t.files name
let size t name = Option.map String.length (Hashtbl.find_opt t.files name)
let list t = Hashtbl.fold (fun k _ acc -> k :: acc) t.files [] |> List.sort compare

let read t ~name ~off ~len =
  match Hashtbl.find_opt t.files name with
  | None -> raise Not_found
  | Some data ->
    let total = String.length data in
    let n = if off >= total then 0 else min len (total - off) in
    fs_cost t n;
    if n = 0 then "" else String.sub data off n
