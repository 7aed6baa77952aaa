type fd = int

exception Bad_fd of fd

type file = {
  disk : Ramdisk.t;
  name : string;
  mutable pos : int;
  writable : bool;
  pending : Buffer.t; (* writes accumulated until close *)
}

type entry =
  | File of file
  | Socket of Uls_api.Sockets_api.stream

type t = {
  table : (fd, entry) Hashtbl.t;
  mutable next_fd : int;
}

let create () = { table = Hashtbl.create 16; next_fd = 3 (* after std fds *) }

let alloc t entry =
  let fd = t.next_fd in
  t.next_fd <- fd + 1;
  Hashtbl.replace t.table fd entry;
  fd

let lookup t fd =
  match Hashtbl.find_opt t.table fd with
  | Some e -> e
  | None -> raise (Bad_fd fd)

let open_file t disk ~name ~mode =
  let writable =
    match mode with
    | `Read ->
      if not (Ramdisk.exists disk name) then raise Not_found;
      false
    | `Create -> true
  in
  alloc t (File { disk; name; pos = 0; writable; pending = Buffer.create 64 })

let socket_fd t stream = alloc t (Socket stream)

let read t fd n =
  match lookup t fd with
  | Socket s -> s.Uls_api.Sockets_api.recv n
  | File f ->
    if f.writable then
      (* Reads of a file being created see what was written so far. *)
      let data = Buffer.contents f.pending in
      let avail = String.length data - f.pos in
      let m = max 0 (min n avail) in
      let s = String.sub data f.pos m in
      f.pos <- f.pos + m;
      s
    else begin
      let s = Ramdisk.read f.disk ~name:f.name ~off:f.pos ~len:n in
      f.pos <- f.pos + String.length s;
      s
    end

let write t fd data =
  match lookup t fd with
  | Socket s -> s.Uls_api.Sockets_api.send data
  | File f ->
    if not f.writable then invalid_arg "Fdio.write: read-only file";
    Buffer.add_string f.pending data

let close t fd =
  let e = lookup t fd in
  Hashtbl.remove t.table fd;
  match e with
  | Socket s -> s.Uls_api.Sockets_api.close ()
  | File f ->
    if f.writable then
      Ramdisk.write_file f.disk ~name:f.name (Buffer.contents f.pending)
