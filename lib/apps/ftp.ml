open Uls_api.Sockets_api
module Sim = Uls_engine.Sim

let chunk_size = 61_440
let ctrl_bytes = 64

(* Control messages are fixed-size so the protocol works over both
   data-streaming (byte stream) and datagram (message-preserving)
   sockets: a datagram recv consumes exactly one whole message. *)
let send_ctrl s line =
  if String.length line >= ctrl_bytes then invalid_arg "ftp: control line too long";
  s.send (line ^ String.make (ctrl_bytes - String.length line) ' ')

let recv_ctrl s = String.trim (recv_exact s ctrl_bytes)

type transfer = {
  bytes : int;
  elapsed : Uls_engine.Time.ns;
}

(* --- server ---------------------------------------------------------- *)


(* Bulk paths run through the fd table: the same generic read/write is
   issued on a file descriptor and on a socket descriptor, which is the
   function name-space overloading the paper demonstrates with ftp
   (5.4, 7.3). *)
let serve_retr fdio disk s sock_fd name =
  match Ramdisk.size disk name with
  | None -> send_ctrl s "ERR no such file"
  | Some total ->
    send_ctrl s (Printf.sprintf "OK %d" total);
    let file_fd = Fdio.open_file fdio disk ~name ~mode:`Read in
    let rec stream () =
      let chunk = Fdio.read fdio file_fd chunk_size in
      if chunk <> "" then begin
        Fdio.write fdio sock_fd chunk;
        stream ()
      end
    in
    stream ();
    Fdio.close fdio file_fd

let serve_stor fdio disk s sock_fd name size =
  send_ctrl s "OK send";
  let file_fd = Fdio.open_file fdio disk ~name ~mode:`Create in
  let rec pull got =
    if got < size then begin
      let chunk = Fdio.read fdio sock_fd (min chunk_size (size - got)) in
      if chunk = "" then raise Connection_closed;
      Fdio.write fdio file_fd chunk;
      pull (got + String.length chunk)
    end
  in
  pull 0;
  Fdio.close fdio file_fd;
  send_ctrl s "OK stored"

let serve_conn disk s =
  let fdio = Fdio.create () in
  let sock_fd = Fdio.socket_fd fdio s in
  let rec loop () =
    let line = recv_ctrl s in
    match String.split_on_char ' ' line with
    | [ "RETR"; name ] ->
      serve_retr fdio disk s sock_fd name;
      loop ()
    | [ "STOR"; name; size ] ->
      serve_stor fdio disk s sock_fd name (int_of_string size);
      loop ()
    | [ "LIST" ] ->
      let files = Ramdisk.list disk in
      send_ctrl s (Printf.sprintf "OK %d" (List.length files));
      List.iter (fun f -> send_ctrl s f) files;
      loop ()
    | _ ->
      send_ctrl s "ERR bad command";
      loop ()
  in
  (try loop () with Connection_closed -> ());
  Fdio.close fdio sock_fd

let server sim stack ~node ~port ~disk () =
  let l = stack.listen ~node ~port ~backlog:8 in
  let rec accept_loop () =
    let s, _peer = l.accept () in
    (* Each connection is served by its own fiber. *)
    Sim.spawn sim ~name:"ftp-conn" (fun () -> serve_conn disk s);
    accept_loop ()
  in
  try accept_loop () with Connection_closed -> ()

(* --- client ---------------------------------------------------------- *)

let expect_ok s =
  let line = recv_ctrl s in
  match String.split_on_char ' ' line with
  | "OK" :: rest -> rest
  | _ -> raise Not_found

let with_conn stack ~node ~server f =
  let s = stack.connect ~node server in
  Fun.protect ~finally:(fun () -> s.close ()) (fun () -> f s)

let fetch sim stack ~node ~server ~file ~disk =
  with_conn stack ~node ~server (fun s ->
      let t0 = Sim.now sim in
      send_ctrl s (Printf.sprintf "RETR %s" file);
      match expect_ok s with
      | [ size ] ->
        let total = int_of_string size in
        let fdio = Fdio.create () in
        let sock_fd = Fdio.socket_fd fdio s in
        let file_fd = Fdio.open_file fdio disk ~name:file ~mode:`Create in
        let rec pull got =
          if got < total then begin
            let chunk = Fdio.read fdio sock_fd chunk_size in
            if chunk = "" then raise Connection_closed;
            Fdio.write fdio file_fd chunk;
            pull (got + String.length chunk)
          end
        in
        pull 0;
        Fdio.close fdio file_fd;
        { bytes = total; elapsed = Sim.now sim - t0 }
      | _ -> raise Not_found)

let store sim stack ~node ~server ~file ~disk =
  match Ramdisk.size disk file with
  | None -> raise Not_found
  | Some total ->
    with_conn stack ~node ~server (fun s ->
        let t0 = Sim.now sim in
        send_ctrl s (Printf.sprintf "STOR %s %d" file total);
        ignore (expect_ok s);
        let fdio = Fdio.create () in
        let sock_fd = Fdio.socket_fd fdio s in
        let file_fd = Fdio.open_file fdio disk ~name:file ~mode:`Read in
        let rec push () =
          let chunk = Fdio.read fdio file_fd chunk_size in
          if chunk <> "" then begin
            Fdio.write fdio sock_fd chunk;
            push ()
          end
        in
        push ();
        Fdio.close fdio file_fd;
        ignore (expect_ok s);
        { bytes = total; elapsed = Sim.now sim - t0 })

let remote_list stack ~node ~server =
  with_conn stack ~node ~server (fun s ->
      send_ctrl s "LIST";
      match expect_ok s with
      | [ n ] -> List.init (int_of_string n) (fun _ -> recv_ctrl s)
      | _ -> [])
