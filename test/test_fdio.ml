(* Tests for the fd-tracking layer (§5.4): one generic read/write call
   routed to files or sockets by descriptor. *)
open Uls_engine
module Fdio = Uls_apps.Fdio

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

let with_disk f =
  let sim = Sim.create () in
  Sim.spawn sim (fun () ->
      let node = Uls_host.Node.create sim Uls_host.Cost_model.paper_testbed ~id:0 in
      f (Uls_apps.Ramdisk.create node));
  ignore (Sim.run sim)

let test_file_read_cursor () =
  with_disk (fun disk ->
      Uls_apps.Ramdisk.write_file disk ~name:"f" "abcdefgh";
      let t = Fdio.create () in
      let fd = Fdio.open_file t disk ~name:"f" ~mode:`Read in
      check_str "first" "abc" (Fdio.read t fd 3);
      check_str "second advances" "def" (Fdio.read t fd 3);
      check_str "tail" "gh" (Fdio.read t fd 10);
      check_str "eof" "" (Fdio.read t fd 10);
      Fdio.close t fd)

let test_file_create_flushes_on_close () =
  with_disk (fun disk ->
      let t = Fdio.create () in
      let fd = Fdio.open_file t disk ~name:"out" ~mode:`Create in
      Fdio.write t fd "hello ";
      Fdio.write t fd "world";
      check_bool "not yet on disk" false (Uls_apps.Ramdisk.exists disk "out");
      Fdio.close t fd;
      check_str "flushed" "hello world"
        (Uls_apps.Ramdisk.read disk ~name:"out" ~off:0 ~len:64))

let test_open_missing_raises () =
  with_disk (fun disk ->
      let t = Fdio.create () in
      try
        ignore (Fdio.open_file t disk ~name:"nope" ~mode:`Read);
        Alcotest.fail "expected Not_found"
      with Not_found -> ())

let test_bad_fd () =
  let t = Fdio.create () in
  Alcotest.check_raises "bad fd" (Fdio.Bad_fd 42) (fun () ->
      ignore (Fdio.read t 42 1))

let test_double_close_raises () =
  with_disk (fun disk ->
      Uls_apps.Ramdisk.write_file disk ~name:"f" "x";
      let t = Fdio.create () in
      let fd = Fdio.open_file t disk ~name:"f" ~mode:`Read in
      Fdio.close t fd;
      Alcotest.check_raises "double close" (Fdio.Bad_fd fd) (fun () ->
          Fdio.close t fd))

let test_write_readonly_rejected () =
  with_disk (fun disk ->
      Uls_apps.Ramdisk.write_file disk ~name:"f" "x";
      let t = Fdio.create () in
      let fd = Fdio.open_file t disk ~name:"f" ~mode:`Read in
      Alcotest.check_raises "read-only"
        (Invalid_argument "Fdio.write: read-only file") (fun () ->
          Fdio.write t fd "nope"))

let test_dispatch_file_vs_socket () =
  (* The same generic calls drive a file fd and a socket fd — the whole
     point of descriptor tracking. *)
  with_disk (fun disk ->
      Uls_apps.Ramdisk.write_file disk ~name:"f" "data";
      let sent = Buffer.create 16 in
      let fake : Uls_api.Sockets_api.stream =
        {
          send = Buffer.add_string sent;
          recv = (fun _ -> "sockdata");
          close = (fun () -> Buffer.add_string sent "[closed]");
          readable = (fun () -> true);
          watch = (fun _ -> ());
          peer = (fun () -> { node = 1; port = 1 });
          local = (fun () -> { node = 0; port = 1 });
        }
      in
      let t = Fdio.create () in
      let file_fd = Fdio.open_file t disk ~name:"f" ~mode:`Read in
      let sock_fd = Fdio.socket_fd t fake in
      check_str "file read" "data" (Fdio.read t file_fd 10);
      check_str "socket read" "sockdata" (Fdio.read t sock_fd 10);
      Fdio.write t sock_fd "tosock";
      Fdio.close t sock_fd;
      check_str "socket ops routed" "tosock[closed]" (Buffer.contents sent))

let test_distinct_fds () =
  with_disk (fun disk ->
      Uls_apps.Ramdisk.write_file disk ~name:"f" "x";
      let t = Fdio.create () in
      let a = Fdio.open_file t disk ~name:"f" ~mode:`Read in
      let b = Fdio.open_file t disk ~name:"f" ~mode:`Read in
      check_bool "unique" true (a <> b))

let suites =
  [
    ( "apps.fdio",
      [
        Alcotest.test_case "file cursor" `Quick test_file_read_cursor;
        Alcotest.test_case "create flushes on close" `Quick
          test_file_create_flushes_on_close;
        Alcotest.test_case "open missing" `Quick test_open_missing_raises;
        Alcotest.test_case "bad fd" `Quick test_bad_fd;
        Alcotest.test_case "double close" `Quick test_double_close_raises;
        Alcotest.test_case "read-only write" `Quick test_write_readonly_rejected;
        Alcotest.test_case "file vs socket dispatch" `Quick
          test_dispatch_file_vs_socket;
        Alcotest.test_case "distinct fds" `Quick test_distinct_fds;
      ] );
  ]
