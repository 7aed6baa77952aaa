(* Tests for the stack-agnostic sockets API helpers, using an in-memory
   fake stream (no simulator). *)
open Uls_api.Sockets_api

let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* A scripted stream: recv returns the scripted chunks one by one
   (respecting the requested size), then "". *)
let fake_stream chunks =
  let pending = ref chunks in
  {
    send = ignore;
    recv =
      (fun n ->
        match !pending with
        | [] -> ""
        | c :: rest ->
          if String.length c <= n then begin
            pending := rest;
            c
          end
          else begin
            pending := String.sub c n (String.length c - n) :: rest;
            String.sub c 0 n
          end);
    close = (fun () -> ());
    readable = (fun () -> !pending <> []);
    watch = (fun _ -> ());
    peer = (fun () -> { node = 1; port = 2 });
    local = (fun () -> { node = 0; port = 3 });
  }

let test_recv_exact_across_chunks () =
  let s = fake_stream [ "ab"; "cd"; "efgh" ] in
  check_str "spans chunks" "abcde" (recv_exact s 5);
  check_str "remainder" "fgh" (recv_exact s 3)

let test_recv_exact_eof_raises () =
  let s = fake_stream [ "ab" ] in
  Alcotest.check_raises "premature eof" Connection_closed (fun () ->
      ignore (recv_exact s 5))

let test_pp_addr () =
  check_str "format" "3:1234"
    (Format.asprintf "%a" pp_addr { node = 3; port = 1234 })

let test_recv_exact_zero () =
  let s = fake_stream [ "abc" ] in
  check_str "zero bytes" "" (recv_exact s 0);
  check_bool "stream untouched" true (s.readable ())

let suites =
  [
    ( "api.helpers",
      [
        Alcotest.test_case "recv_exact across chunks" `Quick
          test_recv_exact_across_chunks;
        Alcotest.test_case "recv_exact eof" `Quick test_recv_exact_eof_raises;
        Alcotest.test_case "recv_exact zero" `Quick test_recv_exact_zero;
        Alcotest.test_case "pp_addr" `Quick test_pp_addr;
      ] );
  ]
