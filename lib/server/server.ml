(** Echo and keep-alive HTTP servers over the {!Sched} worker pool.
    See the .mli for the workload contract. *)

open Uls_engine
module Api = Uls_api.Sockets_api
module Http = Uls_apps.Http

type workload = Echo | Http of int

type handles = {
  h_echo_chunks : Stats.Counter.t;
  h_echo_bytes : Stats.Counter.t;
  h_http_requests : Stats.Counter.t;
}

type t = {
  node : int;
  metrics : Metrics.t;
  mh : handles;
  trace : Trace.t;
  mutable served : int;
  mutable scheds : Sched.t array;
}

let requests t = t.served

let sched t =
  if Array.length t.scheds = 0 then invalid_arg "Server.sched"
  else t.scheds.(0)

let sum f t = Array.fold_left (fun acc s -> acc + f s) 0 t.scheds

let inflight t = sum Sched.inflight t
(* Every shard counts into its node's counters. *)
let accepted t = Sched.accepted (sched t)
let shed t = Sched.shed (sched t)

(* Sum of per-shard high-water marks: an upper bound on the cell's true
   concurrent peak (shards need not peak at the same instant), which is
   the safe direction for the "never crossed the match-walk collapse"
   check. *)
let peak_inflight t = sum Sched.peak_inflight t

let http_reject =
  Http.format_response
    {
      Http.status = 503;
      reason = "Service Unavailable";
      resp_version = "HTTP/1.1";
      resp_headers = [ ("connection", "close") ];
      resp_body = "";
    }

let echo_handler t _peer data =
  t.served <- t.served + 1;
  Stats.Counter.incr t.mh.h_echo_chunks;
  Stats.Counter.add t.mh.h_echo_bytes (String.length data);
  Trace.instant t.trace ~layer:Trace.App ~node:t.node "server.echo"
    ~args:[ ("bytes", string_of_int (String.length data)) ];
  { Sched.replies = [ data ]; close = false }

(* "/b/<n>" asks for an n-byte body; anything else gets the default. *)
let body_size_of_path ~default path =
  match String.split_on_char '/' path with
  | [ ""; "b"; n ] -> (
    match int_of_string_opt n with Some n when n >= 0 -> n | _ -> default)
  | _ -> default

let http_handler t default_size peer =
  let p = Http.Parser.create () in
  fun data ->
    (* Bad_request from the parser propagates: the scheduler closes the
       connection, which is all a server can do with unframeable bytes. *)
    let reqs = Http.Parser.feed p data in
    let close = ref false in
    let replies =
      List.filter_map
        (fun (req : Http.request) ->
          if !close then None (* nothing pipelined after Connection: close *)
          else
            Some
              (Trace.span t.trace ~layer:Trace.App ~node:t.node
                 "server.request"
                 ~args:[ ("peer", Format.asprintf "%a" Api.pp_addr peer) ]
                 (fun () ->
                   t.served <- t.served + 1;
                   Stats.Counter.incr t.mh.h_http_requests;
                   let size =
                     body_size_of_path ~default:default_size req.Http.path
                   in
                   let last = not (Http.keep_alive req) in
                   if last then close := true;
                   Http.format_response
                     {
                       Http.status = 200;
                       reason = "OK";
                       resp_version = "HTTP/1.1";
                       resp_headers =
                         [ ("connection",
                            if last then "close" else "keep-alive") ];
                       resp_body = Http.body_for ~size;
                     })))
        reqs
    in
    { Sched.replies; close = !close }

let start sim (stack : Api.stack) ~node ~port ?(backlog = 64) ?config
    ?(shards = 1) workload =
  let listener = stack.listen ~node ~port ~backlog in
  let config =
    match config with
    | Some c -> c
    | None ->
      {
        Sched.default_config with
        reject = (match workload with Http _ -> Some http_reject | Echo -> None);
      }
  in
  let metrics = Metrics.for_sim sim in
  let counter name = Metrics.counter metrics ~node name in
  let t =
    {
      node;
      metrics;
      mh =
        {
          h_echo_chunks = counter "server.echo.chunks";
          h_echo_bytes = counter "server.echo.bytes";
          h_http_requests = counter "server.http.requests";
        };
      trace = Trace.for_sim sim;
      served = 0;
      scheds = [||];
    }
  in
  let handler =
    match workload with
    | Echo -> echo_handler t
    | Http size -> http_handler t size
  in
  let listeners =
    if shards <= 1 then [| listener |]
    else Reuseport.listeners sim ~node ~shards listener
  in
  t.scheds <-
    Array.map
      (fun l -> Sched.start sim ~node ~config ~listener:l ~handler ())
      listeners;
  t

let stop t = Array.iter Sched.stop t.scheds
