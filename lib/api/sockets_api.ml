type addr = {
  node : int;
  port : int;
}

exception Connection_refused of addr
exception Connection_timeout of addr
exception Connection_closed
exception Connection_reset
exception Bind_in_use of addr

type stream = {
  send : string -> unit;
  recv : int -> string;
  close : unit -> unit;
  readable : unit -> bool;
  watch : (unit -> unit) -> unit;
  peer : unit -> addr;
  local : unit -> addr;
}

type listener = {
  accept : unit -> stream * addr;
  try_accept : unit -> (stream * addr) option;
  acceptable : unit -> bool;
  watch_accept : (unit -> unit) -> unit;
  pending : unit -> int;
  close_listener : unit -> unit;
}

type stack = {
  stack_name : string;
  listen : node:int -> port:int -> backlog:int -> listener;
  connect : node:int -> addr -> stream;
  select : node:int -> stream list -> stream list;
}

(* A node's handles are resolved at its first select, so a stack that
   never selects registers no select counters. *)
let select ~nodes ~activity ~metrics =
  let handles =
    Array.init nodes (fun node ->
        lazy
          (let m = metrics node in
           ( activity node,
             Uls_engine.Metrics.counter m ~node "api.select_scans",
             Uls_engine.Metrics.counter m ~node "api.select_streams_scanned" )))
  in
  fun ~node streams ->
    let activity, scans, scanned = Lazy.force handles.(node) in
    (* The O(registered) scan the event engine exists to avoid; the
       counters let experiments compare it against evq wakeups. *)
    let rec wait () =
      Uls_engine.Stats.Counter.incr scans;
      Uls_engine.Stats.Counter.add scanned (List.length streams);
      match List.filter (fun st -> st.readable ()) streams with
      | _ :: _ as r -> r
      | [] ->
        Uls_engine.Cond.wait activity;
        wait ()
    in
    wait ()

let pp_addr fmt a = Format.fprintf fmt "%d:%d" a.node a.port

let recv_exact s n =
  let buf = Buffer.create n in
  let rec loop remaining =
    if remaining = 0 then Buffer.contents buf
    else begin
      let chunk = s.recv remaining in
      if chunk = "" then raise Connection_closed;
      Buffer.add_string buf chunk;
      loop (remaining - String.length chunk)
    end
  in
  loop n
