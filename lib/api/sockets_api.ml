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
