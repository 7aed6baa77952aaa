(* Structured cross-layer event tracing. Events carry the layer they
   came from, the node, optional connection id / sequence number, and
   the virtual timestamp; spans (begin/end pairs matched by id) measure
   where a byte's latency goes, instants mark point events. The whole
   buffer exports as a Chrome-trace JSON array (chrome://tracing /
   Perfetto: one "process" per node, one "thread" per layer). *)

type layer = Net | Nic | Emp | Substrate | Tcpip | Collective | App | Engine

let layer_name = function
  | Net -> "net"
  | Nic -> "nic"
  | Emp -> "emp"
  | Substrate -> "substrate"
  | Tcpip -> "tcpip"
  | Collective -> "collective"
  | App -> "app"
  | Engine -> "engine"

let layer_index = function
  | Net -> 7
  | Nic -> 0
  | Emp -> 1
  | Substrate -> 2
  | Tcpip -> 3
  | Collective -> 4
  | App -> 5
  | Engine -> 6

type kind = Span_begin of int | Span_end of int | Instant

type event = {
  ev_time : Time.ns;
  ev_layer : layer;
  ev_name : string;
  ev_kind : kind;
  ev_node : int;  (* -1 when not tied to a node *)
  ev_conn : int;  (* -1 when not tied to a connection *)
  ev_seq : int;  (* -1 when not tied to a sequence number *)
  ev_args : (string * string) list;
}

type t = {
  sim : Sim.t;
  mutable on : bool;
  events : event Vec.t;
  mutable next_span : int;
}

let create sim = { sim; on = false; events = Vec.create (); next_span = 0 }

(* One shared trace per simulation, created on demand: instrumentation
   deep inside the stack reaches it through the sim it already holds. *)
let slot = Sim.key create
let for_sim sim = Sim.get sim slot

let enable t = t.on <- true
let enabled t = t.on

let record t ~layer ~node ~conn ~seq ~args name kind =
  Vec.push t.events
    {
      ev_time = Sim.now t.sim;
      ev_layer = layer;
      ev_name = name;
      ev_kind = kind;
      ev_node = node;
      ev_conn = conn;
      ev_seq = seq;
      ev_args = args;
    }

let instant t ~layer ?(node = -1) ?(conn = -1) ?(seq = -1) ?(args = []) name =
  if t.on then record t ~layer ~node ~conn ~seq ~args name Instant

let span_begin t ~layer ?(node = -1) ?(conn = -1) ?(seq = -1) ?(args = []) name
    =
  if t.on then begin
    t.next_span <- t.next_span + 1;
    record t ~layer ~node ~conn ~seq ~args name (Span_begin t.next_span);
    t.next_span
  end
  else 0

let span_end t ~layer ?(node = -1) ?(conn = -1) ?(seq = -1) ?(args = []) name
    id =
  if t.on && id > 0 then record t ~layer ~node ~conn ~seq ~args name (Span_end id)

(* Disabled, a span is just the call: no protect closure, no record.
   Hot callers also test [enabled] themselves so that the optional
   arguments are never boxed. *)
let span t ~layer ?node ?conn ?seq ?args name f =
  if not t.on then f ()
  else begin
    let id = span_begin t ~layer ?node ?conn ?seq ?args name in
    Fun.protect
      ~finally:(fun () -> span_end t ~layer ?node ?conn ?seq ?args name id)
      f
  end

let events t = List.rev (Vec.fold (fun acc e -> e :: acc) [] t.events)

(* --- aggregation -------------------------------------------------------- *)

let span_totals t =
  let opened : (int, event) Hashtbl.t = Hashtbl.create 64 in
  let totals : (layer * string, int * int) Hashtbl.t = Hashtbl.create 16 in
  Vec.iter
    (fun e ->
      match e.ev_kind with
      | Span_begin id -> Hashtbl.replace opened id e
      | Span_end id -> (
        match Hashtbl.find_opt opened id with
        | Some b ->
          Hashtbl.remove opened id;
          let key = (b.ev_layer, b.ev_name) in
          let count, total =
            Option.value (Hashtbl.find_opt totals key) ~default:(0, 0)
          in
          Hashtbl.replace totals key (count + 1, total + (e.ev_time - b.ev_time))
        | None -> ())
      | Instant -> ())
    t.events;
  Hashtbl.fold
    (fun (layer, name) (count, total) acc -> (layer, name, count, total) :: acc)
    totals []
  |> List.sort compare

(* --- Chrome trace export ------------------------------------------------ *)

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let event_to_chrome b e =
  let ph, extra =
    match e.ev_kind with
    | Span_begin id -> ("b", Printf.sprintf ",\"id\":%d" id)
    | Span_end id -> ("e", Printf.sprintf ",\"id\":%d" id)
    | Instant -> ("i", ",\"s\":\"t\"")
  in
  let args =
    (if e.ev_conn >= 0 then [ ("conn", string_of_int e.ev_conn) ] else [])
    @ (if e.ev_seq >= 0 then [ ("seq", string_of_int e.ev_seq) ] else [])
    @ e.ev_args
  in
  let args_json =
    match args with
    | [] -> ""
    | args ->
      ",\"args\":{"
      ^ String.concat ","
          (List.map
             (fun (k, v) ->
               Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v))
             args)
      ^ "}"
  in
  Printf.bprintf b
    "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d%s%s}"
    (json_escape e.ev_name) (layer_name e.ev_layer) ph
    (float_of_int e.ev_time /. 1_000.)
    (max 0 e.ev_node) (layer_index e.ev_layer) extra args_json

let to_chrome_json t =
  let b = Buffer.create 4_096 in
  Buffer.add_string b "[";
  let first = ref true in
  Vec.iter
    (fun e ->
      if !first then first := false else Buffer.add_string b ",\n";
      event_to_chrome b e)
    t.events;
  Buffer.add_string b "]\n";
  Buffer.contents b
