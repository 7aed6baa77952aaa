open Uls_api.Sockets_api
module Sim = Uls_engine.Sim

exception Bad_request of string

type request = {
  meth : string;
  path : string;
  version : string;
  req_headers : (string * string) list;
  req_body : string;
}

type response = {
  status : int;
  reason : string;
  resp_version : string;
  resp_headers : (string * string) list;
  resp_body : string;
}

let header hdrs name =
  let name = String.lowercase_ascii name in
  List.assoc_opt name hdrs

let keep_alive r =
  match (r.version, header r.req_headers "connection") with
  | _, Some c when String.lowercase_ascii c = "close" -> false
  | "HTTP/1.0", Some c -> String.lowercase_ascii c = "keep-alive"
  | "HTTP/1.0", None -> false
  | _ -> true

(* --- serialisation --------------------------------------------------- *)

let format_headers buf hdrs body =
  List.iter
    (fun (n, v) ->
      if String.lowercase_ascii n <> "content-length" then begin
        Buffer.add_string buf n;
        Buffer.add_string buf ": ";
        Buffer.add_string buf v;
        Buffer.add_string buf "\r\n"
      end)
    hdrs;
  Buffer.add_string buf
    (Printf.sprintf "Content-Length: %d\r\n\r\n" (String.length body));
  Buffer.add_string buf body

let format_request r =
  let buf = Buffer.create (64 + String.length r.req_body) in
  Buffer.add_string buf
    (Printf.sprintf "%s %s %s\r\n" r.meth r.path r.version);
  format_headers buf r.req_headers r.req_body;
  Buffer.contents buf

let format_response r =
  let buf = Buffer.create (64 + String.length r.resp_body) in
  Buffer.add_string buf
    (Printf.sprintf "%s %d %s\r\n" r.resp_version r.status r.reason);
  format_headers buf r.resp_headers r.resp_body;
  Buffer.contents buf

(* Printable, position- and size-dependent: a truncated, duplicated or
   shifted body never verifies. *)
let body_for ~size =
  String.init size (fun i -> Char.chr (0x21 + ((i * 7) + size) mod 94))

(* --- incremental framing machine ------------------------------------- *)

(* Shared by the request and response parsers: accumulate fragments,
   cut the header block at the first blank line, then collect the
   Content-Length-framed body. ['s] is the parsed start line. *)
module Framer = struct
  type 's t = {
    parse_start : string -> 's;
    max_header_bytes : int;
    mutable pending : string;
    mutable in_body : ('s * (string * string) list * int) option;
        (* start line, headers, body bytes still owed *)
  }

  let create ~parse_start ~max_header_bytes =
    { parse_start; max_header_bytes; pending = ""; in_body = None }


  let find_crlfcrlf s =
    let n = String.length s in
    let rec go i =
      if i + 3 >= n then None
      else if
        s.[i] = '\r' && s.[i + 1] = '\n' && s.[i + 2] = '\r'
        && s.[i + 3] = '\n'
      then Some i
      else go (i + 1)
    in
    go 0

  let parse_header_line line =
    match String.index_opt line ':' with
    | None -> raise (Bad_request ("header without colon: " ^ line))
    | Some i ->
      let name = String.lowercase_ascii (String.sub line 0 i) in
      let v = String.sub line (i + 1) (String.length line - i - 1) in
      (name, String.trim v)

  let split_lines block =
    String.split_on_char '\n' block
    |> List.map (fun l ->
           let n = String.length l in
           if n > 0 && l.[n - 1] = '\r' then String.sub l 0 (n - 1) else l)
    |> List.filter (fun l -> l <> "")

  let content_length hdrs =
    match List.assoc_opt "content-length" hdrs with
    | None -> 0
    | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 0 -> n
      | _ -> raise (Bad_request ("bad content-length: " ^ v)))

  let feed t data =
    if data <> "" then t.pending <- t.pending ^ data;
    let out = ref [] in
    let progress = ref true in
    while !progress do
      progress := false;
      match t.in_body with
      | Some (start, hdrs, need) ->
        if String.length t.pending >= need then begin
          let body = String.sub t.pending 0 need in
          t.pending <-
            String.sub t.pending need (String.length t.pending - need);
          t.in_body <- None;
          out := (start, hdrs, body) :: !out;
          progress := true
        end
      | None -> (
        match find_crlfcrlf t.pending with
        | Some i ->
          let block = String.sub t.pending 0 i in
          t.pending <-
            String.sub t.pending (i + 4) (String.length t.pending - i - 4);
          (match split_lines block with
          | [] -> raise (Bad_request "empty header block")
          | start_line :: hdr_lines ->
            let hdrs = List.map parse_header_line hdr_lines in
            t.in_body <-
              Some (t.parse_start start_line, hdrs, content_length hdrs));
          progress := true
        | None ->
          if String.length t.pending > t.max_header_bytes then
            raise (Bad_request "header block too large"))
    done;
    List.rev !out
end

let default_max_header = 8_192

module Parser = struct
  type t = (string * string * string) Framer.t

  let parse_start line =
    match String.split_on_char ' ' line with
    | [ meth; path; version ] -> (meth, path, version)
    | _ -> raise (Bad_request ("bad request line: " ^ line))

  let create ?(max_header_bytes = default_max_header) () =
    Framer.create ~parse_start ~max_header_bytes

  let feed t data =
    Framer.feed t data
    |> List.map (fun ((meth, path, version), hdrs, body) ->
           { meth; path; version; req_headers = hdrs; req_body = body })

end

module Response_parser = struct
  type t = (string * int * string) Framer.t

  let parse_start line =
    match String.split_on_char ' ' line with
    | version :: code :: rest -> (
      match int_of_string_opt code with
      | Some status -> (version, status, String.concat " " rest)
      | None -> raise (Bad_request ("bad status line: " ^ line)))
    | _ -> raise (Bad_request ("bad status line: " ^ line))

  let create ?(max_header_bytes = default_max_header) () =
    Framer.create ~parse_start ~max_header_bytes

  let feed t data =
    Framer.feed t data
    |> List.map (fun ((version, status, reason), hdrs, body) ->
           {
             status;
             reason;
             resp_version = version;
             resp_headers = hdrs;
             resp_body = body;
           })

end

(* --- the §7.4 workload ------------------------------------------------ *)

let http10_requests_per_conn = 1
let http11_requests_per_conn = 8
let chunk = 65_536

let server sim stack ~node ~port ~response_size ~requests_per_conn () =
  let l = stack.listen ~node ~port ~backlog:16 in
  let body = body_for ~size:response_size in
  let serve s () =
    let p = Parser.create () in
    let served = ref 0 in
    let closing = ref false in
    (try
       while not !closing do
         let data = s.recv chunk in
         if data = "" then closing := true
         else
           List.iter
             (fun req ->
               if not !closing then begin
                 incr served;
                 let last =
                   (not (keep_alive req)) || !served >= requests_per_conn
                 in
                 s.send
                   (format_response
                      {
                        status = 200;
                        reason = "OK";
                        resp_version = "HTTP/1.1";
                        resp_headers =
                          [ ("connection", if last then "close" else "keep-alive") ];
                        resp_body = body;
                      });
                 if last then closing := true
               end)
             (Parser.feed p data)
       done
     with Connection_closed | Connection_reset | Bad_request _ -> ());
    s.close ()
  in
  let rec accept_loop () =
    let s, _ = l.accept () in
    (* Concurrent clients (the paper uses three) get their own fiber. *)
    Sim.spawn sim ~name:"http-conn" (serve s);
    accept_loop ()
  in
  try accept_loop () with Connection_closed -> ()

type client_result = {
  requests : int;
  mean_response_time : float;
  response_times : float list;
}

let client sim stack ~node ~server ~response_size ~requests_per_conn
    ~connections =
  let times = ref [] in
  let expected = body_for ~size:response_size in
  for _ = 1 to connections do
    let t_conn = Sim.now sim in
    let s = stack.connect ~node server in
    let conn_cost = Sim.now sim - t_conn in
    let rp = Response_parser.create () in
    let backlog = ref [] in
    (* Read until at least one complete response is out of the parser. *)
    let next_response () =
      let rec go () =
        match !backlog with
        | r :: rest ->
          backlog := rest;
          r
        | [] ->
          let data = s.recv chunk in
          if data = "" then raise Connection_closed;
          backlog := Response_parser.feed rp data;
          go ()
      in
      go ()
    in
    for r = 1 to requests_per_conn do
      let t0 = Sim.now sim in
      s.send
        (format_request
           {
             meth = "GET";
             path = "/object";
             version = "HTTP/1.1";
             req_headers =
               [ ("connection",
                  if r = requests_per_conn then "close" else "keep-alive") ];
             req_body = "";
           });
      let resp = next_response () in
      if resp.resp_body <> expected then
        failwith "http client: response body mismatch";
      let dt = Sim.now sim - t0 in
      (* Connection setup is charged to the first request of the
         connection, matching a response-time measurement taken from
         "want the object" to "have the object". *)
      let dt = if r = 1 then dt + conn_cost else dt in
      times := float_of_int dt :: !times
    done;
    s.close ()
  done;
  let times_l = List.rev !times in
  let n = List.length times_l in
  {
    requests = n;
    mean_response_time =
      (if n = 0 then 0. else List.fold_left ( +. ) 0. times_l /. float_of_int n);
    response_times = times_l;
  }
