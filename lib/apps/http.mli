(** HTTP/1.x for the web-server workload of §7.4 and the event-driven
    server runtime ({!Uls_server}).

    Real wire framing, parsed incrementally: requests and responses are
    header blocks terminated by a blank line, with [Content-Length]-framed
    bodies, arriving split across arbitrary stream-read boundaries (the
    substrate's data-streaming mode, like TCP, fragments and coalesces
    freely). Persistent connections follow HTTP/1.1 rules: keep-alive by
    default, [Connection: close] (or HTTP/1.0 without
    [Connection: keep-alive]) ends the connection after the response.

    {!server}/{!client} below keep the paper's §7.4 workload shape —
    fixed-size responses, [N] requests per connection — now carried over
    this real framing. *)

exception Bad_request of string
(** Malformed framing: bad start line, bad [Content-Length], or a header
    block exceeding the size cap. *)

type request = {
  meth : string;
  path : string;
  version : string;  (** ["HTTP/1.1"] *)
  req_headers : (string * string) list;  (** names lowercased *)
  req_body : string;
}

type response = {
  status : int;
  reason : string;
  resp_version : string;
  resp_headers : (string * string) list;  (** names lowercased *)
  resp_body : string;
}

val keep_alive : request -> bool
(** HTTP/1.1 defaults to keep-alive unless [Connection: close];
    HTTP/1.0 defaults to close unless [Connection: keep-alive]. *)

val format_request : request -> string
(** Serialise with [Content-Length] derived from the body (any
    caller-supplied [content-length] header is dropped). *)

val format_response : response -> string

val body_for : size:int -> string
(** Deterministic printable body pattern, a function of [size] alone —
    both ends can regenerate it, so responses verify byte-exactly
    without shipping expectations out of band. *)

(** Incremental request parser: feed stream fragments, collect complete
    requests as they materialise. One instance per connection. *)
module Parser : sig
  type t

  val create : ?max_header_bytes:int -> unit -> t
  (** [max_header_bytes] (default 8192) caps the start-line + header
      block; exceeding it raises {!Bad_request}. *)

  val feed : t -> string -> request list
  (** Append a fragment; return every request completed by it (zero or
      more — a short read may complete nothing, one read may complete
      several pipelined requests). @raise Bad_request on bad framing. *)
end

(** Same machine for the client side. *)
module Response_parser : sig
  type t

  val create : ?max_header_bytes:int -> unit -> t
  val feed : t -> string -> response list
end

(** {1 The §7.4 workload} *)

val http10_requests_per_conn : int
val http11_requests_per_conn : int

val server :
  Uls_engine.Sim.t ->
  Uls_api.Sockets_api.stack ->
  node:int ->
  port:int ->
  response_size:int ->
  requests_per_conn:int ->
  unit ->
  unit
(** Accept loop; each connection served by its own fiber with an
    incremental {!Parser}. Responds with [body_for ~size:response_size];
    closes after [requests_per_conn] requests (or earlier if the client
    sends [Connection: close]). Runs forever; spawn as a fiber. *)

type client_result = {
  requests : int;
  mean_response_time : float;  (** ns, connection setup amortised in *)
  response_times : float list;  (** per-request, ns *)
}

val client :
  Uls_engine.Sim.t ->
  Uls_api.Sockets_api.stack ->
  node:int ->
  server:Uls_api.Sockets_api.addr ->
  response_size:int ->
  requests_per_conn:int ->
  connections:int ->
  client_result
(** Issue [connections * requests_per_conn] requests, verifying each
    response body against [body_for]; response time of a request
    includes its share of connection setup (the first request of each
    connection carries the whole connect).
    @raise Failure on a body mismatch. *)
