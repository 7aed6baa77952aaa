(** Assemble kernel TCP instances (one per node) into the stack-agnostic
    sockets API, so applications written against
    {!Uls_api.Sockets_api.stack} run unchanged over the kernel baseline. *)

type t

val create :
  ?config:Config.t ->
  nodes:Uls_host.Node.t array ->
  nics:Uls_nic.Tigon.t array ->
  unit ->
  t

val kernel : t -> int -> Kernel.t
val api : t -> Uls_api.Sockets_api.stack
