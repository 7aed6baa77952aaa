(** Distributed matrix multiplication on a 4-node cluster (§7.5):
    a master partitions A by row blocks, broadcasts B, and collects
    partial results from the workers as they become ready using
    [select()] — the call whose substrate implementation the paper
    highlights. *)

type matrix = float array array

val random_matrix : seed:int -> n:int -> matrix
val multiply_seq : matrix -> matrix -> matrix
(** Sequential reference implementation. *)

val matrices_equal : ?eps:float -> matrix -> matrix -> bool

type result = {
  product : matrix;
  elapsed : Uls_engine.Time.ns;  (** distribute + compute + collect *)
}

val worker :
  ?ns_per_flop:float ->
  Uls_engine.Sim.t ->
  Uls_api.Sockets_api.stack ->
  node:int ->
  master:Uls_api.Sockets_api.addr ->
  unit ->
  unit
(** Worker fiber body: connect to the master, receive a row block and B,
    compute (charging virtual compute time), return the product rows. *)

val master :
  ?use_collectives:bool ->
  ?coll_base_port:int ->
  Uls_engine.Sim.t ->
  Uls_api.Sockets_api.stack ->
  node:int ->
  port:int ->
  workers:int ->
  a:matrix ->
  b:matrix ->
  result
(** Run the master (in the calling fiber): accept [workers] connections,
    distribute, select() over result sockets, assemble the product.

    With [~use_collectives:true] the master instead forms a
    {!Uls_collective.Group} spanning itself (rank 0) and the workers in
    accept order: B is broadcast down a binomial tree and the product
    rows return through one gather, replacing the per-worker B sends and
    the select() collect loop. Workers detect the mode from the protocol
    prelude, so the same {!worker} serves both. [coll_base_port]
    (default [port + 100]) is the first of [workers + 1] ports the mesh
    claims. *)
