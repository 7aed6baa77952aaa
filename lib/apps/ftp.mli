(** File transfer application (§7.3): a text control protocol with bulk
    data streamed over the same connection, running on RAM disks at both
    ends. Works unchanged over kernel TCP and both substrate modes. *)

val server :
  Uls_engine.Sim.t ->
  Uls_api.Sockets_api.stack ->
  node:int ->
  port:int ->
  disk:Ramdisk.t ->
  unit ->
  unit
(** Run the ftp server fiber body: accepts connections forever, each
    served by its own fiber. Supported commands: [RETR f], [STOR f n],
    [SIZE f], [LIST], [QUIT]. Spawn this inside [Sim.spawn]. *)

type transfer = {
  bytes : int;
  elapsed : Uls_engine.Time.ns;
}

val fetch :
  Uls_engine.Sim.t ->
  Uls_api.Sockets_api.stack ->
  node:int ->
  server:Uls_api.Sockets_api.addr ->
  file:string ->
  disk:Ramdisk.t ->
  transfer
(** Download [file] into the local RAM disk; returns size and elapsed
    virtual time. @raise Not_found if the server lacks the file. *)

val store :
  Uls_engine.Sim.t ->
  Uls_api.Sockets_api.stack ->
  node:int ->
  server:Uls_api.Sockets_api.addr ->
  file:string ->
  disk:Ramdisk.t ->
  transfer
(** Upload [file] from the local RAM disk. *)

val remote_list :
  Uls_api.Sockets_api.stack ->
  node:int ->
  server:Uls_api.Sockets_api.addr ->
  string list
