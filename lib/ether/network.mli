(** Star topology: [n] stations, one switch, full-duplex gigabit links —
    the testbed of the paper (4 machines on a Packet Engines switch). *)

type t

val create :
  Uls_engine.Sim.t ->
  ?bits_per_ns:float ->
  ?propagation:Uls_engine.Time.ns ->
  ?fwd_latency:Uls_engine.Time.ns ->
  ?queue_limit:int ->
  stations:int ->
  unit ->
  t

val attach : t -> station:int -> (Frame.t -> unit) -> unit
(** Set the station's receive handler (its NIC rx entry point). *)

val uplink : t -> station:int -> Link.t
(** The station-to-switch link; the station's NIC transmits on this. *)

val send : t -> Frame.t -> unit
(** Transmit on the frame's [src] station uplink. *)

val switch : t -> Switch.t

val set_fault : t -> Uls_engine.Fault.t -> unit
(** Install a fault engine on every hop: station uplinks
    (["uplink-<i>"]), switch ingress (["sw-in-<port>"]) and switch
    egress links (["sw-egress-<i>"]). *)

val set_fault_filter : t -> (Frame.t -> bool) -> unit
(** Legacy boolean drop filter at switch ingress only. *)
