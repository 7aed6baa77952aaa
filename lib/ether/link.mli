(** A unidirectional point-to-point link. Frames serialise onto the wire
    in FIFO order at the link rate and are delivered (whole-frame, i.e.
    store-and-forward at the receiver) after transmission plus
    propagation. *)

type t

val create :
  Uls_engine.Sim.t ->
  ?bits_per_ns:float ->
  ?propagation:Uls_engine.Time.ns ->
  name:string ->
  unit ->
  t
(** Default rate is 1.0 bit/ns (Gigabit Ethernet); default propagation is
    500 ns (cable + PHY + serdes). *)

val set_receiver : t -> (Frame.t -> unit) -> unit

val set_fault : t -> Uls_engine.Fault.t -> unit
(** Consult the fault engine (keyed by this link's name) for every frame
    sent; lost and damaged frames still occupy their wire time. *)

val send : t -> Frame.t -> unit
(** Enqueue a frame; does not block the caller. Delivery is dropped
    silently if no receiver is attached. *)

val transmit_time : t -> Frame.t -> Uls_engine.Time.ns
val frames_sent : t -> int
val bytes_sent : t -> int
(** Wire bytes, including overheads. *)

val busy_until : t -> Uls_engine.Time.ns
