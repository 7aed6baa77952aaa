(** Ring of reusable, registered send buffers. The real substrate
    transmits from user/library buffers that are pinned once and hit the
    EMP translation cache afterwards (§2); modelling each message as a
    fresh region would charge a pin system call per send. A slot is
    reused once its previous send has been fully acknowledged. *)

type t

val create :
  Uls_host.Node.t -> Uls_emp.Endpoint.t -> slots:int -> size:int -> t
(** Allocate and register [slots] ring buffers of [size] bytes each. *)

val slots : t -> int
(** Number of ring slots (batch staging must flush before wrapping). *)

val send : t -> dst:int -> tag:int -> string -> Uls_emp.Endpoint.send
(** {!stage}, {!Uls_emp.Endpoint.post_send} and {!commit} for one
    message: copy the payload into the next ring slot and post the send.
    Blocks only when the ring wraps onto a send that is still in flight.
    The blit is free of simulated cost: it models the application
    reusing its own (already pinned) buffer, not an extra protocol copy. *)

type slot

val stage :
  t ->
  dst:int ->
  tag:int ->
  string ->
  slot * (int * int * Uls_host.Memory.region * int * int)
(** Claim the next ring slot and copy the payload in without posting,
    returning the slot and the [(dst, tag, region, off, len)] spec for
    {!Uls_emp.Endpoint.post_sendv}. Blocks like {!send} when the ring
    wraps onto an in-flight send. Pair with {!commit} once the batch is
    posted. *)

val commit : slot list -> Uls_emp.Endpoint.send list -> unit
(** Record the posted sends against their staged slots (same order), so
    later slot reuse waits for them. *)

val busy : t -> bool
(** A send is in flight, or a slot is claimed and its send not yet
    recorded: the pool may still hold a send the leak scan must see. *)

val in_flight : t -> int
(** Slots whose send is neither acknowledged nor failed. At quiescence a
    non-zero count means acknowledgments can no longer arrive — the
    memory-region leak sanitizer flags it. *)

val iter_regions : t -> (Uls_host.Memory.region -> unit) -> unit
(** Apply to each ring buffer, in slot order. *)
