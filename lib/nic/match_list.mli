(** NIC-side descriptor list with tag matching (EMP §2, R4). An incoming
    frame is matched against posted descriptors in post order. Two
    engines model the two firmware generations:

    - [Linear] — the original walk: every posted descriptor is examined
      until one matches, so the per-frame cost is O(total posted
      descriptors) at the paper's ~550 ns each. Faithful to the measured
      Tigon firmware and kept as the ablation baseline.
    - [Hashed] — a hash index keyed on (src, tag) with a FIFO of
      descriptors per key. A concrete frame can match at most four keys
      ((src,tag), (-1,tag), (src,-1), (-1,-1)), so a lookup costs a few
      hash probes instead of a walk, independent of how many other
      connections have descriptors posted.

    Every lookup reports a {!probe} so the NIC model can charge walk and
    hash costs explicitly. A wildcard class's hash probe is paid from the
    first post of that class until {!unpost_all}.

    Removal is physical under both engines: a taken or unposted
    descriptor is unlinked at once (O(1) per descriptor), and a key
    whose FIFO empties leaves the index, so the list never retains a
    removed value. *)

type engine = Linear | Hashed

type probe = { walked : int; lookups : int }
(** [walked]: descriptors examined (linear walk or key heads compared);
    [lookups]: hash-table probes (0 for the linear engine). *)

val no_probe : probe

type 'a t

val create : ?engine:engine -> unit -> 'a t
(** Default [Linear] — the measured firmware behaviour. *)

val engine : 'a t -> engine
val engine_name : engine -> string
val engine_of_string : string -> engine option
val length : 'a t -> int

type 'a handle
(** One posted descriptor, for unposting it in O(1) with {!remove}. *)

val detached : 'a handle
(** A handle that names no descriptor ({!remove} answers [false]). *)

val post : 'a t -> src:int -> tag:int -> 'a -> 'a handle
(** Append a descriptor matching sender [src] and 16-bit [tag].
    [src = -1] or [tag = -1] act as wildcards. *)

val remove : 'a t -> 'a handle -> bool
(** Unpost this descriptor in O(1). [false] if it was already taken or
    removed. *)

val take : 'a t -> src:int -> tag:int -> 'a option * probe
(** Find, remove and return the first descriptor matching an incoming
    frame from [src] with [tag], with the match cost actually incurred.
    [None] means no match — the probe then covers the whole search. Both
    engines return the same descriptor in the same order (hashed falls
    back to the linear walk when the query itself carries a wildcard,
    where cross-key FIFO order matters). *)

val find : 'a t -> src:int -> tag:int -> 'a option * probe
(** Like {!take} but without removing the matched descriptor — used by
    forward-on-match descriptors that persist across several frames
    (collective combine descriptors count arrivals down to zero before
    being unposted with {!remove_first}). *)

val remove_first : 'a t -> ('a -> bool) -> 'a option
(** Remove and return the first live descriptor satisfying the
    predicate, preserving the order of the others. *)

val unpost_all : 'a t -> 'a list
(** Remove every descriptor (socket close / EMP state reset). *)

val unpost_matching : 'a t -> ('a -> bool) -> 'a list
val iter : 'a t -> ('a -> unit) -> unit
