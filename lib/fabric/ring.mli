(** Consistent-hash ring with virtual nodes — the placement function of
    the L4 load-balancer switch.

    Each member cell owns [vnodes] pseudo-random points on a ring of
    hash positions; a flow key maps to the cell owning the first point
    clockwise from the key's own position. Properties the fabric builds
    on, all verified by unit tests:

    - {e Balance}: with the default 128 virtual nodes per cell, every
      cell's share of a large key population stays within roughly
      +/- 30% of 1/K (tightening as [vnodes] grows).
    - {e Minimal disruption}: removing a cell remaps only the keys that
      cell owned (~= 1/K of all keys); adding a (K+1)-th cell moves
      ~= 1/(K+1) of keys, all {e to} the new cell. No key ever moves
      between two surviving cells.
    - {e Determinism}: placement is a pure function of (seed, members,
      key) — a SplitMix64-finalizer hash, independent of insertion
      order and of OCaml's [Hashtbl.hash]. Equal ring positions are
      owned by the lower cell id (ECMP-style tie-break), so every node
      computing the ring agrees without coordination.

    Membership changes rebuild the point array (O(K * vnodes * log) —
    rare); lookups are a binary search (O(log (K * vnodes))). *)

type t

val create : ?vnodes:int -> ?seed:int -> unit -> t
(** Empty ring. [vnodes] defaults to 128 points per cell. *)

val add : t -> int -> unit
(** Add a cell (id) to the ring. Idempotent. *)

val remove : t -> int -> unit
(** Remove a cell from the ring. Idempotent. *)

val lookup : t -> key:int -> int option
(** Owning cell for a flow key, [None] on an empty ring. *)

val members : t -> int list
(** Current cells, ascending. *)

val size : t -> int

val hash2 : seed:int -> int -> int -> int
(** The ring's non-negative 64-bit mixing hash, exposed for callers
    that need a consistent flow-key or steering hash (e.g. packing a
    5-tuple into a key). *)
