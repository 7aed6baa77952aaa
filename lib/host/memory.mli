(** Host memory regions. Regions carry real bytes end-to-end so tests can
    assert data integrity through every protocol layer, and each region
    has an identity used by the OS pin/translation cache.

    Bytes are materialized on demand: a region holds only the prefix
    written so far, and unwritten bytes read as ['\000']. {!length} is
    always the declared length, so every pin, DMA and copy cost is a
    function of it and never of how much was written. *)

type region

val alloc : int -> region
val of_string : string -> region
val length : region -> int
val id : region -> int

val sub_string : region -> off:int -> len:int -> string

val get_int64_le : region -> int -> int64
(** The little-endian 64-bit integer at the given offset. *)

val blit_from_string : ?len:int -> string -> region -> off:int -> unit
(** Write the first [len] bytes of the string (default: all of it). *)

val blit : src:region -> src_off:int -> dst:region -> dst_off:int -> len:int -> unit
(** Pure data movement, no simulated cost. *)
