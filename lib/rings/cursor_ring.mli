(** Fixed-size power-of-two ring with free-running producer/consumer
    cursors — the slot array shared between host and NIC in the batched
    I/O path. Cursors only ever increase; the slot index is
    [cursor land (capacity - 1)], so wrap-around (including integer
    overflow past 2^62) needs no special casing: distances are computed
    with two's-complement subtraction. Single producer, single consumer
    (one fiber each side in the simulator). *)

type 'a t

val create : ?start:int -> capacity:int -> dummy:'a -> unit -> 'a t
(** [capacity] must be a power of two. [dummy] fills unused slots (the
    descriptor arrays stay unboxed: no option wrapping per slot) and is
    written back into each slot as it is consumed ({!pop_up_to},
    {!drop_oldest}), so the ring holds nothing it has
    handed out or dropped.
    [start] sets both cursors' initial value — used by the overflow
    tests to place them near [max_int]. *)

val length : 'a t -> int
val is_empty : 'a t -> bool
val is_full : 'a t -> bool

val push_exn : 'a t -> 'a -> unit

val pop_up_to : 'a t -> max:int -> 'a list
(** Pop at most [max] entries, oldest first. *)

val drop_oldest : 'a t -> bool
(** Advance the consumer cursor past the oldest entry without reading
    it (completion-ring overflow policy). False if empty. *)
