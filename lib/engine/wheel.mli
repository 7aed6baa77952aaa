(** Hierarchical timing wheel over integer event slots, with an exact
    extraction-order contract. The production event queue.

    Each pending event is a slot of a slab the wheel owns: its time and
    sequence number sit in unboxed [int array]s and its callback in one
    closure array; freed slots go on an int free list. The wheel's
    bags are int lists threaded through the slab, and its near-future
    and overflow heaps hold slot ids, so sifting and cascading move
    plain ints and compare [(time, seq)] inline: nothing there passes
    through the GC's write barrier. The slab grows by doubling when its
    free list runs dry and never shrinks, so its capacity, and with it
    the wheel's memory, stays below twice the peak number of pending
    events.

    O(1) amortized insert and extract regardless of how many events are
    pending: four levels of 256 slots each (a level-[l] slot spans
    [2^(8 + 8l)] ns), and an overflow heap for events beyond the top
    level's ~18 minute range (RTO ceilings, fault windows) that migrates
    down as the cursor approaches.

    Extraction order is {e identical} to a binary heap ordered by
    [(time, seq)]: every slot whose time falls inside the current cursor
    grain sits in a near-future heap ordered by the full key, so
    same-timestamp events dispatch in exactly [seq] order. Events must
    never be inserted earlier than the last extracted event's time (the
    simulator's no-scheduling-in-the-past rule); inserts earlier than
    the wheel's internal cursor but at or after the last extraction are
    routed into the near-future heap and order correctly. *)

type t

val create : unit -> t
val length : t -> int
(** Events queued (added or reinserted, and neither popped nor
    cancelled). *)

val add : t -> time:int -> seq:int -> (unit -> unit) -> int
(** [add w ~time ~seq f] takes a free slot for [f], queues it and
    returns the slot. [time] and [seq] must be non-negative. *)

val cancel : t -> int -> seq:int -> bool
(** [cancel w s ~seq] withdraws the queued slot [s] if it still holds
    the event numbered [seq], and says whether it did. O(1), and the
    callback is dropped at once, so nothing it captured is retained. A
    slot waiting in a wheel bag is unlinked and freed at once; one in
    the near-future or overflow heap is freed when it surfaces. {!peek}
    and {!pop} never return a cancelled slot. A slot already popped,
    freed or reused for another [seq] is left alone ([false]). *)

val peek : t -> int
(** The slot that [pop] would return, without removing it; [-1] when
    the wheel is empty. *)

val pop : t -> int
(** Remove the [(time, seq)]-minimum slot from the queue and return it,
    or [-1] when empty. The slot stays allocated: read it with {!time}
    and {!seq}, then either {!take} its callback or {!reinsert} it. *)

val time : t -> int -> int
val seq : t -> int -> int

val reinsert : t -> int -> unit
(** Queue a popped slot again, untouched (the schedule explorer's
    unchosen tie members). *)

val take : t -> int -> unit -> unit
(** Free a popped slot and return its callback. The slot drops the
    closure, so nothing it captured is retained. *)

val capacity : t -> int
(** Slots in the slab, free or not. *)
