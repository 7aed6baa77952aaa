(** Deterministic SplitMix64 PRNG — simulations must be reproducible
    regardless of the OCaml runtime's [Random] state. *)

type t

val create : seed:int -> t
val split : t -> t
(** An independent stream derived from [t]'s current state. *)

val mix : int64 -> int64
(** The SplitMix64 finalizer (Steele, Lea & Flood 2014): a bijection
    that carries every bit of its input to every bit of its output, the
    same in every run and process. The generator's outputs are [mix] of
    its states; hashes that must be stable and well spread use it too. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. [bound > 0]. *)

val float : t -> float
(** Uniform in [\[0, 1)]. *)

val exponential : t -> mean:float -> float
val shuffle : t -> 'a array -> unit
