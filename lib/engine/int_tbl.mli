(** Hash table keyed by [int], hashing inline: a probe makes no
    [caml_hash] or polymorphic-compare C call. For hot tables that are
    never iterated. *)

include Hashtbl.S with type key = int
