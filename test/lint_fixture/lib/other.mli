val same_name : int
val with_depth : ?depth:int -> unit -> int
