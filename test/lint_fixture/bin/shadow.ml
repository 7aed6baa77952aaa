(* Binds its own ?depth and passes it to another function, and calls
   Fixture.shadowed without one: that label stays passed only by tests. *)
let deeper ?depth () = Other.with_depth ?depth ()
let plain = Fixture.shadowed ()
