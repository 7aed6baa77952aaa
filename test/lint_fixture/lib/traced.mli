(* Exports nothing: the module only carries trace calls for the lint. *)
