(* Exports nothing: the module only carries per-file rule cases. *)
