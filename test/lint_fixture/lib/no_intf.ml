(* missing-mli: a library module without an interface is reported; every
   other module here has one. *)
let exported = 0
