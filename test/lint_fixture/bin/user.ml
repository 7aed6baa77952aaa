(* Fixture.named_in_comment (* nested "*)" '"' *) is named only here. *)

(* A char literal, a string and a quoted string are data: the names in
   them are no uses. *)
let quote = '"'
let used = Fixture.named_in_code
let label = "Fixture.named_in_string"
let quoted = {id|Fixture.named_in_quoted_string|id}

(* Another module's same-named value is no use of Fixture.same_name. *)
let other = Other.same_name

(* Through the library wrapper, and through an alias of it. *)
let wrapped = Fixture_lib.Fixture.via_lib_path
module L = Fixture_lib
let wrapped_alias = L.Fixture.via_lib_alias

(* Through a module alias. *)
module F = Fixture
let aliased = F.via_alias

(* A nested module's value is not its parent's same-named one. *)
let nested = Fixture.Inner.in_both

(* Through a local open and a let-open. *)
let local = Fixture.(via_local_open)
let let_open =
  let open Fixture in
  via_let_open

(* Optional arguments: passed directly and forwarded count; one named
   only in this comment (~in_comment) does not. *)
let opts = Fixture.with_options ~passed:1 ()
let forward ?forwarded () = Fixture.with_options ?forwarded ()
