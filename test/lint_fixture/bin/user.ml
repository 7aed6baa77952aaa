(* Fixture.named_in_comment (* nested "*)" '"' *) is named only here. *)

(* A naive string skip opens a string at this char literal, hides the
   next use, and reads the next string's contents as code. *)
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

(* A local open reaches only into its bracket, and a let-open only to
   the end of its item. *)
let local = Fixture.(via_local_open) + after_local_open
let let_open =
  let open Fixture in
  via_let_open
let later = after_let_open
