(* Fixture.named_in_comment (* nested "*)" '"' *) is named only here. *)

(* A naive string skip opens a string at this char literal, hides the
   next use, and reads the next string's contents as code. *)
let quote = '"'
let used = Fixture.named_in_code
let label = "Fixture.named_in_string"
let quoted = {id|Fixture.named_in_quoted_string|id}
