val named_in_code : int
val named_in_comment : int
val named_in_string : int
val named_in_quoted_string : int
val same_name : int
val via_lib_path : int
val via_open : int
val via_let_open : int
val after_let_open : int
val via_local_open : int
val after_local_open : int
val via_alias : int
val via_lib_alias : int
val via_include : int
val in_both : int

module Inner : sig
  val in_both : int
end

val used_by_test : int
val allowed_test_only : int
val uncommented_test_only : int
