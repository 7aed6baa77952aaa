val named_in_code : int
val named_in_comment : int
val named_in_string : int
val named_in_quoted_string : int
