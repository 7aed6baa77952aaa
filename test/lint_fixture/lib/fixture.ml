let named_in_code = 1
let named_in_comment = 2
let named_in_string = 3
let named_in_quoted_string = 4
