let named_in_code = 1
let named_in_comment = 2
let named_in_string = 3
let named_in_quoted_string = 4
let same_name = 5
let via_lib_path = 6
let via_open = 7
let via_let_open = 8
let after_let_open = 9
let via_local_open = 10
let after_local_open = 11
let via_alias = 12
let via_lib_alias = 13
let via_include = 14
let in_both = 15

module Inner = struct
  let in_both = 16
end

let used_by_test = 17
let allowed_test_only = 18
let uncommented_test_only = 19
