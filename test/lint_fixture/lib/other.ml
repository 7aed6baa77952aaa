let same_name = 0
let with_depth ?(depth = 0) () = depth
