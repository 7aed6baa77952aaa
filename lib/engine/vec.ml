type 'a t = {
  mutable data : 'a array;
  mutable len : int;
}

let create () = { data = [||]; len = 0 }
let length v = v.len
let is_empty v = v.len = 0

let check v i =
  if i < 0 || i >= v.len then invalid_arg "Vec: index out of bounds"

let get v i = check v i; v.data.(i)
let set v i x = check v i; v.data.(i) <- x

let grow v x =
  let cap = Array.length v.data in
  let cap' = if cap = 0 then 16 else 2 * cap in
  let data' = Array.make cap' x in
  Array.blit v.data 0 data' 0 v.len;
  v.data <- data'

let push v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  v.len <- v.len - 1;
  let x = v.data.(v.len) in
  (* Overwrite the vacated slot to avoid retaining [x]. When the pop
     empties the vector there is no live element to copy from — any
     overwrite would be [x] itself (which used to pin every drained
     heap's last task forever), so drop the whole backing array. *)
  if v.len = 0 then v.data <- [||]
  else v.data.(v.len) <- v.data.(v.len - 1);
  x

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let fold f acc v =
  let acc = ref acc in
  for i = 0 to v.len - 1 do
    acc := f !acc v.data.(i)
  done;
  !acc
