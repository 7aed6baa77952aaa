type 'a t = {
  cmp : 'a -> 'a -> int;
  v : 'a Vec.t;
}

let create ~cmp = { cmp; v = Vec.create () }
let is_empty h = Vec.is_empty h.v

let swap h i j =
  let a = Vec.get h.v i and b = Vec.get h.v j in
  Vec.set h.v i b;
  Vec.set h.v j a

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.cmp (Vec.get h.v i) (Vec.get h.v parent) < 0 then begin
      swap h i parent;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let n = Vec.length h.v in
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < n && h.cmp (Vec.get h.v l) (Vec.get h.v !smallest) < 0 then
    smallest := l;
  if r < n && h.cmp (Vec.get h.v r) (Vec.get h.v !smallest) < 0 then
    smallest := r;
  if !smallest <> i then begin
    swap h i !smallest;
    sift_down h !smallest
  end

let push h x =
  Vec.push h.v x;
  sift_up h (Vec.length h.v - 1)

let peek h = if is_empty h then None else Some (Vec.get h.v 0)

let pop h =
  if is_empty h then None
  else begin
    let top = Vec.get h.v 0 in
    let last = Vec.pop h.v in
    if not (Vec.is_empty h.v) then begin
      Vec.set h.v 0 last;
      sift_down h 0
    end;
    Some top
  end
