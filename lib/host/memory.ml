(* A region is its declared length plus the prefix written so far: bytes
   past [data] have never been written and read as '\000'. Provisioned
   buffers that are never touched (credit slots, send pools, unexpected
   queue slots) cost a header, not their length. *)
type region = {
  id : int;
  len : int;
  mutable data : Bytes.t;
}

let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let alloc n =
  if n < 0 then invalid_arg "Memory.alloc";
  { id = fresh_id (); len = n; data = Bytes.empty }

let of_string s =
  { id = fresh_id (); len = String.length s; data = Bytes.of_string s }

let length r = r.len
let id r = r.id

let check name r ~off ~len =
  if off < 0 || len < 0 || off > r.len - len then invalid_arg name

(* Grow the written prefix to at least [upto] bytes, doubling so that a
   region filled front to back is copied O(1) times per byte; never past
   the declared length. *)
let materialize r upto =
  let have = Bytes.length r.data in
  if upto > have then begin
    let data = Bytes.make (min r.len (max upto (2 * have))) '\000' in
    Bytes.blit r.data 0 data 0 have;
    r.data <- data
  end

let sub_string r ~off ~len =
  check "Memory.sub_string" r ~off ~len;
  let have = Bytes.length r.data in
  if off + len <= have then Bytes.sub_string r.data off len
  else begin
    let b = Bytes.make len '\000' in
    if off < have then Bytes.blit r.data off b 0 (have - off);
    Bytes.unsafe_to_string b
  end

let get_int64_le r off =
  check "Memory.get_int64_le" r ~off ~len:8;
  if off + 8 <= Bytes.length r.data then Bytes.get_int64_le r.data off
  else String.get_int64_le (sub_string r ~off ~len:8) 0

let blit_from_string ?len s r ~off =
  let len = Option.value len ~default:(String.length s) in
  if len > String.length s then invalid_arg "Memory.blit_from_string";
  check "Memory.blit_from_string" r ~off ~len;
  if len > 0 then begin
    materialize r (off + len);
    Bytes.blit_string s 0 r.data off len
  end

let blit ~src ~src_off ~dst ~dst_off ~len =
  check "Memory.blit" src ~off:src_off ~len;
  check "Memory.blit" dst ~off:dst_off ~len;
  let avail = max 0 (min len (Bytes.length src.data - src_off)) in
  if avail > 0 then begin
    materialize dst (dst_off + avail);
    Bytes.blit src.data src_off dst.data dst_off avail
  end;
  (* The source's unwritten tail reads as zeros: clear whatever part of
     the destination range is already materialized. *)
  let zero_end = min (dst_off + len) (Bytes.length dst.data) in
  if zero_end > dst_off + avail then
    Bytes.fill dst.data (dst_off + avail) (zero_end - dst_off - avail) '\000'
