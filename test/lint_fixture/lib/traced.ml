(* trace-args-unguarded: the first call builds its argument list even
   with tracing off and is reported; the guarded one is not. *)
let unguarded t n =
  Trace.instant t ~layer:Trace.App "fixture.unguarded"
    ~args:[ ("n", string_of_int n) ]

let guarded t n =
  if Trace.enabled t then
    Trace.instant t ~layer:Trace.App "fixture.guarded"
      ~args:[ ("n", string_of_int n) ]

(* A span call that ends its line, its argument list three lines
   below: reported too. *)
let unguarded_span t n f =
  Trace.span
    t
    ~layer:Trace.App ~node:0 "fixture.span"
    ~args:[ ("n", string_of_int n) ]
    (fun () -> f n)
