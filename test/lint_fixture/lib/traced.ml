(* trace-args-unguarded: the first call builds its argument list even
   with tracing off and is reported; the guarded one is not. *)
let unguarded t n =
  Trace.instant t ~layer:Trace.App "fixture.unguarded"
    ~args:[ ("n", string_of_int n) ]

let guarded t n =
  if Trace.enabled t then
    Trace.instant t ~layer:Trace.App "fixture.guarded"
      ~args:[ ("n", string_of_int n) ]

(* A [Trace.span] that ends its line, its [~args] three lines below:
   reported too. This comment names both on one line and is not: the
   rule reads code, not comments. *)
let unguarded_span t n f =
  Trace.span
    t
    ~layer:Trace.App ~node:0 "fixture.span"
    ~args:[ ("n", string_of_int n) ]
    (fun () -> f n)

(* A call five lines into an [if Trace.enabled ... begin ... end] block
   is guarded: not reported. *)
let guarded_block t n =
  if Trace.enabled t then begin
    let a = n + 1 in
    let b = a + 1 in
    let c = b + 1 in
    let d = c + 1 in
    Trace.instant t ~layer:Trace.App "fixture.deep"
      ~args:[ ("d", string_of_int d) ]
  end

(* A guard ends with its own branch: the call on the next line is
   reported. *)
let after_guard t n f =
  if Trace.enabled t then f ();
  Trace.instant t ~layer:Trace.App "fixture.after_guard"
    ~args:[ ("n", string_of_int n) ]
