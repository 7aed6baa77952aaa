(* no-assert-false: the bare assertion is reported. This comment's
   (assert false) and the string below are not. *)
let dies () = assert false
let names_it = "assert false"

(* blocking-watcher: an inline watcher that suspends its fiber is
   reported; one that only flags and signals is not. *)
let watchers : (unit -> unit) list ref = ref []
let add_watcher (f : unit -> unit) = watchers := f :: !watchers
let blocking sim = add_watcher (fun () -> Sim.delay sim 1)

let signalling flag cond =
  add_watcher (fun () ->
      flag := true;
      Cond.signal cond)

(* metrics-name-lookup: the by-name read is reported; a handle resolved
   once is not. *)
let by_name m = Metrics.counter_value m "fixture.count"
let handle m = Metrics.counter m "fixture.count"

(* unlabeled-sync: labelled constructors, on the same line or the next,
   are not reported; the bare one is. *)
let named sim = Cond.create ~label:"fixture.cond" sim

let boxed sim =
  Mailbox.create
    ~label:"fixture.box" sim

let bare sim = Cond.create sim
