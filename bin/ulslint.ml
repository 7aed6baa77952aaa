(* Source lint for the repository's own invariants. Stdlib-only text
   pass over lib/ (dead-export and test-only also read every .ml that
   could use a lib/ export) — deliberately not a typed AST tool, so it runs before
   anything builds and stays dependency-free. The rules:

   no-assert-false   [assert false] is banned in lib/: protocol and
                     decode paths must fail with a named, typed error
                     (Codec.Protocol_error, failwith with context), not
                     a bare assertion that loses the state it died on.

   missing-mli       every lib module exposes an interface; the .mli is
                     where the layer's contract (and its docs) live.

   blocking-watcher  readiness watcher callbacks (Evq.register ~watch,
                     Conn.add_watcher, add_accept_watcher) run inside
                     whatever fiber made the socket ready; a blocking
                     call there (read/write/accept/Cond.wait/...)
                     wedges that fiber, not the watcher's owner. Inline
                     callbacks must only flag-and-signal.

   metrics-name-lookup
                     the by-name Metrics read (counter_value) hashes
                     the metric name on every call; hot-path modules must
                     resolve handles once at construction
                     (Metrics.counter/gauge/histogram) and use the
                     Stats handle per event. Cold end-of-run report
                     assembly is allowlisted per file.

   unlabeled-sync    Cond.create / Mailbox.create without ~label: the
                     deadlock diagnoser's wait-for edges and the
                     happens-before tracker's racing-pair reports name
                     sync objects by label, so an unlabeled object
                     turns "fiber X waiting on conn:3 credits" into
                     "waiting on cond#17".

   trace-args-unguarded
                     a Trace.instant / span_begin / span_end / span call
                     that passes ~args outside an [if Trace.enabled]
                     guard: the argument list (and the strings in it)
                     is built on every call even while tracing is off,
                     so observability stops being free when disabled.
                     Cold paths (failure, recovery, once-per-run) are
                     allowlisted by event name, each with a comment.

   dead-export       a [val] in a lib/**/*.mli that no .ml outside its
                     own module uses (lib/, bin/, perfbench/,
                     examples/, test/): an interface entry nobody else
                     calls is surface to maintain for nothing.

   test-only         a [val] that only test/ uses: the program does not
                     need it, so it goes with the tests that check only
                     it, unless it is an observation or injection point
                     a test needs; that one is allowlisted by value,
                     with a comment naming what it observes or injects.

   Both rules resolve a use by module path: [M.v], [Lib.M.v], [X.v]
   after [module X = M], or a bare [v] while [open M], [let open M in],
   [M.( ... )] or [include M] is in scope. A same-named value of
   another module is not a use, and neither is a name that appears only
   in comments, strings or char literals. A value of a nested module
   ([Stats.Summary.add]) counts as its top-level module's.

   Findings can be suppressed by .ulslint-allow at the repo root
   ("rule path", "rule path:line" or "rule path:value" per line, '#'
   comments); stale allowlist entries are themselves errors, so the
   file can only shrink, and a test-only or trace-args-unguarded entry
   without a comment is one too. *)

let root = ref "."

let rules =
  [
    "no-assert-false"; "missing-mli"; "blocking-watcher";
    "metrics-name-lookup"; "unlabeled-sync"; "trace-args-unguarded";
    "dead-export"; "test-only";
  ]

(* [sym] names the value a dead-export or test-only finding is about,
   or the event of a trace-args-unguarded one. *)
type finding = {
  rule : string;
  path : string;
  line : int;
  sym : string;
  msg : string;
}

let findings : finding list ref = ref []

let report ?(sym = "") rule path line msg =
  findings := { rule; path; line; sym; msg } :: !findings

(* --- file walking ------------------------------------------------------ *)

let read_lines path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  String.split_on_char '\n' s

let rec walk ?(suffix = ".ml") dir acc =
  Array.fold_left
    (fun acc entry ->
      let path = Filename.concat dir entry in
      if entry.[0] = '.' || entry.[0] = '_' then acc
      else if Sys.is_directory path then walk ~suffix path acc
      else if Filename.check_suffix entry suffix then path :: acc
      else acc)
    acc (Sys.readdir dir)

(* --- rule: no-assert-false -------------------------------------------- *)

let check_assert_false path lines =
  List.iteri
    (fun i line ->
      (* Cheap token scan: "assert" followed by "false" on one line.
         Comments mentioning the phrase trip it too — that is fine, the
         phrase should not appear at all. *)
      let rec scan from =
        match String.index_from_opt line from 'a' with
        | None -> ()
        | Some j ->
          if
            j + 6 <= String.length line
            && String.sub line j 6 = "assert"
            && (let rest = String.sub line (j + 6) (String.length line - j - 6) in
                let rest = String.trim rest in
                String.length rest >= 5 && String.sub rest 0 5 = "false")
          then report "no-assert-false" path (i + 1)
            "assert false loses the state it died on; raise a named error"
          else scan (j + 1)
      in
      scan 0)
    lines

(* --- rule: missing-mli ------------------------------------------------- *)

let check_mli path =
  if not (Sys.file_exists (path ^ "i")) then
    report "missing-mli" path 1 "library module has no interface file"

(* --- rule: blocking-watcher -------------------------------------------- *)

(* Watcher registration points whose callback runs in the event
   producer's fiber. *)
let watcher_markers = [ "add_watcher"; "add_accept_watcher"; "~watch:" ]

(* Calls that suspend the running fiber. *)
let blocking_calls =
  [
    ".read "; ".write "; ".accept "; ".recv "; ".send ";
    "Cond.wait"; "Mailbox.recv"; "Resource.use"; "Sim.delay";
    "wait_recv"; "wait_send";
  ]

let find_sub hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    if i + nl > hl then None
    else if String.sub hay i nl = needle then Some i
    else go (i + 1)
  in
  go 0

let contains ~needle hay = find_sub hay needle <> None

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* Extract the inline [(fun ... -> ...)] starting at or after [start] in
   the flattened source, by balanced-parenthesis matching. *)
let extract_lambda src start =
  match String.index_from_opt src start '(' with
  | None -> None
  | Some lp ->
    let after = String.sub src (lp + 1) (min 8 (String.length src - lp - 1)) in
    if not (String.length (String.trim after) >= 3
            && String.sub (String.trim after) 0 3 = "fun")
    then None
    else begin
      let depth = ref 0 and close = ref (-1) and i = ref lp in
      let n = String.length src in
      while !close < 0 && !i < n do
        (match src.[!i] with
        | '(' -> incr depth
        | ')' ->
          decr depth;
          if !depth = 0 then close := !i
        | _ -> ());
        incr i
      done;
      if !close < 0 then None else Some (String.sub src lp (!close - lp + 1))
    end

let check_blocking_watcher path lines =
  let src = String.concat "\n" lines in
  let line_of off =
    let count = ref 1 in
    String.iteri (fun i c -> if i < off && c = '\n' then incr count) src;
    !count
  in
  List.iter
    (fun marker ->
      let ml = String.length marker in
      let rec scan from =
        if from + ml <= String.length src then
          if String.sub src from ml = marker then begin
            (match extract_lambda src (from + ml) with
            | None -> () (* named callback: assumed audited at definition *)
            | Some body ->
              List.iter
                (fun call ->
                  if contains ~needle:call body then
                    report "blocking-watcher" path (line_of from)
                      (Printf.sprintf
                         "watcher callback registered via %s calls blocking %s"
                         (if marker = "~watch:" then "Evq.register ~watch"
                          else marker)
                         (String.trim call)))
                blocking_calls);
            scan (from + ml)
          end
          else scan (from + 1)
      in
      scan 0)
    watcher_markers

(* --- rule: metrics-name-lookup ----------------------------------------- *)

(* The Metrics entry points that do a name lookup per call. Handle
   constructors (Metrics.counter/gauge/histogram) are the fix, not a
   violation — they are expected at module construction time. *)
let by_name_metrics = [ "Metrics.counter_value" ]

let check_metrics_lookup path lines =
  List.iteri
    (fun i line ->
      List.iter
        (fun form ->
          if contains ~needle:form line then
            report "metrics-name-lookup" path (i + 1)
              (Printf.sprintf
                 "%s hashes the metric name per call; cache a handle \
                  (Metrics.counter/gauge/histogram) at construction"
                 form))
        by_name_metrics)
    lines

(* --- rule: unlabeled-sync ---------------------------------------------- *)

(* [~label] may sit on the line after the constructor (ocamlformat
   splits long calls), so the check joins a short lookahead window
   before deciding the call is unlabeled. *)
let sync_constructors = [ "Cond.create"; "Mailbox.create" ]

let check_unlabeled_sync path lines =
  let arr = Array.of_list lines in
  Array.iteri
    (fun i line ->
      List.iter
        (fun ctor ->
          if contains ~needle:ctor line then begin
            let window = Buffer.create 256 in
            Buffer.add_string window line;
            for j = i + 1 to min (i + 2) (Array.length arr - 1) do
              Buffer.add_char window '\n';
              Buffer.add_string window arr.(j)
            done;
            if not (contains ~needle:"~label" (Buffer.contents window)) then
              report "unlabeled-sync" path (i + 1)
                (Printf.sprintf
                   "%s without ~label: deadlock wait-for edges and \
                    racing-pair reports need a name for this object"
                   ctor)
          end)
        sync_constructors)
    arr

(* --- rule: trace-args-unguarded ------------------------------------------ *)

(* Like unlabeled-sync, a short window: [~args] may sit up to four lines
   below the call (a [Trace.span] whose trace, labels and event name
   each take a line), and the guard up to three lines above it (an [if
   Trace.enabled t.trace then begin] opening a small block). The window
   stops at the line that ends the call's statement and before a line
   that opens the span's body. A finding's [sym] is the event name, the
   window's first string literal. *)
let trace_calls =
  [ "Trace.instant"; "Trace.span_begin"; "Trace.span_end"; "Trace.span" ]

(* Where [call] occurs in [line] as a whole name, not as the prefix of
   a longer one ("Trace.span" in "Trace.span_end"). *)
let find_call line call =
  let n = String.length call and h = String.length line in
  let rec go i =
    if i + n > h then None
    else if
      String.sub line i n = call && (i + n = h || not (is_ident_char line.[i + n]))
    then Some i
    else go (i + 1)
  in
  go 0

let first_literal s =
  match String.index_opt s '"' with
  | None -> ""
  | Some a -> (
    match String.index_from_opt s (a + 1) '"' with
    | None -> ""
    | Some b -> String.sub s (a + 1) (b - a - 1))

let check_trace_args path lines =
  let arr = Array.of_list lines in
  let n = Array.length arr in
  let ends_statement line =
    let l = String.trim line in
    l <> "" && (l.[String.length l - 1] = ';' || l = "in")
  in
  let opens_body line =
    let l = String.trim line in
    String.length l >= 4 && String.sub l 0 4 = "(fun"
  in
  Array.iteri
    (fun i line ->
      let found c = Option.map (fun at -> (c, at)) (find_call line c) in
      match List.find_map found trace_calls with
      | None -> ()
      | Some (call, at) ->
        let window = Buffer.create 256 in
        Buffer.add_string window
          (String.sub line at (String.length line - at));
        let j = ref i in
        while
          (not (ends_statement arr.(!j)))
          && !j < min (i + 4) (n - 1)
          && not (opens_body arr.(!j + 1))
        do
          incr j;
          Buffer.add_char window '\n';
          Buffer.add_string window arr.(!j)
        done;
        let window = Buffer.contents window in
        let guarded =
          contains ~needle:"Trace.enabled" (String.sub line 0 at)
          || List.exists
               (fun k -> k >= 0 && contains ~needle:"Trace.enabled" arr.(k))
               [ i - 1; i - 2; i - 3 ]
        in
        if contains ~needle:"~args" window && not guarded then
          report ~sym:(first_literal window) "trace-args-unguarded" path (i + 1)
            (Printf.sprintf
               "%s builds its ~args list even with tracing off; wrap it in \
                [if Trace.enabled ... then]"
               (String.trim call)))
    arr

(* --- rules: dead-export, test-only ------------------------------------- *)

let is_upper s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z'

(* A code token: an identifier or dotted path ("Sim.delay",
   "Uls_engine.Sim", or "Config." where it opens [Config.( ... )]), a
   bracket, or an operator run. [col0] marks a token that starts its
   line in column 0: a new top-level item in formatted code. *)
type tok = { text : string; col0 : bool }

let is_symbol_char c = String.contains "!$%&*+-./:<=>?@^|~#;" c

(* The code tokens of a file, in order: comments (nested, with the
   string literals OCaml lexes inside them), string literals, quoted
   strings and char literals are skipped, so a name that appears only in
   prose or data is not a use. *)
let tokens lines =
  let src = String.concat "\n" lines in
  let n = String.length src in
  let acc = ref [] in
  let at i c = i < n && src.[i] = c in
  let emit i j =
    acc := { text = String.sub src i (j - i); col0 = i = 0 || at (i - 1) '\n' }
           :: !acc
  in
  (* Index just past the string literal whose opening quote is at [i]. *)
  let rec skip_string i =
    if i >= n then n
    else if src.[i] = '\\' then skip_string (i + 2)
    else if src.[i] = '"' then i + 1
    else skip_string (i + 1)
  in
  (* [{id|...|id}] starting at [i]: index past it, or [None] if [i] does
     not open one. *)
  let quoted_string i =
    let j = ref (i + 1) in
    while !j < n && ((src.[!j] >= 'a' && src.[!j] <= 'z') || src.[!j] = '_') do
      incr j
    done;
    if not (at !j '|') then None
    else begin
      let close = "|" ^ String.sub src (i + 1) (!j - i - 1) ^ "}" in
      let cl = String.length close in
      let k = ref (!j + 1) in
      while !k + cl <= n && String.sub src !k cl <> close do
        incr k
      done;
      Some (min n (!k + cl))
    end
  in
  (* A char literal at [i] (['x'], ['\n'], ['\''], ['\123']): index
     past it, or [None] for a type variable such as ['a]. Comments lex
     them too, so a ['"'] there opens no string. *)
  let char_literal i =
    if at (i + 1) '\\' then
      match String.index_from_opt src (i + 3) '\'' with
      | Some j -> Some (j + 1)
      | None -> Some n
    else if at (i + 2) '\'' then Some (i + 3)
    else None
  in
  let rec skip_comment depth i =
    if i >= n || depth = 0 then i
    else if at i '(' && at (i + 1) '*' then skip_comment (depth + 1) (i + 2)
    else if at i '*' && at (i + 1) ')' then skip_comment (depth - 1) (i + 2)
    else if at i '"' then skip_comment depth (skip_string (i + 1))
    else if at i '\'' then
      skip_comment depth (Option.value ~default:(i + 1) (char_literal i))
    else skip_comment depth (i + 1)
  in
  let rec ident_end j =
    if j < n && is_ident_char src.[j] then ident_end (j + 1) else j
  in
  (* A dotted path runs on through ['.'] followed by an identifier; a
     trailing ['.'] joins it when a bracket follows a module name. *)
  let rec path_end i j =
    let j = ident_end j in
    if at j '.' && j + 1 < n && is_ident_char src.[j + 1] then
      path_end (j + 1) (j + 1)
    else if at j '.' && is_upper (String.sub src i (j - i))
            && (at (j + 1) '(' || at (j + 1) '[' || at (j + 1) '{')
    then j + 1
    else j
  in
  let rec go i =
    if i < n then
      if at i '(' && at (i + 1) '*' then go (skip_comment 1 (i + 2))
      else if at i '"' then go (skip_string (i + 1))
      else if at i '\'' then
        match char_literal i with
        | Some j -> go j
        | None -> go (ident_end (i + 1)) (* a type variable *)
      else if is_ident_char src.[i] then begin
        let j = path_end i i in
        emit i j;
        go j
      end
      else if String.contains "()[]{}" src.[i] then
        match if at i '{' then quoted_string i else None with
        | Some j -> go j
        | None ->
          emit i (i + 1);
          go (i + 1)
      else if is_symbol_char src.[i] then begin
        let j = ref i in
        while !j < n && is_symbol_char src.[!j] do
          incr j
        done;
        emit i !j;
        go !j
      end
      else go (i + 1)
  in
  go 0;
  List.rev !acc

(* What a file's code has in scope at a point: an [open]ed (or
   [include]d) lib module, by qualified name ("Stats.Summary"), or a
   module alias [module X = path]. *)
type binding = Open of string | Alias of string * string list

(* [depth] is the bracket depth the binding lives at: it ends when its
   enclosing bracket (or begin/struct/sig/object/do ... end/done)
   closes. A [local] one ([let open M in], [let module X = M in]) also
   ends at the next top-level item. *)
type scope = { depth : int; local : bool; binding : binding }

(* The qualified names ("Sim.delay", "Stats.Summary.add") of the lib/
   exports that one file's code names. [modules] holds every lib module
   and every module its interface nests, by qualified name. A use
   resolves by module path: [M.v], [Lib.M.v], [X.v] after
   [module X = M], or a bare [v] while [open M], [let open M in],
   [M.( ... )] or [include M] is in scope. *)
let file_uses ~modules lines =
  let toks = Array.of_list (tokens lines) in
  let nt = Array.length toks in
  let found = Hashtbl.create 64 in
  let scopes = ref [] and depth = ref 0 in
  let push ~local ~depth binding =
    scopes := { depth; local; binding } :: !scopes
  in
  let opened () =
    List.filter_map
      (fun s -> match s.binding with Open m -> Some m | Alias _ -> None)
      !scopes
  in
  let rec expand n = function
    | c :: rest as p when n > 0 -> (
      match
        List.find_map
          (fun s ->
            match s.binding with
            | Alias (x, target) when x = c -> Some target
            | _ -> None)
          !scopes
      with
      | Some target -> expand (n - 1) (target @ rest)
      | None -> p)
    | p -> p
  in
  (* The lib module a module path names: from the first component
     that is one (after aliases, and past library wrappers such as
     [Uls_engine]), or from an opened module whose nested module leads
     the path, through the nested modules that follow. *)
  let module_of p =
    let rec extend q = function
      | c :: rest when Hashtbl.mem modules (q ^ "." ^ c) ->
        extend (q ^ "." ^ c) rest
      | _ -> q
    in
    let rec find = function
      | c :: rest when Hashtbl.mem modules c -> Some (extend c rest)
      | _ :: rest -> find rest
      | [] -> None
    in
    let p = expand 8 p in
    match (find p, p) with
    | Some q, _ -> Some q
    | None, c :: rest ->
      List.find_map
        (fun q ->
          if Hashtbl.mem modules (q ^ "." ^ c) then
            Some (extend (q ^ "." ^ c) rest)
          else None)
        (opened ())
    | None, [] -> None
  in
  let path_use = function
    | [] -> ()
    | v :: _ when not (is_upper v) ->
      (* A bare name (keywords included: they match no export). *)
      List.iter (fun q -> Hashtbl.replace found (q ^ "." ^ v) ()) (opened ())
    | p ->
      let rec split mods = function
        | c :: rest when is_upper c -> split (c :: mods) rest
        | v :: _ -> (
          match module_of (List.rev mods) with
          | Some q -> Hashtbl.replace found (q ^ "." ^ v) ()
          | None -> ())
        | [] -> ()
      in
      split [] p
  in
  let comps s = List.filter (( <> ) "") (String.split_on_char '.' s) in
  let text k = if k >= 0 && k < nt then toks.(k).text else "" in
  Array.iteri
    (fun i t ->
      if t.col0 then scopes := List.filter (fun s -> not s.local) !scopes;
      let local = text (i - 1) = "let" in
      match t.text with
      | "(" | "[" | "{" | "begin" | "struct" | "sig" | "object" | "do" ->
        incr depth
      | ")" | "]" | "}" | "end" | "done" ->
        decr depth;
        scopes := List.filter (fun s -> s.depth <= !depth) !scopes
      | "open" | "include" -> (
        let target = if text (i + 1) = "!" then text (i + 2) else text (i + 1) in
        match if is_upper target then module_of (comps target) else None with
        | Some m -> push ~local ~depth:!depth (Open m)
        | None -> ())
      | "module"
        when is_upper (text (i + 1)) && text (i + 2) = "="
             && is_upper (text (i + 3)) && text (i + 4) <> "(" ->
        push ~local ~depth:!depth
          (Alias (text (i + 1), expand 8 (comps (text (i + 3)))))
      | s when s.[String.length s - 1] = '.' && is_ident_char s.[0] -> (
        (* [M.( ... )]: M is open inside the bracket that follows. *)
        match module_of (comps s) with
        | Some m -> push ~local:false ~depth:(!depth + 1) (Open m)
        | None -> ())
      | s when is_ident_char s.[0] -> path_use (comps s)
      | _ -> ())
    toks;
  found

(* The name of a [val] declared on this line, if any (operators are
   skipped). *)
let val_name line =
  let t = String.trim line in
  if String.length t > 4 && String.sub t 0 4 = "val " then begin
    let rest = String.trim (String.sub t 4 (String.length t - 4)) in
    let n = String.length rest in
    let j = ref 0 in
    while !j < n && is_ident_char rest.[!j] do
      incr j
    done;
    if !j > 0 then Some (String.sub rest 0 !j) else None
  end
  else None

let module_name mli =
  String.capitalize_ascii (Filename.basename (Filename.chop_suffix mli ".mli"))

(* Each line of an interface with the qualified name of the module it
   sits in: "Stats", or "Stats.Summary" inside [module Summary : sig]. *)
let scoped_lines mli =
  let stack = ref [ module_name mli ] in
  List.map
    (fun line ->
      let q = String.concat "." (List.rev !stack) in
      (match String.split_on_char ' ' (String.trim line) with
      | "module" :: x :: ":" :: "sig" :: _ -> stack := x :: !stack
      | [ "end" ] when List.length !stack > 1 -> stack := List.tl !stack
      | _ -> ());
      (q, line))
    (read_lines mli)

(* [uses] maps each qualified value name to the .ml files that use it;
   a use from the module's own .ml does not count. *)
let check_exports ~uses ~test_dir mli =
  let own = Filename.chop_suffix mli ".mli" ^ ".ml" in
  List.iteri
    (fun i (q, line) ->
      match val_name line with
      | None -> ()
      | Some name -> (
        let users =
          List.filter (( <> ) own)
            (Option.value ~default:[] (Hashtbl.find_opt uses (q ^ "." ^ name)))
        in
        let in_tests f = String.starts_with ~prefix:test_dir f in
        if users = [] then
          report ~sym:name "dead-export" mli (i + 1)
            (Printf.sprintf
               "%s is exported but no other module uses it; drop it from \
                the interface (and the code, if nothing inside uses it)"
               name)
        else if List.for_all in_tests users then
          report ~sym:name "test-only" mli (i + 1)
            (Printf.sprintf
               "%s is exported but only tests use it; delete it with the \
                tests that check only it, or allowlist the observation \
                point it provides"
               name)))
    (scoped_lines mli)

(* --- allowlist --------------------------------------------------------- *)

(* A target is [path], [path:line] or [path:value]; [a_note] says
   whether a '#' comment explains the entry, inline or in the comment
   lines that open its block. *)
type allow = {
  a_rule : string;
  a_path : string;
  a_at : [ `File | `Line of int | `Sym of string ];
  a_note : bool;
}

let load_allowlist path =
  if not (Sys.file_exists path) then []
  else begin
    let noted = ref false in
    read_lines path
    |> List.filter_map (fun line ->
           let code, comment =
             match String.index_opt line '#' with
             | Some i -> (String.sub line 0 i, true)
             | None -> (line, false)
           in
           match
             String.split_on_char ' ' (String.trim code)
             |> List.filter (fun s -> s <> "")
           with
           | [] ->
             noted := comment;
             None
           | [ rule; target ] ->
             if not (List.mem rule rules) then begin
               Printf.eprintf "ulslint: unknown rule %S in allowlist\n" rule;
               exit 2
             end;
             let a_path, a_at =
               match String.rindex_opt target ':' with
               | Some i when i < String.length target - 1 ->
                 let at = String.sub target (i + 1) (String.length target - i - 1) in
                 ( String.sub target 0 i,
                   match int_of_string_opt at with
                   | Some l -> `Line l
                   | None -> `Sym at )
               | _ -> (target, `File)
             in
             Some { a_rule = rule; a_path; a_at; a_note = comment || !noted }
           | _ ->
             Printf.eprintf "ulslint: malformed allowlist line %S\n" line;
             exit 2)
  end

let matches a f =
  a.a_rule = f.rule && a.a_path = f.path
  &&
  match a.a_at with
  | `File -> true
  | `Line l -> l = f.line
  | `Sym s -> s = f.sym

let show_allow a =
  a.a_rule ^ " " ^ a.a_path
  ^
  match a.a_at with
  | `File -> ""
  | `Line l -> ":" ^ string_of_int l
  | `Sym s -> ":" ^ s

(* --- driver ------------------------------------------------------------ *)

let () =
  (match Sys.argv with
  | [| _ |] -> ()
  | [| _; dir |] -> root := dir
  | _ ->
    prerr_endline "usage: ulslint [REPO_ROOT]";
    exit 2);
  let lib = Filename.concat !root "lib" in
  if not (Sys.file_exists lib) then begin
    Printf.eprintf "ulslint: no lib/ under %s\n" !root;
    exit 2
  end;
  let files = List.sort compare (walk lib []) in
  List.iter
    (fun path ->
      let lines = read_lines path in
      check_assert_false path lines;
      check_mli path;
      check_blocking_watcher path lines;
      check_metrics_lookup path lines;
      check_unlabeled_sync path lines;
      check_trace_args path lines)
    files;
  let mlis = List.sort compare (walk ~suffix:".mli" lib []) in
  let modules = Hashtbl.create 128 in
  List.iter
    (fun mli ->
      List.iter (fun (q, _) -> Hashtbl.replace modules q ()) (scoped_lines mli))
    mlis;
  let uses = Hashtbl.create 4096 in
  List.iter
    (fun dir ->
      let dir = Filename.concat !root dir in
      if Sys.file_exists dir then
        List.iter
          (fun path ->
            Hashtbl.iter
              (fun key () ->
                let prev = Option.value ~default:[] (Hashtbl.find_opt uses key) in
                Hashtbl.replace uses key (path :: prev))
              (file_uses ~modules (read_lines path)))
          (walk dir []))
    [ "lib"; "bin"; "perfbench"; "examples"; "test" ];
  let test_dir = Filename.concat !root "test" ^ "/" in
  List.iter (check_exports ~uses ~test_dir) mlis;
  let allows = load_allowlist (Filename.concat !root ".ulslint-allow") in
  let relativize f =
    (* Report paths relative to the repo root so allowlist entries are
       machine-independent. *)
    let prefix = !root ^ "/" in
    let pl = String.length prefix in
    if String.length f.path > pl && String.sub f.path 0 pl = prefix then
      { f with path = String.sub f.path pl (String.length f.path - pl) }
    else f
  in
  let all = List.rev_map relativize !findings in
  let stale =
    List.filter (fun a -> not (List.exists (fun f -> matches a f) all)) allows
  in
  let unexplained =
    List.filter
      (fun a ->
        (a.a_rule = "test-only" || a.a_rule = "trace-args-unguarded")
        && not a.a_note)
      allows
  in
  let live =
    List.filter (fun f -> not (List.exists (fun a -> matches a f) allows)) all
  in
  List.iter
    (fun f ->
      Printf.printf "%s:%d: [%s] %s\n" f.path f.line f.rule f.msg)
    live;
  List.iter
    (fun a ->
      Printf.printf
        ".ulslint-allow: stale entry \"%s\" (no such finding — remove it)\n"
        (show_allow a))
    stale;
  List.iter
    (fun a ->
      Printf.printf ".ulslint-allow: entry \"%s\" needs a comment naming %s\n"
        (show_allow a)
        (if a.a_rule = "test-only" then
           "the observation or injection point it keeps"
         else "why the path is cold"))
    unexplained;
  let bad_allows = List.length stale + List.length unexplained in
  if live <> [] || bad_allows > 0 then begin
    Printf.printf "ulslint: %d finding(s), %d bad allowlist entr(ies)\n"
      (List.length live) bad_allows;
    exit 1
  end;
  Printf.printf "ulslint: %d files clean (allowlist: %d entries)\n"
    (List.length files) (List.length allows)
