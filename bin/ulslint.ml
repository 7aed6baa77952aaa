(* Source lint for the repository's own invariants. Stdlib-only text
   pass over lib/ (dead-export also reads every .ml that could use a
   lib/ export) — deliberately not a typed AST tool, so it runs before
   anything builds and stays dependency-free. The rules:

   no-assert-false   [assert false] is banned in lib/: protocol and
                     decode paths must fail with a named, typed error
                     (Codec.protocol_error, failwith with context), not
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
                     the by-name Metrics forms (incr/add/observe/
                     set_gauge/counter_value/gauge_value) hash the
                     metric name on every call; hot-path modules must
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

   dead-export       a [val] in a lib/**/*.mli whose name appears in no
                     .ml outside its own module (lib/, bin/, perfbench/,
                     examples/, test/): an interface entry nobody else
                     calls is surface to maintain for nothing. Only
                     code counts as a use: a name that appears only in
                     comments, strings or char literals does not.

   Findings can be suppressed by .ulslint-allow at the repo root
   ("rule path[:line]" per line, '#' comments); stale allowlist entries
   are themselves errors, so the file can only shrink. *)

let root = ref "."

let rules =
  [
    "no-assert-false"; "missing-mli"; "blocking-watcher";
    "metrics-name-lookup"; "unlabeled-sync"; "dead-export";
  ]

type finding = { rule : string; path : string; line : int; msg : string }

let findings : finding list ref = ref []
let report rule path line msg = findings := { rule; path; line; msg } :: !findings

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
      if Sys.is_directory path then walk ~suffix path acc
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

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

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
let by_name_metrics =
  [
    "Metrics.incr"; "Metrics.add"; "Metrics.observe"; "Metrics.set_gauge";
    "Metrics.counter_value"; "Metrics.gauge_value";
  ]

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

(* --- rule: dead-export --------------------------------------------------- *)

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* Every identifier-shaped token of a file's code: comments (nested,
   with the string literals OCaml lexes inside them), string literals,
   quoted strings and char literals are skipped, so a name that appears
   only in prose or data is not a use. *)
let tokens lines =
  let src = String.concat "\n" lines in
  let n = String.length src in
  let acc = Hashtbl.create 256 in
  let at i c = i < n && src.[i] = c in
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
  let rec go i =
    if i < n then
      if at i '(' && at (i + 1) '*' then go (skip_comment 1 (i + 2))
      else if at i '"' then go (skip_string (i + 1))
      else if at i '{' then
        go (Option.value ~default:(i + 1) (quoted_string i))
      else if at i '\'' then
        go (Option.value ~default:(i + 1) (char_literal i))
      else if is_ident_char src.[i] then begin
        let j = ref i in
        while !j < n && is_ident_char src.[!j] do
          incr j
        done;
        Hashtbl.replace acc (String.sub src i (!j - i)) ();
        go !j
      end
      else go (i + 1)
  in
  go 0;
  acc

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

(* [users] maps each token to the .ml files it appears in. *)
let check_dead_exports ~users mli =
  let own = Filename.chop_suffix mli ".mli" ^ ".ml" in
  List.iteri
    (fun i line ->
      match val_name line with
      | None -> ()
      | Some name ->
        let used =
          List.exists (fun f -> f <> own)
            (Option.value ~default:[] (Hashtbl.find_opt users name))
        in
        if not used then
          report "dead-export" mli (i + 1)
            (Printf.sprintf
               "%s is exported but no other module uses it; drop it from \
                the interface (and the code, if nothing inside uses it)"
               name))
    (read_lines mli)

(* --- allowlist --------------------------------------------------------- *)

type allow = { a_rule : string; a_path : string; a_line : int option }

let load_allowlist path =
  if not (Sys.file_exists path) then []
  else
    read_lines path
    |> List.filter_map (fun line ->
           let line =
             match String.index_opt line '#' with
             | Some i -> String.sub line 0 i
             | None -> line
           in
           match
             String.split_on_char ' ' (String.trim line)
             |> List.filter (fun s -> s <> "")
           with
           | [] -> None
           | [ rule; target ] ->
             if not (List.mem rule rules) then begin
               Printf.eprintf "ulslint: unknown rule %S in allowlist\n" rule;
               exit 2
             end;
             (match String.rindex_opt target ':' with
             | Some i when i < String.length target - 1
                        && String.for_all
                             (fun c -> c >= '0' && c <= '9')
                             (String.sub target (i + 1)
                                (String.length target - i - 1)) ->
               Some
                 {
                   a_rule = rule;
                   a_path = String.sub target 0 i;
                   a_line =
                     Some
                       (int_of_string
                          (String.sub target (i + 1)
                             (String.length target - i - 1)));
                 }
             | _ -> Some { a_rule = rule; a_path = target; a_line = None })
           | _ ->
             Printf.eprintf "ulslint: malformed allowlist line %S\n" line;
             exit 2)

let matches a f =
  a.a_rule = f.rule && a.a_path = f.path
  && match a.a_line with None -> true | Some l -> l = f.line

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
      check_unlabeled_sync path lines)
    files;
  let users = Hashtbl.create 4096 in
  List.iter
    (fun dir ->
      let dir = Filename.concat !root dir in
      if Sys.file_exists dir then
        List.iter
          (fun path ->
            Hashtbl.iter
              (fun tok () ->
                let prev =
                  Option.value ~default:[] (Hashtbl.find_opt users tok)
                in
                Hashtbl.replace users tok (path :: prev))
              (tokens (read_lines path)))
          (walk dir []))
    [ "lib"; "bin"; "perfbench"; "examples"; "test" ];
  List.iter (check_dead_exports ~users)
    (List.sort compare (walk ~suffix:".mli" lib []));
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
        ".ulslint-allow: stale entry \"%s %s%s\" (no such finding — remove it)\n"
        a.a_rule a.a_path
        (match a.a_line with None -> "" | Some l -> ":" ^ string_of_int l))
    stale;
  if live <> [] || stale <> [] then begin
    Printf.printf "ulslint: %d finding(s), %d stale allowlist entr(ies)\n"
      (List.length live) (List.length stale);
    exit 1
  end;
  Printf.printf "ulslint: %d files clean (allowlist: %d entries)\n"
    (List.length files) (List.length allows)
