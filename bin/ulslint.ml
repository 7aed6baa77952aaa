(* Lint for the repository's own invariants, over the typed trees dune
   writes (a .cmt per .ml, a .cmti per .mli), read with compiler-libs: a
   call, a label or a guard is what the compiler saw, comments and
   literals are not code, and names resolve through open, include and
   module aliases. A scanned .ml without its .cmt, or a lib/ .mli without
   its .cmti, exits 2, so a partial build cannot lint clean.

   [ulslint [ROOT]] lints ROOT (default "."), which holds lib/ and
   .ulslint-allow. The typed trees come from ROOT/_build/default when it
   exists (the repo root, after [dune build @check]), else from ROOT
   itself (a dune rule running inside _build). The rules:

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
                     wedges that fiber, not the watcher's owner. An
                     inline callback, the [fun] passed as the watcher,
                     must only flag-and-signal.

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
                     that passes ~args outside the then-branch of an
                     [if Trace.enabled ...] (or a match case guarded
                     [when Trace.enabled ...]): the argument list (and
                     the strings in it) is built on every call even
                     while tracing is off, so observability stops being
                     free when disabled. Cold paths (failure, recovery,
                     once-per-run) are allowlisted by event name, each
                     with a comment.

   dead-export       a [val] in a lib/**/*.mli that no .ml outside its
                     own module uses (lib/, bin/, perfbench/,
                     examples/, test/): an interface entry nobody else
                     calls is surface to maintain for nothing.

   test-only         a [val] that only test/ uses: the program does not
                     need it, so it goes with the tests that check only
                     it, unless it is an observation or injection point
                     a test needs; that one is allowlisted by value,
                     with a comment naming what it observes or injects.

   unset-optional    a [?label:] of a [val] in a lib/**/*.mli that no
                     .ml outside test/ and the defining module passes to
                     that val: with one value in use, the option is a
                     constant in disguise. One only test/ passes is
                     reported as test-only. A label passed to another
                     function, even one of the same name, does not count.

   Findings can be suppressed by .ulslint-allow at the repo root
   ("rule path", "rule path:line" or "rule path:value" per line, '#'
   comments; an unset-optional value is "val?label"); stale allowlist
   entries are themselves errors, so the file can only shrink, and a
   test-only, unset-optional or trace-args-unguarded entry without a
   comment is one too. *)

open Typedtree

let rules =
  [
    "no-assert-false"; "missing-mli"; "blocking-watcher";
    "metrics-name-lookup"; "unlabeled-sync"; "trace-args-unguarded";
    "dead-export"; "test-only"; "unset-optional";
  ]

(* [sym] names the value a dead-export or test-only finding is about,
   the "val?label" of an unset-optional one, or the event of a
   trace-args-unguarded one. *)
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

let line (loc : Location.t) = loc.loc_start.pos_lnum

(* --- files ----------------------------------------------------------- *)

let read_lines path =
  String.split_on_char '\n' (In_channel.with_open_bin path In_channel.input_all)

(* The files under [root]/[rel] that [keep], as paths relative to
   [root]. Directories starting with '.' or '_' are skipped unless
   [hidden] (dune's object directories are hidden). *)
let rec walk ~hidden ~keep root rel acc =
  Array.fold_left
    (fun acc entry ->
      let rel = if rel = "" then entry else rel ^ "/" ^ entry in
      if Sys.is_directory (Filename.concat root rel) then
        if (entry.[0] = '.' || entry.[0] = '_') && not hidden then acc
        else walk ~hidden ~keep root rel acc
      else if keep entry then rel :: acc
      else acc)
    acc
    (Sys.readdir (Filename.concat root rel))

(* --- names ----------------------------------------------------------- *)

(* A compilation unit "Uls_nic__Tigon" splits into the dune library
   wrapper "Uls_nic" and the module "Tigon"; executables use the
   wrapper "Dune__exe". *)
let split_unit name =
  let rec last i =
    if i < 0 then None
    else if name.[i] = '_' && name.[i + 1] = '_' then Some i
    else last (i - 1)
  in
  Option.map
    (fun i ->
      (String.sub name 0 i, String.sub name (i + 2) (String.length name - i - 2)))
    (last (String.length name - 2))

let wrappers : (string, unit) Hashtbl.t = Hashtbl.create 32

(* What the module idents of the file being scanned stand for: [module
   X = M] and [let module X = M in] bind X to M, and [include M] binds
   each value and module it copies to M's. Idents are unique within a
   file, so each maps back from its own binding. *)
let aliases : (Ident.t, Path.t) Hashtbl.t = Hashtbl.create 64

let rec components = function
  | Path.Pident id -> (
    match Hashtbl.find_opt aliases id with
    | Some p -> components p
    | None -> if Ident.global id then Some [ Ident.name id ] else None)
  | Pdot (p, s) -> Option.map (fun c -> c @ [ s ]) (components p)
  | _ -> None

(* The wrapper-free name a path reaches ("Sim.delay", "Stats.Summary.add"),
   or [None] when it starts at a local value or module. *)
let key path =
  let rec unwrap = function
    | c :: rest when Hashtbl.mem wrappers c -> unwrap rest
    | c :: rest -> (
      match split_unit c with
      | Some (_, "") -> rest
      | Some (_, m) -> m :: rest
      | None -> c :: rest)
    | [] -> []
  in
  Option.map (fun c -> String.concat "." (unwrap c)) (components path)

let rec module_path me =
  match me.mod_desc with
  | Tmod_ident (p, _) -> Some p
  | Tmod_constraint (me, _, _, _) -> module_path me
  | _ -> None

let bind_alias id me =
  Option.iter (Hashtbl.replace aliases id) (module_path me)

let bind_include (incl : include_declaration) =
  Option.iter
    (fun p ->
      List.iter
        (function
          | Types.Sig_value (id, _, _) | Sig_module (id, _, _, _, _) ->
            Hashtbl.replace aliases id (Path.Pdot (p, Ident.name id))
          | _ -> ())
        incl.incl_type)
    (module_path incl.incl_mod)

(* What [pick] finds in each sub-expression of [es], in pre-order. *)
let collect pick es =
  let acc = ref [] in
  let expr sub e =
    Option.iter (fun x -> acc := x :: !acc) (pick e);
    Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr } in
  List.iter (it.expr it) es;
  List.rev !acc

(* The keys of every value an expression names. *)
let names e =
  collect (fun e -> match e.exp_desc with Texp_ident (p, _, _) -> key p | _ -> None) [ e ]

(* The first string literal in [es]: a trace call's event name. *)
let first_literal es =
  let literal e =
    match e.exp_desc with Texp_constant (Const_string (s, _, _)) -> Some s | _ -> None
  in
  Option.value ~default:"" (List.nth_opt (collect literal es) 0)

(* The labels an application passes. The typer fills in each omitted
   optional argument itself, with a ghost location. *)
let passed args =
  List.filter_map
    (function
      | (Asttypes.Labelled l | Optional l), Some e when not e.exp_loc.loc_ghost -> Some l
      | _ -> None)
    args

(* --- per-file rules ---------------------------------------------------- *)

let trace_calls =
  [ "Trace.instant"; "Trace.span_begin"; "Trace.span_end"; "Trace.span" ]

let sync_constructors = [ "Cond.create"; "Mailbox.create" ]

(* Calls that suspend the running fiber: a socket's read, write,
   accept, recv or send, and the engine's waits. *)
let blocks k =
  match List.rev (String.split_on_char '.' k) with
  | ("read" | "write" | "accept" | "recv" | "send" | "wait_recv" | "wait_send")
    :: _ :: _ ->
    true
  | _ ->
    List.mem k
      [ "Cond.wait"; "Cond.wait_timeout"; "Cond.wait_until"; "Mailbox.recv";
        "Resource.use"; "Sim.delay" ]

(* The inline watcher callbacks of one application of [callee] (a
   value's own name), with the registration they go through: a [fun]
   passed to add_watcher or add_accept_watcher, or as a [~watch]
   argument. *)
let watchers callee args =
  List.filter_map
    (function
      | label, Some ({ exp_desc = Texp_function _; _ } as e) -> (
        match (callee, label) with
        | ("add_watcher" | "add_accept_watcher"), _ -> Some (callee, e)
        | _, Asttypes.Labelled "watch" -> Some ("Evq.register ~watch", e)
        | _ -> None)
      | _ -> None)
    args

(* Each use of a value in one file ([uses]: its key), each label passed
   to a value ([passes]: "key?label") and, for a [lib] file, the
   per-file rules' findings in [report] order. *)
let scan ~lib path str =
  Hashtbl.reset aliases;
  let uses = ref [] and passes = ref [] and found = ref [] in
  let find rule ?(sym = "") loc msg =
    if lib then found := { rule; path; line = line loc; sym; msg } :: !found
  in
  (* How many [if Trace.enabled] branches enclose the current node. *)
  let guarded = ref 0 in
  let guarding cond f =
    if List.mem "Trace.enabled" (names cond) then begin
      incr guarded;
      f ();
      decr guarded
    end
    else f ()
  in
  let apply (f : expression) args =
    match f.exp_desc with
    | Texp_ident (p, _, _) ->
      List.iter
        (fun (via, (body : expression)) ->
          List.iter
            (fun call ->
              find "blocking-watcher"
                (if via = "Evq.register ~watch" then body.exp_loc else f.exp_loc)
                ("watcher callback registered via " ^ via ^ " calls blocking " ^ call))
            (List.sort_uniq compare (List.filter blocks (names body))))
        (watchers (Path.last p) args);
      Option.iter
        (fun k ->
          let labels = passed args in
          List.iter (fun l -> passes := (k ^ "?" ^ l) :: !passes) labels;
          if List.mem k trace_calls && List.mem "args" labels && !guarded = 0 then
            find "trace-args-unguarded" f.exp_loc
              ~sym:
                (first_literal
                   (List.filter_map (function Asttypes.Nolabel, e -> e | _ -> None) args))
              (k
             ^ " builds its ~args list even with tracing off; wrap it in [if \
                Trace.enabled ... then]");
          if List.mem k sync_constructors && not (List.mem "label" labels) then
            find "unlabeled-sync" f.exp_loc
              (k
             ^ " without ~label: deadlock wait-for edges and racing-pair reports \
                need a name for this object"))
        (key p)
    | _ -> ()
  in
  let expr sub e =
    (match e.exp_desc with
    | Texp_ident (p, _, _) ->
      Option.iter
        (fun k ->
          uses := k :: !uses;
          if k = "Metrics.counter_value" then
            find "metrics-name-lookup" e.exp_loc
              (k
             ^ " hashes the metric name per call; cache a handle \
                (Metrics.counter/gauge/histogram) at construction"))
        (key p)
    | Texp_apply (f, args) -> apply f args
    | Texp_assert ({ exp_desc = Texp_construct (_, { cstr_name = "false"; _ }, []); _ }, _)
      ->
      find "no-assert-false" e.exp_loc
        "assert false loses the state it died on; raise a named error"
    | Texp_letmodule (Some id, _, _, me, _) -> bind_alias id me
    | _ -> ());
    match e.exp_desc with
    | Texp_ifthenelse (c, yes, no) ->
      sub.Tast_iterator.expr sub c;
      guarding c (fun () -> sub.expr sub yes);
      Option.iter (sub.expr sub) no
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  let case : 'k. Tast_iterator.iterator -> 'k case -> unit =
   fun sub c ->
    match c.c_guard with
    | Some g ->
      sub.pat sub c.c_lhs;
      sub.expr sub g;
      guarding g (fun () -> sub.expr sub c.c_rhs)
    | None -> Tast_iterator.default_iterator.case sub c
  in
  let module_binding sub mb =
    Option.iter (fun id -> bind_alias id mb.mb_expr) mb.mb_id;
    Tast_iterator.default_iterator.module_binding sub mb
  in
  let structure_item sub si =
    (match si.str_desc with Tstr_include incl -> bind_include incl | _ -> ());
    Tast_iterator.default_iterator.structure_item sub si
  in
  let it =
    { Tast_iterator.default_iterator with expr; case; module_binding; structure_item }
  in
  it.structure it str;
  let rank f = (List.find_index (( = ) f.rule) rules, f.line, f.msg) in
  let ordered = List.sort_uniq (fun a b -> compare (rank a) (rank b)) !found in
  findings := List.rev_append ordered !findings;
  (!uses, !passes)

(* --- interface rules: dead-export, test-only, unset-optional ---------- *)

(* Each [val] of an interface: its name inside the interface ("create",
   "Parser.create"), its line, and its [?label:]s with their lines.
   Operators and externals are left out. *)
let vals (sg : signature) =
  let rec optionals ct =
    match ct.ctyp_desc with
    | Ttyp_arrow (Optional l, _, rest) -> (l, line ct.ctyp_loc) :: optionals rest
    | Ttyp_arrow (_, _, rest) | Ttyp_poly (_, rest) -> optionals rest
    | _ -> []
  in
  let rec items prefix =
    List.concat_map (fun item ->
        match item.sig_desc with
        | Tsig_value vd
          when vd.val_prim = []
               && (match vd.val_name.txt.[0] with
                  | 'a' .. 'z' | '_' -> true
                  | _ -> false) ->
          [ (prefix ^ vd.val_name.txt, line vd.val_loc, optionals vd.val_desc) ]
        | Tsig_module
            { md_name = { txt = Some m; _ };
              md_type = { mty_desc = Tmty_signature s; _ }; _ } ->
          items (prefix ^ m ^ ".") s.sig_items
        | _ -> [])
  in
  items "" sg.sig_items

(* Who uses a name of [mli], from a table mapping names to the .ml
   files that use them; a use from the module's own .ml does not
   count. *)
type reach = Unused | Test_only | Used

let reach mli table key =
  let own = Filename.chop_suffix mli ".mli" ^ ".ml" in
  let users =
    List.filter (( <> ) own) (Option.value ~default:[] (Hashtbl.find_opt table key))
  in
  if users = [] then Unused
  else if List.for_all (String.starts_with ~prefix:"test/") users then Test_only
  else Used

let top_module mli =
  String.capitalize_ascii (Filename.basename (Filename.chop_suffix mli ".mli"))

(* [uses] maps each value's key to the .ml files that name it. *)
let check_exports ~uses mli sg =
  List.iter
    (fun (name, l, _) ->
      let v = List.hd (List.rev (String.split_on_char '.' name)) in
      match reach mli uses (top_module mli ^ "." ^ name) with
      | Used -> ()
      | Unused ->
        report ~sym:v "dead-export" mli l
          (v
         ^ " is exported but no other module uses it; drop it from the \
            interface (and the code, if nothing inside uses it)")
      | Test_only ->
        report ~sym:v "test-only" mli l
          (v
         ^ " is exported but only tests use it; delete it with the tests that \
            check only it, or allowlist the observation point it provides"))
    (vals sg)

(* [passes] maps each "key?label" to the .ml files that pass it. *)
let check_optionals ~passes mli sg =
  List.iter
    (fun (name, _, labels) ->
      List.iter
        (fun (label, l) ->
          let sym = name ^ "?" ^ label in
          let opt = "?" ^ label ^ " of " ^ name in
          match reach mli passes (top_module mli ^ "." ^ sym) with
          | Used -> ()
          | Unused ->
            report ~sym "unset-optional" mli l
              (opt
             ^ " is never passed outside its module; make it a constant where \
                it is read")
          | Test_only ->
            report ~sym "unset-optional" mli l
              (opt
             ^ " is passed only by tests; make it a constant where it is read, \
                or allowlist what its test injects"))
        labels)
    (vals sg)

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
  let root =
    match Sys.argv with
    | [| _ |] -> "."
    | [| _; dir |] -> dir
    | _ ->
      prerr_endline "usage: ulslint [ROOT]";
      exit 2
  in
  if not (Sys.file_exists (Filename.concat root "lib")) then begin
    Printf.eprintf "ulslint: no lib/ under %s\n" root;
    exit 2
  end;
  let build =
    let b = Filename.concat root "_build/default" in
    if Sys.file_exists b then b else root
  in
  (* Every typed tree, by the source file it was compiled from; dune
     keeps them two levels below it, in <dir>/.<name>.objs/byte/. *)
  let units = Hashtbl.create 256 in
  List.iter
    (fun cmt ->
      let info = Cmt_format.read_cmt (Filename.concat build cmt) in
      List.iter
        (fun (unit, _) ->
          Option.iter (fun (w, _) -> Hashtbl.replace wrappers w ()) (split_unit unit))
        ((info.cmt_modname, None) :: info.cmt_imports);
      match (info.cmt_sourcefile, info.cmt_annots) with
      | Some src, ((Implementation _ | Interface _) as annots) ->
        let dir = Filename.(dirname (dirname (dirname cmt))) in
        Hashtbl.replace units (Filename.concat dir (Filename.basename src)) annots
      | _ -> ())
    (walk ~hidden:true build ""
       ~keep:(fun f ->
         Filename.check_suffix f ".cmt" || Filename.check_suffix f ".cmti")
       []);
  let sources ~suffix dir =
    if Sys.file_exists (Filename.concat root dir) then
      List.sort compare
        (walk ~hidden:false root dir ~keep:(fun f -> Filename.check_suffix f suffix) [])
    else []
  in
  let dirs = [ "lib"; "bin"; "perfbench"; "examples"; "test" ] in
  let mls = List.concat_map (sources ~suffix:".ml") dirs in
  let mlis = sources ~suffix:".mli" "lib" in
  let typed = Hashtbl.find_opt units in
  let unbuilt = List.filter (fun p -> not (Hashtbl.mem units p)) (mls @ mlis) in
  if unbuilt <> [] then begin
    List.iter
      (fun p ->
        Printf.eprintf "ulslint: %s has no %s; build first (dune build @check)\n"
          p (if Filename.check_suffix p ".mli" then ".cmti" else ".cmt"))
      unbuilt;
    exit 2
  end;
  let uses = Hashtbl.create 4096 and passes = Hashtbl.create 512 in
  let add tbl path key =
    let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
    if not (List.mem path prev) then Hashtbl.replace tbl key (path :: prev)
  in
  List.iter
    (fun path ->
      match typed path with
      | Some (Cmt_format.Implementation str) ->
        let lib = String.starts_with ~prefix:"lib/" path in
        if lib && typed (path ^ "i") = None then
          report "missing-mli" path 1 "library module has no interface file";
        let u, p = scan ~lib path str in
        List.iter (add uses path) u;
        List.iter (add passes path) p
      | _ -> ())
    mls;
  let interfaces =
    List.filter_map
      (fun mli -> match typed mli with Some (Interface sg) -> Some (mli, sg) | _ -> None)
      mlis
  in
  List.iter (fun (mli, sg) -> check_exports ~uses mli sg) interfaces;
  List.iter (fun (mli, sg) -> check_optionals ~passes mli sg) interfaces;
  let allows = load_allowlist (Filename.concat root ".ulslint-allow") in
  let all = List.rev !findings in
  let stale =
    List.filter (fun a -> not (List.exists (fun f -> matches a f) all)) allows
  in
  let unexplained =
    List.filter
      (fun a ->
        List.mem a.a_rule
          [ "test-only"; "unset-optional"; "trace-args-unguarded" ]
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
         else if a.a_rule = "unset-optional" then
           "what its test injects, and for which test"
         else "why the path is cold"))
    unexplained;
  let bad_allows = List.length stale + List.length unexplained in
  if live <> [] || bad_allows > 0 then begin
    Printf.printf "ulslint: %d finding(s), %d bad allowlist entr(ies)\n"
      (List.length live) bad_allows;
    exit 1
  end;
  Printf.printf "ulslint: %d files clean (allowlist: %d entries)\n"
    (List.length (List.filter (String.starts_with ~prefix:"lib/") mls))
    (List.length allows)
