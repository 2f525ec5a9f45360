(* The hyplint rule set: syntactic checks over the Parsetree, each
   grounded in a defect class this repository has actually shipped (see
   DESIGN.md's catalogue).  The scan is a single Ast_iterator walk with a
   loop-nesting counter; every finding carries a stable rule id and the
   exact source line, so suppressions and tests can target it. *)

module Check = Analysis_core.Check

type finding = {
  rule : string;
  severity : Check.severity;
  file : string;
  line : int;
  col : int;
  message : string;
}

(* Rule ids are stable; the catalogue is the single source of truth for
   [lint --rules] and the docs. *)
let catalogue =
  [
    ( "SRC00",
      "lint hygiene: unparseable source, malformed/reason-less suppression \
       markers, and (as warnings) suppressions that matched nothing" );
    ( "SRC01",
      "polymorphic compare/Hashtbl.hash: use Int.compare, String.compare or \
       a dedicated comparator (Support.Order) — polymorphic compare walks \
       tags at runtime and is several times slower on scalars" );
    ( "SRC02",
      "List.nth / list append (@) inside an iteration body (for/while or a \
       List/Array iterator callback): accidental O(n^2)" );
    ( "SRC03",
      "stdout/stderr printing in library code outside designated IO \
       modules (lint.config allowlists the printers)" );
    ( "SRC04",
      "use of the removed Support.Util.time_it: migrate to Obs.Span.timed, \
       which also records an observability span" );
    ( "SRC05",
      "failwith/invalid_arg message without a \"Module.func: \" prefix: \
       raise sites must identify their origin" );
    ( "SRC06", "Obj.magic: never type-safe, forbidden everywhere" );
    ( "SRC07",
      "library .ml without a matching .mli: every library module is sealed \
       (pure re-export roots are exempt)" );
    ( "SRC08",
      "Unix.fork / Unix.waitpid / Unix.kill outside lib/engine: process \
       management is centralized in the engine's worker pool, which owns \
       crash isolation, reaping and timeout kills" );
    ( "SRC09",
      "polymorphic Hashtbl in a hot-path module (lib/solvers, \
       lib/hypergraph): generic hashing walks structured keys (int arrays, \
       tuples) at runtime and allocates per operation — use a flat \
       scratch array with a touched-list or stamp reset (Workspace), \
       sort-based dedup, or a specialized Hashtbl.Make" );
    ( "SRC10",
      "direct Gc.* use outside lib/obs: heap telemetry and allocation \
       metering go through Obs.Prof (the designated profiling surface), so \
       GC reads stay one coherent layer instead of ad-hoc Gc.stat calls" );
    ( "SRC11",
      "Domain.spawn / Domain.create / Atomic.* outside the designated \
       concurrency modules (lint.config allowlists them): multicore \
       primitives land in one reviewed place, fenced the same way SRC08 \
       fences fork and SRC10 fences Gc" );
    ( "SRC12",
      "Unix.socket / Unix.bind / Unix.listen / Unix.accept outside the \
       designated networking modules (lint.config allowlists lib/server): \
       listening sockets own signal discipline, stale-file cleanup and \
       non-blocking setup, so socket plumbing stays in the serve \
       subsystem's reviewed accept loop" );
  ]

let rule_ids = List.map fst catalogue

(* The PR that introduced each rule, printed as the catalogue's [since]
   column so downstream tooling can version-pin against the rule set.
   Covers the DOM rules too: this renderer is shared with `analyze`. *)
let since id =
  match id with
  | "SRC08" -> "PR4"
  | "SRC09" -> "PR5"
  | "SRC10" -> "PR7"
  | "SRC11" -> "PR8"
  | "SRC12" -> "PR9"
  | "DOM07" | "DOM08" | "DOM09" | "DOM11" -> "PR8"
  | _ when String.starts_with ~prefix:"DOM" id -> "PR6"
  | _ -> "PR3"

(* The one `--rules` renderer shared by `lint` and `analyze`, so a rule
   catalogue cannot drift from what its tool prints. *)
let render_catalogue cat =
  String.concat ""
    (List.map
       (fun (id, what) -> Printf.sprintf "%-8s %-6s %s\n" id (since id) what)
       cat)

(* ---- identifier classification ----------------------------------------- *)

let rec last_component (lid : Longident.t) =
  match lid with
  | Lident s -> s
  | Ldot (_, s) -> s
  | Lapply (_, r) -> last_component r

let is_src01 (lid : Longident.t) =
  match lid with
  | Lident "compare" -> true
  | Ldot (Lident ("Stdlib" | "Pervasives"), "compare") -> true
  | Ldot (Lident "Hashtbl", ("hash" | "seeded_hash")) -> true
  | _ -> false

let is_src02 (lid : Longident.t) =
  match lid with
  | Lident "@" -> true
  | Ldot (Lident "List", ("append" | "nth" | "nth_opt")) -> true
  | Ldot (Lident "Stdlib", "@") -> true
  | _ -> false

let is_src03 (lid : Longident.t) =
  match lid with
  | Lident
      ( "print_endline" | "print_string" | "print_newline" | "print_char"
      | "print_int" | "print_float" | "print_bytes" | "prerr_endline"
      | "prerr_string" | "prerr_newline" | "prerr_char" | "prerr_int"
      | "prerr_float" | "prerr_bytes" ) ->
      true
  | Ldot (Lident ("Printf" | "Format"), ("printf" | "eprintf")) -> true
  | Ldot (Lident "Format", ("print_string" | "print_newline")) -> true
  | Ldot (Lident "Fmt", ("pr" | "epr")) -> true
  | _ -> false

let is_src04 lid = last_component lid = "time_it"

let is_src06 (lid : Longident.t) =
  match lid with Ldot (Lident "Obj", "magic") -> true | _ -> false

let is_src08 (lid : Longident.t) =
  match lid with
  | Ldot (Lident ("Unix" | "UnixLabels"), ("fork" | "waitpid" | "kill")) ->
      true
  | _ -> false

let is_src10 (lid : Longident.t) =
  match lid with
  | Ldot (Lident "Gc", _) -> true
  | Ldot (Ldot (Lident "Stdlib", "Gc"), _) -> true
  | _ -> false

(* Multicore primitives: domain spawning and any Atomic operation.
   [Domain.cpu_relax]/[Domain.self] etc. are left alone — only the calls
   that create parallelism or shared synchronized state are fenced. *)
let is_src11 (lid : Longident.t) =
  match lid with
  | Ldot (Lident "Domain", ("spawn" | "create")) -> true
  | Ldot (Ldot (Lident "Stdlib", "Domain"), ("spawn" | "create")) -> true
  | Ldot (Lident "Atomic", _) -> true
  | Ldot (Ldot (Lident "Stdlib", "Atomic"), _) -> true
  | _ -> false

(* Socket plumbing: creating, binding, listening on or accepting from
   sockets.  connect/send/recv are left alone — consuming an endpoint is
   fine anywhere; it is {e owning} one that is fenced into the serve
   subsystem (lint.config designates the networking modules). *)
let is_src12 (lid : Longident.t) =
  match lid with
  | Ldot (Lident ("Unix" | "UnixLabels"), ("socket" | "bind" | "listen" | "accept"))
    ->
      true
  | Ldot (Ldot (Lident "Stdlib", ("Unix" | "UnixLabels")),
          ("socket" | "bind" | "listen" | "accept")) ->
      true
  | _ -> false

(* Any value of the polymorphic [Hashtbl] module.  [hash]/[seeded_hash]
   are SRC01's everywhere and excluded here to avoid double reports;
   functorial [Hashtbl.Make(..)] tables never appear as [Hashtbl.*] value
   identifiers, so they pass (their hash function is monomorphic). *)
let is_src09 (lid : Longident.t) =
  match lid with
  | Ldot (Lident "Hashtbl", ("hash" | "seeded_hash")) -> false
  | Ldot (Lident "Hashtbl", _) -> true
  | Ldot (Ldot (Lident "Stdlib", "Hashtbl"), _) -> true
  | _ -> false

(* Callback-taking functions whose function-literal arguments run once per
   element: List/Array iteration, plus this repo's iter_*/fold_* walkers
   (Hypergraph.iter_pins, Dag.iter_succs, ...). *)
let is_iterish (lid : Longident.t) =
  let last = last_component lid in
  List.mem last
    [
      "iter"; "iteri"; "iter2"; "map"; "mapi"; "map2"; "rev_map";
      "concat_map"; "filter_map"; "filter"; "find"; "find_opt"; "find_map";
      "exists"; "for_all"; "partition"; "fold_left"; "fold_right"; "fold";
      "init"; "sort"; "sort_uniq"; "stable_sort";
    ]
  || String.starts_with ~prefix:"iter_" last
  || String.starts_with ~prefix:"fold_" last

(* ---- SRC05: raise-message shape ---------------------------------------- *)

(* Accepts "Module.func: message" (and deeper module paths): a dotted
   path of at least two components, all but the last capitalized, the
   last a lowercase function name, then ": " and a non-empty message. *)
let well_prefixed_message s =
  match String.index_opt s ':' with
  | None -> false
  | Some i ->
      let n = String.length s in
      (* The colon ends the prefix; a message (possibly supplied by a
         later format argument) follows after one space. *)
      (i + 1 >= n || s.[i + 1] = ' ')
      && begin
           let ident_chars comp =
             String.for_all
               (fun c ->
                 (c >= 'A' && c <= 'Z')
                 || (c >= 'a' && c <= 'z')
                 || (c >= '0' && c <= '9')
                 || c = '_' || c = '\'')
               comp
           in
           let starts_upper comp =
             String.length comp > 0 && comp.[0] >= 'A' && comp.[0] <= 'Z'
           in
           let starts_lower comp =
             String.length comp > 0
             && ((comp.[0] >= 'a' && comp.[0] <= 'z') || comp.[0] = '_')
           in
           match String.split_on_char '.' (String.sub s 0 i) with
           | ([] | [ _ ]) -> false
           | comps ->
               let rec split_last acc = function
                 | [] -> (List.rev acc, "")
                 | [ last ] -> (List.rev acc, last)
                 | c :: rest -> split_last (c :: acc) rest
               in
               let mods, func = split_last [] comps in
               List.for_all (fun c -> starts_upper c && ident_chars c) mods
               && starts_lower func && ident_chars func
         end

(* Extract the string literal carried by a raise argument: a constant, or
   the (format) literal heading a sprintf/Fmt.str/(^) application. *)
let rec message_literal (e : Parsetree.expression) =
  match e.Parsetree.pexp_desc with
  | Pexp_constant (Pconst_string (s, _, _)) -> Some s
  | Pexp_apply (f, (_, first) :: _) -> (
      match f.Parsetree.pexp_desc with
      | Pexp_ident { txt; _ } -> (
          match last_component txt with
          | "sprintf" | "str" | "asprintf" | "strf" | "^" ->
              message_literal first
          | _ -> None)
      | _ -> None)
  | _ -> None

(* ---- the walk ----------------------------------------------------------- *)

let line_of (loc : Location.t) = loc.loc_start.pos_lnum
let col_of (loc : Location.t) = loc.loc_start.pos_cnum - loc.loc_start.pos_bol

(* A compilation unit consisting solely of [module X = Path] aliases and
   [include Path] items is a pure re-export root (hypergraph.ml and
   friends); SRC07 exempts those. *)
let reexport_only (str : Parsetree.structure) =
  List.for_all
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_module { pmb_expr = { pmod_desc = Pmod_ident _; _ }; _ } -> true
      | Pstr_include { pincl_mod = { pmod_desc = Pmod_ident _; _ }; _ } -> true
      | Pstr_attribute _ -> true
      | _ -> false)
    str

(* [scan ~path str] runs the expression-level rules (SRC01..SRC06) over
   one parsed implementation.  [path] is root-relative and decides
   whether SRC03 applies (library code only). *)
let scan ~path (str : Parsetree.structure) =
  let in_library = String.starts_with ~prefix:"lib/" path in
  let in_engine = String.starts_with ~prefix:"lib/engine/" path in
  let in_hot_path =
    String.starts_with ~prefix:"lib/solvers/" path
    || String.starts_with ~prefix:"lib/hypergraph/" path
  in
  let in_obs = String.starts_with ~prefix:"lib/obs/" path in
  let acc = ref [] in
  let add ~rule ~loc message =
    acc :=
      {
        rule;
        severity = Check.Error;
        file = path;
        line = line_of loc;
        col = col_of loc;
        message;
      }
      :: !acc
  in
  let loop_depth = ref 0 in
  let in_loop f =
    incr loop_depth;
    Fun.protect ~finally:(fun () -> decr loop_depth) f
  in
  let check_raise_site ~loc arg =
    match message_literal arg with
    | Some s when not (well_prefixed_message s) ->
        add ~rule:"SRC05" ~loc
          (Printf.sprintf
             "raise message %S lacks a \"Module.func: \" prefix" s)
    | _ -> ()
  in
  let expr (self : Ast_iterator.iterator) (e : Parsetree.expression) =
    match e.pexp_desc with
    | Pexp_ident { txt; loc } ->
        if is_src01 txt then
          add ~rule:"SRC01" ~loc
            (Printf.sprintf
               "polymorphic %s: use Int.compare / String.compare / \
                Support.Order"
               (last_component txt));
        if !loop_depth > 0 && is_src02 txt then
          add ~rule:"SRC02" ~loc
            (Printf.sprintf
               "%s inside an iteration body is O(n) per element (accidental \
                O(n^2))"
               (match txt with Lident "@" -> "list append (@)"
                | _ -> "List." ^ last_component txt));
        if in_library && is_src03 txt then
          add ~rule:"SRC03" ~loc
            (Printf.sprintf
               "%s prints from library code; return data or go through a \
                designated IO module"
               (last_component txt));
        if is_src04 txt then
          add ~rule:"SRC04" ~loc
            "Support.Util.time_it was removed; use Obs.Span.timed";
        if is_src06 txt then add ~rule:"SRC06" ~loc "Obj.magic is forbidden";
        if (not in_engine) && is_src08 txt then
          add ~rule:"SRC08" ~loc
            (Printf.sprintf
               "Unix.%s outside lib/engine; process management belongs to \
                the engine's worker pool"
               (last_component txt));
        if in_hot_path && is_src09 txt then
          add ~rule:"SRC09" ~loc
            (Printf.sprintf
               "Hashtbl.%s in a hot-path module: polymorphic hashing of \
                structured keys; use a Workspace scratch array, sort-based \
                dedup or Hashtbl.Make"
               (last_component txt));
        if (not in_obs) && is_src10 txt then
          add ~rule:"SRC10" ~loc
            (Printf.sprintf
               "Gc.%s outside lib/obs; heap telemetry goes through Obs.Prof"
               (last_component txt));
        if is_src11 txt then
          add ~rule:"SRC11" ~loc
            (Printf.sprintf
               "%s outside a designated concurrency module; multicore \
                primitives are fenced until the parallel solver PR \
                (allowlist in lint.config)"
               (match txt with
               | Ldot (Lident m, f) | Ldot (Ldot (_, m), f) -> m ^ "." ^ f
               | _ -> last_component txt));
        if is_src12 txt then
          add ~rule:"SRC12" ~loc
            (Printf.sprintf
               "Unix.%s outside a designated networking module; socket \
                plumbing belongs to the serve subsystem (allowlist in \
                lint.config)"
               (last_component txt))
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident ("failwith" | "invalid_arg"); loc };
            _ },
          [ (_, arg) ] ) ->
        check_raise_site ~loc arg;
        Ast_iterator.default_iterator.expr self e
    | Pexp_apply
        ( { pexp_desc = Pexp_ident { txt = Lident "raise"; loc }; _ },
          [
            ( _,
              {
                pexp_desc =
                  Pexp_construct
                    ( { txt = Lident ("Invalid_argument" | "Failure"); _ },
                      Some arg );
                _;
              } );
          ] ) ->
        check_raise_site ~loc arg;
        Ast_iterator.default_iterator.expr self e
    | Pexp_apply (({ pexp_desc = Pexp_ident { txt; _ }; _ } as fn), args)
      when is_iterish txt ->
        self.expr self fn;
        List.iter
          (fun (_, (a : Parsetree.expression)) ->
            match a.pexp_desc with
            | Pexp_fun _ | Pexp_function _ ->
                in_loop (fun () -> self.expr self a)
            | _ -> self.expr self a)
          args
    | Pexp_for (pat, lo, hi, _, body) ->
        self.pat self pat;
        self.expr self lo;
        self.expr self hi;
        in_loop (fun () -> self.expr self body)
    | Pexp_while (cond, body) ->
        self.expr self cond;
        in_loop (fun () -> self.expr self body)
    | _ -> Ast_iterator.default_iterator.expr self e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it str;
  List.rev !acc

let compare_findings a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c else String.compare a.rule b.rule
