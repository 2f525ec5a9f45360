(* The analyzer driver behind `hypartition analyze`: find sources, pair
   them with the .cmt files a prior `dune build @check` left under
   _build, lower every unit through the typed front, run the call-graph
   pass and the DOM rules, apply hyplint's suppression machinery, and
   report through the same Check vocabulary as `hypartition lint` /
   `hypartition check`.

   Analyzer-owned hygiene is DOM00: a source no up-to-date .cmt covers
   (missing, unreadable, or built from different text — the analyzer
   would be blind there or see old code, so it is an error), and a DOM
   suppression that matched nothing.  Marker syntax errors and
   lint.config parse errors stay lint-owned — hyplint already reports
   them as SRC00, and double reporting would make one typo two
   findings. *)

module Check = Analysis_core.Check

let schema_version = "hypartition-analysis/2"

(* Directories analyzed under the root.  [test] is deliberately absent:
   the domain-safety contract covers shipped code, and the DOM fixture
   files under test/ violate it on purpose. *)
let default_subdirs = [ "lib"; "bin"; "bench" ]

type result = {
  root : string;
  units : Ir.unit_ir list;  (* sorted by file *)
  n_reachable : int;  (* hot-path functions found by the call graph *)
  findings : Lint.Rules.finding list;  (* live (unsuppressed), sorted *)
  suppressed : (Lint.Rules.finding * string) list;  (* finding, reason *)
  inventory : Obs.Json.t;
  effects : Effects.t;  (* the interprocedural effect analysis *)
}

(* ---- suppression (shared machinery, DOM-owned ids) ---------------------- *)

let dom_marker (m : Lint.Suppress.inline) =
  List.exists (fun r -> List.mem r Dom_rules.rule_ids) m.Lint.Suppress.i_rules

let apply_suppressions ~config ~scans findings =
  let live = ref [] and suppressed = ref [] in
  List.iter
    (fun (f : Lint.Rules.finding) ->
      let inline =
        match List.assoc_opt f.file scans with
        | None -> None
        | Some scan ->
            Lint.Suppress.inline_match scan ~rule:f.rule ~line:f.line
      in
      match inline with
      | Some m ->
          m.Lint.Suppress.i_used <- true;
          suppressed := (f, m.Lint.Suppress.i_reason) :: !suppressed
      | None -> (
          match
            Lint.Suppress.config_match config ~rule:f.rule ~path:f.file
          with
          | Some e ->
              e.Lint.Suppress.e_used <- true;
              suppressed := (f, e.Lint.Suppress.e_reason) :: !suppressed
          | None -> live := f :: !live))
    findings;
  (List.rev !live, List.rev !suppressed)

(* A DOM suppression that matched nothing hides a future regression;
   markers that never mention a DOM rule belong to hyplint. *)
let stale_marker_findings ~scans =
  List.concat_map
    (fun (path, scan) ->
      List.filter_map
        (fun (m : Lint.Suppress.inline) ->
          if m.i_used || not (dom_marker m) then None
          else
            Some
              {
                Lint.Rules.rule = "DOM00";
                severity = Check.Warning;
                file = path;
                line = m.i_line;
                col = 0;
                message =
                  Printf.sprintf
                    "DOM suppression of %s matched no finding; remove it"
                    (String.concat ", " m.i_rules);
              })
        scan.Lint.Suppress.markers)
    scans

(* ---- filesystem walk ---------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec walk_sources dir rel acc =
  let entries = Sys.readdir dir in
  Array.sort String.compare entries;
  Array.fold_left
    (fun acc name ->
      if String.length name = 0 || name.[0] = '.' || name = "_build" then acc
      else
        let path = Filename.concat dir name in
        let rel_path = if rel = "" then name else rel ^ "/" ^ name in
        if Sys.is_directory path then walk_sources path rel_path acc
        else if
          Filename.check_suffix name ".ml" || Filename.check_suffix name ".mli"
        then (path, rel_path) :: acc
        else acc)
    acc entries

(* The .cmt walk must descend into dune's dot-directories
   (lib/solvers/.solvers.objs/byte/...). *)
let rec walk_cmts dir acc =
  match Sys.readdir dir with
  | entries ->
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc name ->
          let path = Filename.concat dir name in
          if Sys.is_directory path then walk_cmts path acc
          else if Filename.check_suffix name ".cmt" then path :: acc
          else acc)
        acc entries
  | exception Sys_error _ -> acc

(* Match a cmt's recorded source file against the walked source set:
   dune records paths relative to the build context root, but be
   tolerant of absolute prefixes. *)
let source_of_cmt ~rel_paths src =
  if List.mem src rel_paths then Some src
  else
    List.find_opt
      (fun rel -> String.ends_with ~suffix:("/" ^ rel) src)
      rel_paths

(* DOM00 for a source the analyzer cannot see as it is now. *)
let coverage_error rel why =
  {
    Lint.Rules.rule = "DOM00";
    severity = Check.Error;
    file = rel;
    line = 1;
    col = 0;
    message = why ^ "; run `dune build @check` before analyzing";
  }

let run ?config_path ?(entries = Callgraph.default_entries) ?build_dir ~root ()
    =
  if not (Sys.file_exists root && Sys.is_directory root) then
    Error (Printf.sprintf "Driver.run: %s is not a directory" root)
  else begin
    let config =
      let path =
        match config_path with
        | Some p -> Some p
        | None ->
            let p = Filename.concat root "lint.config" in
            if Sys.file_exists p then Some p else None
      in
      match path with
      | None -> []
      | Some p ->
          (* parse errors are hyplint's SRC00, not re-reported here *)
          fst (Lint.Suppress.parse_config (read_file p))
    in
    let files =
      List.concat_map
        (fun sub ->
          let dir = Filename.concat root sub in
          if Sys.file_exists dir && Sys.is_directory dir then
            List.rev (walk_sources dir sub [])
          else [])
        default_subdirs
    in
    let files = List.sort (fun (_, a) (_, b) -> String.compare a b) files in
    let rel_paths = List.map snd files in
    let has_mli rel = List.mem (rel ^ "i") rel_paths in
    (* Every readable implementation .cmt whose source is one of ours;
       first cmt claiming a source wins. *)
    let build_dir =
      match build_dir with
      | Some d -> d
      | None -> Filename.concat root (Filename.concat "_build" "default")
    in
    let covered : (string, Front_typed.typed_unit) Hashtbl.t =
      Hashtbl.create 64
    in
    if Sys.file_exists build_dir && Sys.is_directory build_dir then
      List.iter
        (fun cmt ->
          match Front_typed.read_cmt cmt with
          | None -> ()
          | Some tu -> (
              match source_of_cmt ~rel_paths tu.Front_typed.tu_source with
              | Some rel ->
                  if not (Hashtbl.mem covered rel) then
                    Hashtbl.replace covered rel
                      { tu with Front_typed.tu_source = rel }
              | None -> ()))
        (List.sort String.compare (walk_cmts build_dir []));
    (* Pair each implementation with its .cmt.  The cmt records the
       digest of the text it was compiled from, so an edit made after
       the last build is caught here instead of analyzed as the old
       code. *)
    let mls =
      List.filter (fun (_, rel) -> Filename.check_suffix rel ".ml") files
    in
    let typed, uncovered =
      List.partition_map
        (fun (abs, rel) ->
          let source = read_file abs in
          match Hashtbl.find_opt covered rel with
          | None ->
              Either.Right
                (coverage_error rel
                   "no .cmt in the build directory covers this file")
          | Some tu
            when tu.Front_typed.tu_digest <> Some (Digest.string source) ->
              Either.Right
                (coverage_error rel
                   "this file changed after its .cmt was built, so the .cmt \
                    describes older code")
          | Some tu -> Either.Left (tu, Lint.Suppress.scan_inline source))
        mls
    in
    let scans =
      List.map (fun (tu, scan) -> (tu.Front_typed.tu_source, scan)) typed
    in
    let typed_units = List.map fst typed in
    let known = Front_typed.harvest typed_units in
    let units =
      List.sort Ir.compare_units
        (List.map
           (fun tu ->
             Front_typed.extract ~known
               ~has_mli:(has_mli tu.Front_typed.tu_source)
               tu)
           typed_units)
    in
    let cg = Callgraph.compute ~entries units in
    let effects = Effects.compute ~cg units in
    (* The committed certificate, when there is one: DOM11 compares it
       against this run.  Trees without one (test fixtures) skip the
       comparison — that is not a finding.  So does a run with DOM00
       coverage errors: the certificate describes the whole program,
       and the units left out would only resurface as spurious
       unreachable entries. *)
    let stale_certificate =
      let path = "analysis/effects.json" in
      let abs = Filename.concat root path in
      if uncovered = [] && Sys.file_exists abs then
        Effects.stale_findings ~certificate_path:path
          ~certificate:(read_file abs) effects
      else []
    in
    let live, suppressed =
      apply_suppressions ~config ~scans
        (Dom_rules.evaluate ~cg ~effects units @ stale_certificate)
    in
    Ok
      {
        root;
        units;
        n_reachable = Callgraph.n_reachable cg;
        findings =
          List.sort Lint.Rules.compare_findings
            (live @ stale_marker_findings ~scans @ uncovered);
        suppressed;
        inventory = Inventory.to_json ~cg units;
        effects;
      }
  end

(* ---- reporting ---------------------------------------------------------- *)

let report t =
  let ctx =
    Check.create
      ~subject:
        (Printf.sprintf "%s (%d units)" t.root (List.length t.units))
  in
  List.iter
    (fun (f : Lint.Rules.finding) ->
      Check.violation ctx ~severity:f.severity ~id:f.rule
        (Printf.sprintf "%s:%d: %s" f.file f.line f.message))
    t.findings;
  List.iter
    (fun (id, _) ->
      let clean =
        not
          (List.exists (fun (f : Lint.Rules.finding) -> f.rule = id) t.findings)
      in
      if clean then Check.rule ctx ~id true (fun () -> ""))
    Dom_rules.catalogue;
  Check.report ctx

let finding_to_json ?reason (f : Lint.Rules.finding) =
  let fields =
    [
      ("rule", Obs.Json.Str f.rule);
      ( "severity",
        Obs.Json.Str (Format.asprintf "%a" Check.pp_severity f.severity) );
      ("file", Obs.Json.Str f.file);
      ("line", Obs.Json.Int f.line);
      ("col", Obs.Json.Int f.col);
      ("message", Obs.Json.Str f.message);
    ]
  in
  let fields =
    match reason with
    | None -> fields
    | Some r -> fields @ [ ("reason", Obs.Json.Str r) ]
  in
  Obs.Json.Obj fields

let to_json t =
  Obs.Json.Obj
    [
      ("schema", Obs.Json.Str schema_version);
      ("root", Obs.Json.Str t.root);
      ("units", Obs.Json.Int (List.length t.units));
      ("reachable_functions", Obs.Json.Int t.n_reachable);
      ( "findings",
        Obs.Json.Arr (List.map (finding_to_json ?reason:None) t.findings) );
      ( "suppressed",
        Obs.Json.Arr
          (List.map (fun (f, reason) -> finding_to_json ~reason f) t.suppressed)
      );
      ("inventory", t.inventory);
      ("effects", Effects.to_json t.effects);
    ]
