(* The domain-safety analyzer (lib/analysis_dom): every DOM rule must
   fire on its fixture at the exact line, fall silent on the compliant
   mutation, and obey the shared suppression machinery.  Each test
   writes its sources (the committed fixtures in test/fixtures/dom/ or
   inline variants) into a temp tree, compiles them with
   `ocamlc -bin-annot` the way dune would, and drives the real
   [Driver.run] over the resulting .cmt files.  Suppressions and the
   committed certificate are files in that tree too (lint.config,
   analysis/effects.json), exactly as in the repository. *)

module AD = Analysis_dom
module L = Lint
module C = Analysis_core.Check

(* Built by concatenation so the repo linter's line-based marker scan
   never sees a complete marker inside this test's own source. *)
let marker rest = "(* hyp" ^ "lint: " ^ rest ^ " *)"

let em_dash = "\xe2\x80\x94"

let read_file path = In_channel.with_open_bin path In_channel.input_all
let fixture name = read_file (Filename.concat "fixtures/dom" name)

(* ---- fixture trees ------------------------------------------------------ *)

let with_temp_tree f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hypartition_dom_%d" (Unix.getpid ()))
  in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Write a root-relative file, creating its directories. *)
let put root rel content =
  let path = Filename.concat root rel in
  mkdir_p (Filename.dirname path);
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc content)

(* Compile one unit in place, leaving its .cmt next to the source
   ([-I] finds the interface's .cmi there). *)
let compile root rel =
  let cmd =
    Printf.sprintf "cd %s && ocamlc -bin-annot -w -a -I %s -c %s 2>/dev/null"
      (Filename.quote root)
      (Filename.quote (Filename.dirname rel))
      (Filename.quote rel)
  in
  Alcotest.(check int) ("compile " ^ rel) 0 (Sys.command cmd)

(* Write [files] (root-relative path, content) into a fresh temp tree,
   compile them — interfaces first, as an implementation needs its
   .cmi — and hand the root to [f]. *)
let with_tree files f =
  with_temp_tree (fun root ->
      List.iter (fun (rel, content) -> put root rel content) files;
      let mlis, mls =
        List.partition (fun rel -> Filename.check_suffix rel ".mli")
          (List.map fst files)
      in
      List.iter (compile root) (mlis @ mls);
      f root)

let run_tree ?entries root =
  match AD.Driver.run ~root ~build_dir:root ?entries () with
  | Ok r -> r
  | Error e -> Alcotest.fail e

(* One compiled tree, one analysis.  [config] is lint.config text.
   Every unit must be analyzed: a rule that stays silent must not be
   silent because its fixture went unseen. *)
let analyze ?config ?entries files =
  with_tree files (fun root ->
      Option.iter (put root "lint.config") config;
      let r = run_tree ?entries root in
      Alcotest.(check int)
        "every unit analyzed"
        (List.length
           (List.filter (fun (p, _) -> Filename.check_suffix p ".ml") files))
        (List.length r.AD.Driver.units);
      r)

let find_all ~rule (r : AD.Driver.result) =
  List.filter (fun (f : L.Rules.finding) -> String.equal f.rule rule) r.findings

let fires ~rule ~file ~line (r : AD.Driver.result) =
  List.exists
    (fun (f : L.Rules.finding) ->
      String.equal f.rule rule && String.equal f.file file && f.line = line)
    r.findings

let check_fires name ~rule ~file ~line r =
  if not (fires ~rule ~file ~line r) then
    Alcotest.failf "%s: expected %s at %s:%d, report was\n%s" name rule file
      line
      (C.to_string (AD.Driver.report r))

let check_silent name ~rule r =
  match find_all ~rule r with
  | [] -> ()
  | f :: _ ->
      Alcotest.failf "%s: unexpected %s at %s:%d" name rule f.L.Rules.file
        f.L.Rules.line

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub hay i nn = needle || go (i + 1))
  in
  nn > 0 && go 0

(* ---- catalogue and the shared --rules renderer -------------------------- *)

let test_catalogue () =
  Alcotest.(check (list string))
    "stable rule ids"
    [
      "DOM00"; "DOM01"; "DOM02"; "DOM03"; "DOM04"; "DOM05"; "DOM06"; "DOM07";
      "DOM08"; "DOM09"; "DOM11";
    ]
    (List.map fst AD.Dom_rules.catalogue);
  (* one renderer for both tools: every id of either catalogue appears
     in its rendering, formatted identically *)
  let dom = L.Rules.render_catalogue AD.Dom_rules.catalogue in
  let src = L.Rules.render_catalogue L.catalogue in
  List.iter
    (fun (id, _) ->
      Alcotest.(check bool) (id ^ " rendered") true (contains dom (id ^ " ")))
    AD.Dom_rules.catalogue;
  List.iter
    (fun (id, _) ->
      Alcotest.(check bool) (id ^ " rendered") true (contains src (id ^ " ")))
    L.catalogue;
  (* every rendered line carries the introducing PR (the since column) *)
  List.iter
    (fun (id, _) ->
      Alcotest.(check bool)
        (id ^ " has since") true
        (contains dom (Printf.sprintf "%-8s %-6s" id (L.Rules.since id))))
    AD.Dom_rules.catalogue;
  Alcotest.(check string) "DOM01 since" "PR6" (L.Rules.since "DOM01");
  Alcotest.(check string) "DOM11 since" "PR8" (L.Rules.since "DOM11")

(* ---- DOM01: hot module-global mutable ----------------------------------- *)

let entries_for m = [ (m, "*") ]

let test_dom01 () =
  let path = "lib/x/dom01_hot_ref.ml" in
  let files = [ (path, fixture "dom01_hot_ref.ml"); (path ^ "i", "") ] in
  let r = analyze ~entries:(entries_for "Dom01_hot_ref") files in
  check_fires "hot ref" ~rule:"DOM01" ~file:path ~line:4 r;
  (* compliant mutation: the same state behind Atomic *)
  let ok =
    "let hits = Atomic.make 0\n\
     let solve x =\n\
    \  Atomic.incr hits;\n\
    \  x + Atomic.get hits\n"
  in
  let r =
    analyze
      ~entries:(entries_for "Dom01_hot_ref")
      [ (path, ok); (path ^ "i", "") ]
  in
  check_silent "atomic is safe" ~rule:"DOM01" r;
  (* cold mutation: the global exists but no hot function touches it *)
  let cold = "let hits = ref 0\n" in
  let r =
    analyze
      ~entries:(entries_for "Dom01_hot_ref")
      [ (path, cold); (path ^ "i", "") ]
  in
  check_silent "cold global is inventory-only" ~rule:"DOM01" r

(* ---- DOM02: Workspace ownership/escape ---------------------------------- *)

let test_dom02 () =
  let path = "lib/x/dom02_workspace_escape.ml" in
  let files = [ (path, fixture "dom02_workspace_escape.ml"); (path ^ "i", "") ] in
  let r = analyze ~entries:(entries_for "Dom02_workspace_escape") files in
  check_fires "escape via :=" ~rule:"DOM02" ~file:path ~line:12 r;
  (* a module-global Workspace binding is an escape in itself *)
  let global =
    "module Workspace = struct\n\
    \  type t = { mutable marks : int array }\n\n\
    \  let create n = { marks = Array.make n 0 }\n\
     end\n\n\
     let shared = Workspace.create 8\n"
  in
  let r =
    analyze
      ~entries:(entries_for "Dom02_workspace_escape")
      [ (path, global); (path ^ "i", "") ]
  in
  check_fires "module-global workspace" ~rule:"DOM02" ~file:path ~line:7 r;
  (* compliant: created, used, dropped inside the solve *)
  let ok =
    "module Workspace = struct\n\
    \  type t = { mutable marks : int array }\n\n\
    \  let create n = { marks = Array.make n 0 }\n\
     end\n\n\
     let solve n =\n\
    \  let ws = Workspace.create n in\n\
    \  Array.length ws.Workspace.marks\n"
  in
  let r =
    analyze
      ~entries:(entries_for "Dom02_workspace_escape")
      [ (path, ok); (path ^ "i", "") ]
  in
  check_silent "confined workspace" ~rule:"DOM02" r

(* ---- DOM03: shared PRNG state ------------------------------------------- *)

let test_dom03 () =
  let path = "lib/x/dom03_global_random.ml" in
  let files = [ (path, fixture "dom03_global_random.ml"); (path ^ "i", "") ] in
  let r = analyze files in
  check_fires "global Random" ~rule:"DOM03" ~file:path ~line:3 r;
  (* a module-global Rng is shared state even without Random.* calls *)
  let global_rng =
    "module Rng = struct\n\
    \  type t = int ref\n\n\
    \  let create s : t = ref s\n\
     end\n\n\
     let default = Rng.create 1\n"
  in
  let r = analyze [ (path, global_rng); (path ^ "i", "") ] in
  check_fires "module-global rng" ~rule:"DOM03" ~file:path ~line:7 r;
  (* compliant: explicit state threading *)
  let ok = "let jitter state n = n + (state mod 3)\n" in
  let r = analyze [ (path, ok); (path ^ "i", "") ] in
  check_silent "explicit state" ~rule:"DOM03" r;
  (* bench/ may seed however it likes — the rule covers lib/ only *)
  let r = analyze [ ("bench/x.ml", fixture "dom03_global_random.ml") ] in
  check_silent "bench exempt" ~rule:"DOM03" r

(* ---- DOM04: per-event obs emission in a hot loop ------------------------ *)

let test_dom04 () =
  let path = "lib/x/dom04_loop_emit.ml" in
  let files = [ (path, fixture "dom04_loop_emit.ml"); (path ^ "i", "") ] in
  let r = analyze ~entries:(entries_for "Dom04_loop_emit") files in
  check_fires "incr in loop" ~rule:"DOM04" ~file:path ~line:14 r;
  (* compliant: local accumulator, one flush after the loop *)
  let ok =
    "module Counter = struct\n\
    \  let incr _ = ()\n\n\
    \  let add _ _ = ()\n\
     end\n\n\
     let c_steps = 0\n\n\
     let walk n =\n\
    \  let steps = ref 0 in\n\
    \  for _ = 1 to n do\n\
    \    incr steps\n\
    \  done;\n\
    \  Counter.add c_steps !steps\n"
  in
  let r =
    analyze ~entries:(entries_for "Dom04_loop_emit")
      [ (path, ok); (path ^ "i", "") ]
  in
  check_silent "batched flush" ~rule:"DOM04" r;
  (* a cold function may emit per-event (the engine pool does) *)
  let r = analyze ~entries:[ ("Elsewhere", "*") ] files in
  check_silent "cold emitter" ~rule:"DOM04" r

(* ---- DOM05: toplevel Hashtbl in a hot-path module ----------------------- *)

let test_dom05 () =
  let hot_path = "lib/solvers/dom05_toplevel_hashtbl.ml" in
  let src = fixture "dom05_toplevel_hashtbl.ml" in
  let r =
    analyze
      ~entries:(entries_for "Dom05_toplevel_hashtbl")
      [ (hot_path, src); (hot_path ^ "i", "") ]
  in
  check_fires "hashtbl in solvers" ~rule:"DOM05" ~file:hot_path ~line:4 r;
  check_silent "DOM05 subsumes DOM01 here" ~rule:"DOM01" r;
  (* the same module outside the hot directories is DOM01 territory *)
  let cold_path = "lib/x/dom05_toplevel_hashtbl.ml" in
  let r =
    analyze
      ~entries:(entries_for "Dom05_toplevel_hashtbl")
      [ (cold_path, src); (cold_path ^ "i", "") ]
  in
  check_silent "not a hot dir" ~rule:"DOM05" r;
  check_fires "plain DOM01 instead" ~rule:"DOM01" ~file:cold_path ~line:4 r

(* ---- DOM06: mutable globals without a sealing .mli ---------------------- *)

let test_dom06 () =
  let path = "lib/x/dom06_unsealed.ml" in
  let src = fixture "dom06_unsealed.ml" in
  let r = analyze [ (path, src) ] in
  check_fires "unsealed" ~rule:"DOM06" ~file:path ~line:3 r;
  let r = analyze [ (path, src); (path ^ "i", "val total : int ref\n") ] in
  check_silent "sealed" ~rule:"DOM06" r

(* ---- DOM07: shared-mutating function on the hot path -------------------- *)

let test_dom07 () =
  let path = "lib/x/dom07_shared_writer.ml" in
  let files = [ (path, fixture "dom07_shared_writer.ml"); (path ^ "i", "") ] in
  let r = analyze ~entries:(entries_for "Dom07_shared_writer") files in
  (* the finding lands on the leaf writer, not on every caller *)
  check_fires "leaf writer" ~rule:"DOM07" ~file:path ~line:6 r;
  Alcotest.(check int) "exactly one DOM07" 1 (List.length (find_all ~rule:"DOM07" r));
  (* the effect analysis classified both functions and built the chain *)
  (match AD.Effects.find r.AD.Driver.effects "Dom07_shared_writer.solve" with
  | None -> Alcotest.fail "solve not in the effect table"
  | Some i ->
      Alcotest.(check string)
        "caller classified" "shared_mutating"
        (AD.Effects.classification_to_string i.AD.Effects.e_class);
      Alcotest.(check bool)
        "caller is not a direct writer" true
        (i.AD.Effects.e_direct_writes = []));
  (* the --effects witness names the minimal chain to the leaf *)
  let w = AD.Effects.render_witnesses r.AD.Driver.effects in
  Alcotest.(check bool)
    "witness chain" true
    (contains w
       "writes Dom07_shared_writer.total via Dom07_shared_writer.solve -> \
        Dom07_shared_writer.note");
  (* compliant: the accumulator threads through, nothing global *)
  let ok = "let note acc n = acc + n\n\nlet solve x = note 0 x\n" in
  let r =
    analyze
      ~entries:(entries_for "Dom07_shared_writer")
      [ (path, ok); (path ^ "i", "") ]
  in
  check_silent "threaded accumulator" ~rule:"DOM07" r;
  (* cold writer: same body, no entry point reaches it *)
  let r = analyze ~entries:[ ("Elsewhere", "*") ] files in
  check_silent "cold writer" ~rule:"DOM07" r

(* ---- DOM08: Workspace interior escaping --------------------------------- *)

let test_dom08 () =
  let path = "lib/x/dom08_ws_interior.ml" in
  let files = [ (path, fixture "dom08_ws_interior.ml"); (path ^ "i", "") ] in
  let r = analyze ~entries:(entries_for "Dom08_ws_interior") files in
  check_fires "interior store" ~rule:"DOM08" ~file:path ~line:13 r;
  (* compliant: the projection is used and dropped inside the solve *)
  let ok =
    "module Workspace = struct\n\
    \  type t = { mutable marks : int array }\n\n\
    \  let create n = { marks = Array.make n 0 }\n\
     end\n\n\
     let solve (ws : Workspace.t) n =\n\
    \  Array.length ws.Workspace.marks + n\n"
  in
  let r =
    analyze
      ~entries:(entries_for "Dom08_ws_interior")
      [ (path, ok); (path ^ "i", "") ]
  in
  check_silent "confined projection" ~rule:"DOM08" r

(* ---- DOM11: certificate staleness --------------------------------------- *)

let cert_of (r : AD.Driver.result) =
  AD.Inventory.render (AD.Effects.to_json r.AD.Driver.effects)

let test_dom11 () =
  let path = "lib/x/dom07_shared_writer.ml" in
  let files = [ (path, fixture "dom07_shared_writer.ml"); (path ^ "i", "") ] in
  let entries = entries_for "Dom07_shared_writer" in
  with_tree files (fun root ->
      let fresh = cert_of (run_tree ~entries root) in
      let with_certificate ?config cert =
        put root "analysis/effects.json" cert;
        Option.iter (put root "lint.config") config;
        run_tree ~entries root
      in
      (* a fresh certificate passes *)
      let r = with_certificate fresh in
      check_silent "fresh certificate" ~rule:"DOM11" r;
      (* flipping a certified classification is one stale entry *)
      let replace ~needle ~by hay =
        let nh = String.length hay and nn = String.length needle in
        let buf = Buffer.create nh in
        let i = ref 0 in
        while !i < nh do
          if !i + nn <= nh && String.sub hay !i nn = needle then begin
            Buffer.add_string buf by;
            i := !i + nn
          end
          else begin
            Buffer.add_char buf hay.[!i];
            incr i
          end
        done;
        Buffer.contents buf
      in
      let stale =
        replace
          ~needle:"\"classification\": \"shared_mutating\""
          ~by:"\"classification\": \"pure\"" fresh
      in
      let r = with_certificate stale in
      check_fires "stale entry" ~rule:"DOM11" ~file:"analysis/effects.json"
        ~line:1 r;
      (* an unparseable document is a single finding, not a crash *)
      let r = with_certificate "{ nope" in
      Alcotest.(check int) "one parse finding" 1
        (List.length (find_all ~rule:"DOM11" r));
      (* DOM11 obeys the shared suppression machinery *)
      let config =
        "allow DOM11 analysis/effects.json " ^ em_dash
        ^ " regenerating in this same PR\n"
      in
      Alcotest.(check int)
        "config parses" 0
        (List.length (snd (L.Suppress.parse_config config)));
      let r = with_certificate ~config stale in
      check_silent "suppressed staleness" ~rule:"DOM11" r;
      Alcotest.(check bool)
        "reason recorded" true
        (List.exists
           (fun ((f : L.Rules.finding), reason) ->
             f.rule = "DOM11" && reason = "regenerating in this same PR")
           r.AD.Driver.suppressed))

(* ---- DOM00 and suppression ---------------------------------------------- *)

(* A source no .cmt covers is a hard error naming the build step that
   produces the coverage; the covered sibling is analyzed as usual, and
   the certificate is not compared against the partial program. *)
let test_dom00_missing_cmt () =
  let covered = "lib/x/covered.ml" and missing = "lib/x/missing.ml" in
  with_tree [ (covered, "let x = 1\n"); (covered ^ "i", "") ] (fun root ->
      put root missing "let y = 2\n";
      put root "analysis/effects.json" "{ nope";
      let r = run_tree root in
      check_silent "no certificate check on partial coverage" ~rule:"DOM11" r;
      (match find_all ~rule:"DOM00" r with
      | [ f ] ->
          Alcotest.(check string) "names the uncovered file" missing
            f.L.Rules.file;
          Alcotest.(check bool)
            "an error, not a warning" true
            (f.L.Rules.severity = C.Error);
          Alcotest.(check bool)
            "names the build step" true
            (contains f.L.Rules.message "dune build @check")
      | l -> Alcotest.failf "expected one DOM00, got %d" (List.length l));
      Alcotest.(check (list string))
        "only the covered unit is analyzed" [ covered ]
        (List.map (fun (u : AD.Ir.unit_ir) -> u.AD.Ir.u_file) r.AD.Driver.units);
      Alcotest.(check int)
        "the gate fails" 1
        (C.exit_code (AD.Driver.report r)))

(* A source edited after its .cmt was built must not be analyzed as the
   old code: the digest recorded in the .cmt no longer matches. *)
let test_dom00_stale_cmt () =
  let path = "lib/x/coarsen.ml" in
  let src = "let step n = n + 1\n" in
  with_tree [ (path, src); (path ^ "i", "") ] (fun root ->
      check_silent "fresh .cmt" ~rule:"DOM00" (run_tree root);
      put root path (src ^ "let jitter n = Random.int n\n");
      let r = run_tree root in
      check_fires "edited after the build" ~rule:"DOM00" ~file:path ~line:1 r;
      (match find_all ~rule:"DOM00" r with
      | [ f ] ->
          Alcotest.(check bool)
            "an error" true
            (f.L.Rules.severity = C.Error);
          Alcotest.(check bool)
            "names the build step" true
            (contains f.L.Rules.message "dune build @check")
      | l -> Alcotest.failf "expected one DOM00, got %d" (List.length l));
      check_silent "old code not analyzed" ~rule:"DOM03" r)

let test_suppression () =
  let path = "lib/x/dom01_hot_ref.ml" in
  let body = fixture "dom01_hot_ref.ml" in
  (* inline marker directly above the flagged line *)
  let with_marker =
    let lines = String.split_on_char '\n' body in
    let rec inject = function
      | [] -> []
      | l :: rest ->
          if String.length l >= 7 && String.sub l 0 7 = "let hit" then
            (marker ("allow DOM01 " ^ em_dash ^ " single-domain test gate"))
            :: l :: rest
          else l :: inject rest
    in
    String.concat "\n" (inject lines)
  in
  let r =
    analyze
      ~entries:(entries_for "Dom01_hot_ref")
      [ (path, with_marker); (path ^ "i", "") ]
  in
  check_silent "marker suppresses" ~rule:"DOM01" r;
  (match r.AD.Driver.suppressed with
  | [ (f, reason) ] ->
      Alcotest.(check string) "rule" "DOM01" f.L.Rules.rule;
      Alcotest.(check string) "reason" "single-domain test gate" reason
  | l -> Alcotest.failf "expected one suppressed finding, got %d" (List.length l));
  (* lint.config entry with a reason *)
  let config =
    "allow DOM01 lib/x " ^ em_dash ^ " confined by the test harness\n"
  in
  Alcotest.(check int)
    "config parses" 0
    (List.length (snd (L.Suppress.parse_config config)));
  let r =
    analyze ~config
      ~entries:(entries_for "Dom01_hot_ref")
      [ (path, body); (path ^ "i", "") ]
  in
  check_silent "config suppresses" ~rule:"DOM01" r;
  Alcotest.(check int) "suppressed recorded" 1 (List.length r.AD.Driver.suppressed)

let test_stale_dom_marker () =
  let path = "lib/x/clean.ml" in
  let src =
    marker ("allow DOM01 " ^ em_dash ^ " nothing here anymore") ^ "\nlet x = 1\n"
  in
  let r = analyze [ (path, src); (path ^ "i", "") ] in
  check_fires "stale DOM marker" ~rule:"DOM00" ~file:path ~line:1 r;
  (* an unused SRC-only marker is hyplint's to police, not ours *)
  let src =
    marker ("allow SRC03 " ^ em_dash ^ " printing moved away") ^ "\nlet x = 1\n"
  in
  let r = analyze [ (path, src); (path ^ "i", "") ] in
  check_silent "SRC markers not ours" ~rule:"DOM00" r

(* The mirror image: hyplint must not flag unused DOM-only markers as
   stale SRC00 — those belong to the analyzer. *)
let test_lint_ignores_dom_markers () =
  let path = "lib/x/clean.ml" in
  let src =
    marker ("allow DOM01 " ^ em_dash ^ " analyzer-owned suppression")
    ^ "\nlet x = 1\n"
  in
  let r =
    L.Engine.lint_sources ~root:"." [ (path, src); (path ^ "i", "") ]
  in
  let src00 =
    List.filter
      (fun (f : L.Rules.finding) -> String.equal f.rule "SRC00")
      r.L.Engine.findings
  in
  Alcotest.(check int) "no SRC00 for DOM markers" 0 (List.length src00)

(* ---- determinism -------------------------------------------------------- *)

let test_determinism () =
  let files =
    [
      ("lib/x/dom01_hot_ref.ml", fixture "dom01_hot_ref.ml");
      ("lib/x/dom02_workspace_escape.ml", fixture "dom02_workspace_escape.ml");
      ("lib/x/dom03_global_random.ml", fixture "dom03_global_random.ml");
      ("lib/solvers/dom05_toplevel_hashtbl.ml", fixture "dom05_toplevel_hashtbl.ml");
    ]
  in
  (* one tree analyzed twice, so the [root] fields agree too *)
  let (j1, i1, c1), (j2, i2, c2) =
    with_tree files (fun root ->
        let run () =
          let r = run_tree ~entries:(entries_for "Dom01_hot_ref") root in
          ( Obs.Json.to_string (AD.Driver.to_json r),
            AD.Inventory.render r.inventory,
            cert_of r )
        in
        let first = run () in
        (first, run ()))
  in
  Alcotest.(check string) "analyze --json byte-match" j1 j2;
  Alcotest.(check string) "inventory byte-match" i1 i2;
  Alcotest.(check string) "effects certificate byte-match" c1 c2;
  (* the pretty renderings parse back *)
  (match Obs.Json.parse i1 with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "inventory does not re-parse: %s" e);
  match Obs.Json.parse c1 with
  | Ok j ->
      let schema =
        Option.bind (Obs.Json.member "schema" j) Obs.Json.get_str
      in
      Alcotest.(check (option string))
        "certificate schema"
        (Some "hypartition-effects/2") schema
  | Error e -> Alcotest.failf "certificate does not re-parse: %s" e

(* ---- the typed front, end to end over real .cmt files ------------------- *)

let typed_fixture_main =
  "type counter = { mutable n : int }\n\n\
   type t = counter\n\n\
   let c : t = { n = 0 }\n\n\
   let bump () = c.n <- c.n + 1\n"

let typed_fixture_ws =
  "module Workspace = struct\n\
  \  type t = { mutable marks : int array }\n\n\
  \  let create n = { marks = Array.make n 0 }\n\
   end\n\n\
   let acquire n = Workspace.create n\n"

(* [fetch]'s only effect is an unanalyzed external (Sys.getenv): under
   the typed front that is DOM09, an error; [pick] stays pure through
   the benign allowlist (String.length). *)
let typed_fixture_ext =
  "let fetch name = Sys.getenv name\n\nlet pick s = String.length s\n"

let test_typed_front () =
  let files =
    [
      ("lib/fix/dom_typed.ml", typed_fixture_main);
      ("lib/fix/dom_typed_ws.ml", typed_fixture_ws);
      ("lib/fix/dom_typed_ext.ml", typed_fixture_ext);
    ]
  in
  let r =
    analyze
      ~entries:
        [ ("Dom_typed", "*"); ("Dom_typed_ws", "*"); ("Dom_typed_ext", "*") ]
      files
  in
  Alcotest.(check int) "all units analyzed" 3 (List.length r.AD.Driver.units);
  check_silent "full .cmt coverage" ~rule:"DOM00" r;
  (* the harvest saw through the `t = counter` alias to the mutable
     record — classification no syntax pass can make *)
  check_fires "DOM01 via harvest" ~rule:"DOM01" ~file:"lib/fix/dom_typed.ml"
    ~line:5 r;
  (* the principal type of [acquire] mentions Workspace.t even though
     the source never writes the type *)
  check_fires "DOM02 via inferred return type" ~rule:"DOM02"
    ~file:"lib/fix/dom_typed_ws.ml" ~line:7 r;
  (* unsealed units with unsafe globals: DOM06 from the cmt *)
  check_fires "DOM06 from typed unit" ~rule:"DOM06"
    ~file:"lib/fix/dom_typed.ml" ~line:5 r;
  (* an unanalyzed external widens its caller: DOM09, an error *)
  check_fires "DOM09 from typed unit" ~rule:"DOM09"
    ~file:"lib/fix/dom_typed_ext.ml" ~line:1 r;
  (match find_all ~rule:"DOM09" r with
  | [ f ] ->
      Alcotest.(check bool)
        "DOM09 is an error" true
        (f.L.Rules.severity = C.Error);
      Alcotest.(check bool)
        "DOM09 names the external" true
        (contains f.L.Rules.message "Sys.getenv")
  | l -> Alcotest.failf "expected one DOM09, got %d" (List.length l));
  (* the benign allowlist keeps the sibling pure *)
  match AD.Effects.find r.AD.Driver.effects "Dom_typed_ext.pick" with
  | Some i ->
      Alcotest.(check string)
        "pick stays pure" "pure"
        (AD.Effects.classification_to_string i.AD.Effects.e_class)
  | None -> Alcotest.fail "pick not in the effect table"

(* ---- docs stay in sync with both catalogues ----------------------------- *)

let test_docs_in_sync () =
  let readme = read_file "../README.md" in
  let design = read_file "../DESIGN.md" in
  List.iter
    (fun (id, _) ->
      Alcotest.(check bool) ("README mentions " ^ id) true (contains readme id);
      Alcotest.(check bool) ("DESIGN mentions " ^ id) true (contains design id))
    (L.catalogue @ AD.Dom_rules.catalogue)

let suite =
  [
    Alcotest.test_case "catalogue + shared renderer" `Quick test_catalogue;
    Alcotest.test_case "DOM01 hot mutable global" `Quick test_dom01;
    Alcotest.test_case "DOM02 workspace escape" `Quick test_dom02;
    Alcotest.test_case "DOM03 shared PRNG" `Quick test_dom03;
    Alcotest.test_case "DOM04 loop emission" `Quick test_dom04;
    Alcotest.test_case "DOM05 hot-dir hashtbl" `Quick test_dom05;
    Alcotest.test_case "DOM06 unsealed mutable" `Quick test_dom06;
    Alcotest.test_case "DOM07 hot shared writer" `Quick test_dom07;
    Alcotest.test_case "DOM08 workspace interior escape" `Quick test_dom08;
    Alcotest.test_case "DOM11 certificate staleness" `Quick test_dom11;
    Alcotest.test_case "DOM00 missing .cmt" `Quick test_dom00_missing_cmt;
    Alcotest.test_case "DOM00 stale .cmt" `Quick test_dom00_stale_cmt;
    Alcotest.test_case "suppression with reasons" `Quick test_suppression;
    Alcotest.test_case "stale DOM markers" `Quick test_stale_dom_marker;
    Alcotest.test_case "lint ignores DOM markers" `Quick
      test_lint_ignores_dom_markers;
    Alcotest.test_case "JSON determinism" `Quick test_determinism;
    Alcotest.test_case "typed front end-to-end" `Quick test_typed_front;
    Alcotest.test_case "docs in sync" `Quick test_docs_in_sync;
  ]
