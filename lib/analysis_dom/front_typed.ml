(* The typed front of the domain-safety analyzer: lower a compiler
   [.cmt] file (compiler-libs [Cmt_format] + [Typedtree]) to
   {!Ir.unit_ir}.

   Working on the typed tree buys exactly what the Parsetree cannot
   give: resolved paths (a reference to [Workspace.next_stamp] is
   [Solvers__Workspace.next_stamp], not whatever was in scope), and
   principal types for every binding — so a module-level value of type
   [Obs.Counter.t] is recognized as a mutable record through two layers
   of abstraction, without heuristics on the initializer expression.

   Two passes:

   1. {!harvest} walks every loaded unit's type declarations and
      computes the repo-wide set of known-mutable type names: records
      with [mutable] fields, plus aliases resolved to a fixpoint
      ([Obs.Counter.t] = [Obs.counter] = a mutable record;
      [Rng.t] = [Random.State.t]).
   2. {!extract} lowers one unit against that knowledge: module-level
      bindings are classified by their type, toplevel functions get
      their referenced globals recorded (bare [Pident]s are matched
      against the unit's own toplevel idents by stamp, so locals never
      alias a global), and the ownership checks (Workspace/Rng escapes,
      in-loop obs emission) run over each function body. *)

module I = Ir

(* ---- name normalization ------------------------------------------------- *)

(* Compiler paths arrive mangled by dune's module-name prefixing:
   ["Solvers__Refine.best_move"], ["Solvers__.Pin_counts.t"],
   ["Stdlib.ref"].  Normalization makes them comparable across units:
   drop alias-root components (trailing "__"), unprefix
   "Lib__Module" to "Module", and strip a leading "Stdlib". *)

let split_on_string ~sep s =
  let seplen = String.length sep and n = String.length s in
  let rec go start i acc =
    if i + seplen > n then List.rev (String.sub s start (n - start) :: acc)
    else if String.sub s i seplen = sep then
      go (i + seplen) (i + seplen) (String.sub s start (i - start) :: acc)
    else go start (i + 1) acc
  in
  if seplen = 0 then [ s ] else go 0 0 []

let normalize_component comp =
  if String.length comp >= 2 && String.ends_with ~suffix:"__" comp then None
  else
    match List.rev (split_on_string ~sep:"__" comp) with
    | last :: _ :: _ when last <> "" -> Some last
    | _ -> Some comp

let normalize_path name =
  let comps = String.split_on_char '.' name in
  let comps = List.filter_map normalize_component comps in
  let comps =
    match comps with
    | "Stdlib" :: (_ :: _ as rest) -> rest
    | comps -> comps
  in
  String.concat "." comps

(* "Solvers__Refine" -> "Refine"; "Dune__exe__Main" -> "Main". *)
let module_of_unit name =
  match normalize_component name with Some m -> m | None -> name

(* Suffix match on dotted paths: [ends_with_path "Workspace.t"] accepts
   "Workspace.t" and "Solvers.Workspace.t" but not "Xworkspace.t". *)
let ends_with_path ~suffix name =
  name = suffix
  || String.ends_with ~suffix:("." ^ suffix) name

(* Name-based kind classification: given a normalized type-constructor
   path, the kinds recognizable without any type environment.  Ownership kinds (Workspace/Rng/obs handles) match
   by dotted suffix so that fixture modules defining their own
   [Workspace.t] classify like the real one.  Everything else —
   repo-defined mutable records, aliases — is the {!harvest} pass. *)
let classify_name name : I.kind option =
  if ends_with_path ~suffix:"Workspace.t" name then Some I.Workspace
  else if
    ends_with_path ~suffix:"Rng.t" name
    || ends_with_path ~suffix:"Random.State.t" name
  then Some I.Rng
  else if
    ends_with_path ~suffix:"Counter.t" name
    || ends_with_path ~suffix:"Gauge.t" name
    || ends_with_path ~suffix:"Histogram.t" name
  then Some I.Obs_handle
  else if ends_with_path ~suffix:"Atomic.t" name then Some I.Atomic
  else if
    ends_with_path ~suffix:"Mutex.t" name
    || ends_with_path ~suffix:"Semaphore.Counting.t" name
    || ends_with_path ~suffix:"Semaphore.Binary.t" name
  then Some I.Mutex
  else if name = "ref" then Some I.Ref
  else if name = "array" || name = "floatarray" || ends_with_path ~suffix:"Floatarray.t" name
  then Some I.Array
  else if name = "bytes" || ends_with_path ~suffix:"Bytes.t" name then Some I.Bytes
  else if ends_with_path ~suffix:"Hashtbl.t" name then Some I.Hashtbl_poly
  else if name = "lazy_t" || ends_with_path ~suffix:"Lazy.t" name then Some I.Lazy
  else if
    ends_with_path ~suffix:"Queue.t" name
    || ends_with_path ~suffix:"Stack.t" name
    || ends_with_path ~suffix:"Buffer.t" name
  then Some I.Container
  else None

(* A container (tuple, option, list, ...) of a mutable value is itself
   shared mutable state; ownership kinds and the safe kinds keep their
   identity through the shell so the rules still see them. *)
let container_of = function
  | (I.Workspace | I.Rng | I.Atomic | I.Mutex | I.Obs_handle) as k -> k
  | _ -> I.Container

let kind_is_safe = function I.Atomic | I.Mutex -> true | _ -> false

(* ---- shared name predicates ---------------------------------------------- *)

(* Per-event obs emission entry points (the batched-flush contract says
   hot loops accumulate into plain ints and flush once per pass with
   [Counter.add]). *)
let obs_emit_name name =
  ends_with_path ~suffix:"Counter.incr" name
  || ends_with_path ~suffix:"Histogram.observe" name
  || ends_with_path ~suffix:"Histogram.observe_int" name
  || ends_with_path ~suffix:"Gauge.set" name

(* The stdlib's implicit-state PRNG entry points (excludes the explicit
   [Random.State.*] API, which normalizes to "Random.State.<fn>"). *)
let random_global_name name =
  match name with
  | "Random.bits" | "Random.int" | "Random.int32" | "Random.int64"
  | "Random.nativeint" | "Random.float" | "Random.bool" | "Random.full_int"
  | "Random.self_init" | "Random.init" | "Random.full_init"
  | "Random.set_state" | "Random.get_state" ->
      true
  | _ -> false

(* Callback-taking iteration functions, as in hyplint's SRC02: a function
   literal passed to one of these runs once per element, so it counts as
   a loop body for DOM04. *)
let is_iterish name =
  let last =
    match List.rev (String.split_on_char '.' name) with
    | last :: _ -> last
    | [] -> name
  in
  List.mem last
    [
      "iter"; "iteri"; "iter2"; "map"; "mapi"; "map2"; "rev_map";
      "concat_map"; "filter_map"; "filter"; "find"; "find_opt"; "find_map";
      "exists"; "for_all"; "partition"; "fold_left"; "fold_right"; "fold";
      "init"; "sort"; "sort_uniq"; "stable_sort";
    ]
  || String.starts_with ~prefix:"iter_" last
  || String.starts_with ~prefix:"fold_" last

(* Store operations whose first argument is the stored-into subject and
   which retain the stored value: [Hashtbl.add tbl k v] with [tbl] a
   module global makes [v] module state — escape material. *)
let is_store_fn name =
  ends_with_path ~suffix:"Hashtbl.add" name
  || ends_with_path ~suffix:"Hashtbl.replace" name
  || ends_with_path ~suffix:"Queue.add" name
  || ends_with_path ~suffix:"Queue.push" name
  || ends_with_path ~suffix:"Stack.push" name

(* The wider set for the effect analysis: calls that mutate their first
   argument without necessarily retaining anything.  A call whose subject
   is a module global is a write to it; on a local/parameter it is the
   Workspace-local shape. *)
let mutates_subject_fn name =
  is_store_fn name || name = "incr" || name = "decr"
  || ends_with_path ~suffix:"Hashtbl.remove" name
  || ends_with_path ~suffix:"Hashtbl.clear" name
  || ends_with_path ~suffix:"Hashtbl.reset" name
  || ends_with_path ~suffix:"Hashtbl.filter_map_inplace" name
  || ends_with_path ~suffix:"Array.set" name
  || ends_with_path ~suffix:"Array.fill" name
  || ends_with_path ~suffix:"Array.blit" name
  || ends_with_path ~suffix:"Array.sort" name
  || ends_with_path ~suffix:"Array.fast_sort" name
  || ends_with_path ~suffix:"Array.stable_sort" name
  || ends_with_path ~suffix:"Bytes.set" name
  || ends_with_path ~suffix:"Bytes.fill" name
  || ends_with_path ~suffix:"Bytes.blit" name
  || ends_with_path ~suffix:"Queue.pop" name
  || ends_with_path ~suffix:"Queue.take" name
  || ends_with_path ~suffix:"Queue.clear" name
  || ends_with_path ~suffix:"Stack.pop" name
  || ends_with_path ~suffix:"Stack.clear" name
  || ends_with_path ~suffix:"Buffer.clear" name
  || ends_with_path ~suffix:"Buffer.reset" name
  || String.starts_with ~prefix:"Buffer.add_" name

type typed_unit = {
  tu_modname : string;  (* raw compilation-unit name, e.g. "Solvers__Refine" *)
  tu_source : string;  (* root-relative source path recorded in the cmt *)
  tu_digest : Digest.t option;  (* digest of the source the cmt was built from *)
  tu_str : Typedtree.structure;
}

type known = (string, unit) Hashtbl.t

(* Read one [.cmt]; [None] for interfaces, packs, partial trees, version
   mismatches or alias-only units (dune's "Lib__" roots). *)
let read_cmt path =
  match Cmt_format.read_cmt path with
  | { Cmt_format.cmt_annots = Cmt_format.Implementation str;
      cmt_modname;
      cmt_sourcefile = Some src;
      cmt_source_digest;
      _;
    }
    when not (String.ends_with ~suffix:"__" cmt_modname) ->
      Some
        {
          tu_modname = cmt_modname;
          tu_source = src;
          tu_digest = cmt_source_digest;
          tu_str = str;
        }
  | _ -> None
  | exception _ -> None

(* ---- type classification ------------------------------------------------ *)

(* Recursion depth cap: type terms can be cyclic (polymorphic variants,
   recursive object types); twelve levels see through any realistic
   nesting of containers. *)
let max_type_depth = 12

let rec classify_type ~known ~ctx ?(depth = 0) (ty : Types.type_expr) :
    I.kind option =
  if depth > max_type_depth then None
  else
    match Types.get_desc ty with
    | Tconstr (p, args, _) -> (
        let name = normalize_path (Path.name p) in
        match classify_name name with
        | Some k -> Some k
        | None ->
            if known_mutable ~known ~ctx name then Some I.Mutable_record
            else
              (* an immutable shell over a mutable argument *)
              let inner =
                List.filter_map
                  (fun a -> classify_type ~known ~ctx ~depth:(depth + 1) a)
                  args
              in
              (match inner with [] -> None | k :: _ -> Some (container_of k)))
    | Ttuple ts ->
        let inner =
          List.filter_map
            (fun t -> classify_type ~known ~ctx ~depth:(depth + 1) t)
            ts
        in
        (match inner with [] -> None | k :: _ -> Some (container_of k))
    | Tpoly (t, _) -> classify_type ~known ~ctx ~depth:(depth + 1) t
    | _ -> None

(* Resolve a possibly-unqualified type name against the harvest: a bare
   [counter] inside unit [Obs] means [Obs.counter]; inside its [Counter]
   submodule it may also mean [Obs.Counter.counter].  [ctx] lists the
   candidate prefixes, innermost first. *)
and known_mutable ~known ~ctx name =
  Hashtbl.mem known name
  || List.exists (fun prefix -> Hashtbl.mem known (prefix ^ "." ^ name)) ctx

(* Does a type mention one of the ownership types anywhere (argument or
   constructor position)?  Used for escape scanning and result types. *)
let rec type_mentions ?(depth = 0) (ty : Types.type_expr) : string list =
  if depth > max_type_depth then []
  else
    match Types.get_desc ty with
    | Tconstr (p, args, _) ->
        let name = normalize_path (Path.name p) in
        let here =
          if ends_with_path ~suffix:"Workspace.t" name then [ "Workspace.t" ]
          else if
            ends_with_path ~suffix:"Rng.t" name
            || ends_with_path ~suffix:"Random.State.t" name
          then [ "Rng.t" ]
          else []
        in
        here
        @ List.concat_map (fun a -> type_mentions ~depth:(depth + 1) a) args
    | Ttuple ts -> List.concat_map (fun t -> type_mentions ~depth:(depth + 1) t) ts
    | Tarrow (_, a, b, _) ->
        type_mentions ~depth:(depth + 1) a @ type_mentions ~depth:(depth + 1) b
    | Tpoly (t, _) -> type_mentions ~depth:(depth + 1) t
    | _ -> []

let rec result_type (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Tarrow (_, _, r, _) -> result_type r
  | _ -> ty

(* Ownership mentions over the parameter positions only. *)
let rec arg_mentions (ty : Types.type_expr) =
  match Types.get_desc ty with
  | Tarrow (_, a, b, _) -> type_mentions a @ arg_mentions b
  | _ -> []

let is_arrow ty =
  match Types.get_desc ty with Tarrow _ -> true | _ -> false

let sort_uniq_strings l = List.sort_uniq String.compare l

(* ---- harvest: repo-wide mutable type names ------------------------------ *)

type decl_fact =
  | Fact_mutable of string  (* key: a record with mutable fields *)
  | Fact_alias of string * string list
      (* key, candidate names of the manifest (qualified variants first) *)

let rec pat_vars (p : Typedtree.pattern) :
    (Ident.t * Types.type_expr * Location.t) list =
  match p.pat_desc with
  | Tpat_var (id, _) -> [ (id, p.pat_type, p.pat_loc) ]
  | Tpat_alias (sub, id, _) -> (id, p.pat_type, p.pat_loc) :: pat_vars sub
  | Tpat_tuple ps -> List.concat_map pat_vars ps
  | Tpat_construct (_, _, ps, _) -> List.concat_map pat_vars ps
  | Tpat_record (fields, _) ->
      List.concat_map (fun (_, _, sub) -> pat_vars sub) fields
  | Tpat_array ps -> List.concat_map pat_vars ps
  | Tpat_or (a, b, _) -> pat_vars a @ pat_vars b
  | Tpat_lazy sub -> pat_vars sub
  | _ -> []

(* Collect type-declaration facts from one unit, tracking the submodule
   path.  [prefix] is the normalized dotted context ("Obs", then
   "Obs.Counter" inside [module Counter = struct ... end]). *)
let decl_facts tu =
  let facts = ref [] in
  let rec items prefix list = List.iter (item prefix) list
  and item prefix (it : Typedtree.structure_item) =
    match it.str_desc with
    | Tstr_type (_, decls) ->
        List.iter
          (fun (d : Typedtree.type_declaration) ->
            let key = prefix ^ "." ^ Ident.name d.typ_id in
            let mutable_record =
              match d.typ_kind with
              | Ttype_record lbls ->
                  List.exists
                    (fun (l : Typedtree.label_declaration) ->
                      l.ld_mutable = Asttypes.Mutable)
                    lbls
              | _ -> false
            in
            if mutable_record then facts := Fact_mutable key :: !facts
            else
              match d.typ_manifest with
              | Some ct -> (
                  match Types.get_desc ct.ctyp_type with
                  | Tconstr (p, _, _) ->
                      let name = normalize_path (Path.name p) in
                      (* innermost-first qualification candidates *)
                      let rec prefixes acc = function
                        | [] -> List.rev acc
                        | comps ->
                            prefixes
                              ((String.concat "." comps ^ "." ^ name) :: acc)
                              (List.rev (List.tl (List.rev comps)))
                      in
                      let cands =
                        name :: prefixes [] (String.split_on_char '.' prefix)
                      in
                      facts := Fact_alias (key, cands) :: !facts
                  | _ -> ())
              | None -> ())
          decls
    | Tstr_module mb -> module_binding prefix mb
    | Tstr_recmodule mbs -> List.iter (module_binding prefix) mbs
    | _ -> ()
  and module_binding prefix (mb : Typedtree.module_binding) =
    match mb.mb_id with
    | Some id -> module_expr (prefix ^ "." ^ Ident.name id) mb.mb_expr
    | None -> ()
  and module_expr prefix (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_structure str -> items prefix str.str_items
    | Tmod_constraint (inner, _, _, _) -> module_expr prefix inner
    | _ -> ()
  in
  items (module_of_unit tu.tu_modname) tu.tu_str.str_items;
  List.rev !facts

(* The fixpoint: a name is known-mutable if declared as a mutable record,
   if its manifest is a builtin mutable constructor, or if its manifest
   resolves to a known-mutable name.  Aliases to the safe wrappers
   ([Atomic.t]) or to ownership types do not propagate here — {!classify_name}
   already recognizes them structurally wherever they appear. *)
let harvest units =
  let known : (string, unit) Hashtbl.t = Hashtbl.create 64 in
  let facts = List.concat_map decl_facts units in
  List.iter
    (fun f -> match f with Fact_mutable key -> Hashtbl.replace known key () | _ -> ())
    facts;
  let builtin name =
    match classify_name name with
    | Some k -> (not (kind_is_safe k)) && k <> I.Obs_handle
    | None -> false
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun f ->
        match f with
        | Fact_alias (key, cands) when not (Hashtbl.mem known key) ->
            if
              List.exists
                (fun c -> builtin c || Hashtbl.mem known c)
                cands
            then begin
              Hashtbl.replace known key ();
              changed := true
            end
        | _ -> ())
      facts
  done;
  known

(* ---- per-unit extraction ------------------------------------------------ *)

let line_of (loc : Location.t) = loc.loc_start.pos_lnum
let col_of (loc : Location.t) = loc.loc_start.pos_cnum - loc.loc_start.pos_bol

let print_type ty = Format.asprintf "%a" Printtyp.type_scheme ty

let extract ~known ~has_mli tu : I.unit_ir =
  let unit_mod = module_of_unit tu.tu_modname in
  let file = tu.tu_source in
  (* Pass A: toplevel idents (stamp-exact) and their unit-local paths. *)
  let toplevel : (Ident.t * string) list ref = ref [] in
  let rec collect prefix (items : Typedtree.structure_item list) =
    List.iter
      (fun (it : Typedtree.structure_item) ->
        match it.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                List.iter
                  (fun (id, _, _) ->
                    let path =
                      match prefix with
                      | "" -> Ident.name id
                      | p -> p ^ "." ^ Ident.name id
                    in
                    toplevel := (id, path) :: !toplevel)
                  (pat_vars vb.vb_pat))
              vbs
        | Tstr_module mb -> collect_mb prefix mb
        | Tstr_recmodule mbs -> List.iter (collect_mb prefix) mbs
        | _ -> ())
      items
  and collect_mb prefix (mb : Typedtree.module_binding) =
    match mb.mb_id with
    | Some id -> (
        let sub =
          match prefix with
          | "" -> Ident.name id
          | p -> p ^ "." ^ Ident.name id
        in
        let rec descend (me : Typedtree.module_expr) =
          match me.mod_desc with
          | Tmod_structure str -> collect sub str.str_items
          | Tmod_constraint (inner, _, _, _) -> descend inner
          | _ -> ()
        in
        descend mb.mb_expr)
    | None -> ()
  in
  collect "" tu.tu_str.str_items;
  let toplevel = !toplevel in
  let toplevel_path id =
    List.find_map
      (fun (tid, path) -> if Ident.same tid id then Some path else None)
      toplevel
  in
  let ctx_prefixes prefix =
    (* innermost-first candidate prefixes for type-name resolution *)
    let rec go acc comps =
      match comps with
      | [] -> List.rev acc
      | _ ->
          go
            (String.concat "." comps :: acc)
            (List.rev (List.tl (List.rev comps)))
    in
    List.rev (go [] (String.split_on_char '.' prefix))
  in
  let globals = ref []
  and funcs = ref []
  and escapes = ref []
  and emits = ref []
  and randoms = ref [] in
  (* Is an expression a module-global location: one of this unit's
     toplevel idents, or a dotted path into another module?  When it is,
     [global_name_of] yields the qualified name the globals inventory and
     the call graph use for it. *)
  let global_name_of (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> (
        match toplevel_path id with
        | Some path -> Some (unit_mod ^ "." ^ path)
        | None -> None)
    | Texp_ident ((Path.Pdot _ as p), _, _) ->
        Some (normalize_path (Path.name p))
    | _ -> None
  in
  let is_module_global e = global_name_of e <> None in
  (* Is the mutation subject a named local or parameter (as opposed to a
     module global or a compound expression)?  The Workspace-discipline
     shape the effect analysis records as parameter-local mutation. *)
  let is_local_ident (e : Typedtree.expression) =
    match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) -> toplevel_path id = None
    | _ -> false
  in
  let owned_mentions_in (e : Typedtree.expression) =
    let acc = ref [] in
    let expr (self : Tast_iterator.iterator) (ex : Typedtree.expression) =
      (match ex.exp_desc with
      | Texp_ident (_, _, _) -> acc := type_mentions ex.exp_type @ !acc
      | Texp_field (record, _, _)
        when List.mem "Workspace.t" (type_mentions record.exp_type) -> (
          (* a mutable field projected out of a Workspace: interior
             scratch escaping its owner (DOM08 material when stored) *)
          match classify_type ~known ~ctx:[] ex.exp_type with
          | Some k when not (kind_is_safe k) ->
              acc := "Workspace interior" :: !acc
          | _ -> ())
      | _ -> ());
      Tast_iterator.default_iterator.expr self ex
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.expr it e;
    sort_uniq_strings !acc
  in
  (* Walk one function body, collecting references, writes to module
     state, parameter/local mutation, loop-context obs emissions,
     global-PRNG uses and escape stores. *)
  let walk_body ~fname (body : Typedtree.expression) =
    let refs = ref [] in
    let writes = ref [] in
    let local_mut = ref false in
    (* Resolve the mutated location to its root binding: a field chain
       [Global.state.count <- 5] writes the global at its root. *)
    let rec mutation_root (e : Typedtree.expression) =
      match e.exp_desc with
      | Texp_field (r, _, _) -> mutation_root r
      | _ -> e
    in
    let note_mutation subject =
      let root = mutation_root subject in
      match global_name_of root with
      | Some name -> writes := name :: !writes
      | None -> if is_local_ident root then local_mut := true
    in
    let loop_depth = ref 0 in
    let in_loop f =
      incr loop_depth;
      Fun.protect ~finally:(fun () -> decr loop_depth) f
    in
    let record_path p loc =
      match p with
      | Path.Pident id -> (
          match toplevel_path id with
          | Some path -> refs := (unit_mod ^ "." ^ path) :: !refs
          | None -> ())
      | _ ->
          let name = normalize_path (Path.name p) in
          refs := name :: !refs;
          if random_global_name name then
            randoms :=
              {
                I.ru_fun = fname;
                ru_name = name;
                ru_line = line_of loc;
                ru_col = col_of loc;
              }
              :: !randoms;
          if obs_emit_name name && !loop_depth > 0 then
            emits :=
              {
                I.oe_fun = fname;
                oe_name = name;
                oe_line = line_of loc;
                oe_col = col_of loc;
              }
              :: !emits
    in
    let record_escape ~loc ~desc mentions =
      List.iter
        (fun what ->
          escapes :=
            {
              I.esc_fun = fname;
              esc_what = what;
              esc_line = line_of loc;
              esc_col = col_of loc;
              esc_desc = desc;
            }
            :: !escapes)
        mentions
    in
    let rec expr (self : Tast_iterator.iterator) (e : Typedtree.expression) =
      match e.exp_desc with
      | Texp_ident (p, lid, _) -> record_path p lid.loc
      | Texp_apply ({ exp_desc = Texp_ident (p, lid, _); _ }, args) ->
          let name = normalize_path (Path.name p) in
          record_path p lid.loc;
          let plain () =
            List.iter
              (fun (_, a) -> match a with Some a -> expr self a | None -> ())
              args
          in
          (match (name, args) with
          | ":=", [ (_, Some lhs); (_, Some rhs) ] ->
              note_mutation lhs;
              if is_module_global lhs then
                record_escape ~loc:e.exp_loc
                  ~desc:"stored through := into a module-global ref"
                  (owned_mentions_in rhs);
              plain ()
          | _ when mutates_subject_fn name ->
              (match args with
              | (_, Some subject) :: rest ->
                  note_mutation subject;
                  if is_store_fn name && is_module_global subject then
                    List.iter
                      (fun (_, a) ->
                        match a with
                        | Some a ->
                            record_escape ~loc:e.exp_loc
                              ~desc:
                                (Printf.sprintf
                                   "stored via %s into module state" name)
                              (owned_mentions_in a)
                        | None -> ())
                      rest
              | _ -> ());
              plain ()
          | _ when is_iterish name ->
              List.iter
                (fun (_, a) ->
                  match a with
                  | Some ({ Typedtree.exp_desc = Texp_function _; _ } as a) ->
                      in_loop (fun () -> expr self a)
                  | Some a -> expr self a
                  | None -> ())
                args
          | _ -> plain ())
      | Texp_setfield (obj, _, _, rhs) ->
          note_mutation obj;
          if is_module_global obj then
            record_escape ~loc:e.exp_loc
              ~desc:"stored via <- into a module-global record"
              (owned_mentions_in rhs);
          Tast_iterator.default_iterator.expr self e
      | Texp_for (_, _, lo, hi, _, body) ->
          expr self lo;
          expr self hi;
          in_loop (fun () -> expr self body)
      | Texp_while (cond, body) ->
          expr self cond;
          in_loop (fun () -> expr self body)
      | _ -> Tast_iterator.default_iterator.expr self e
    in
    let it = { Tast_iterator.default_iterator with expr } in
    it.expr it body;
    (sort_uniq_strings !refs, sort_uniq_strings !writes, !local_mut)
  in
  (* Pass B: classify bindings and lower functions. *)
  let aliases = ref [] in
  let rec module_path (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_ident (p, _) -> Some (normalize_path (Path.name p))
    | Tmod_constraint (inner, _, _, _) -> module_path inner
    | _ -> None
  in
  let rec items prefix list = List.iter (item prefix) list
  and item prefix (it : Typedtree.structure_item) =
    match it.str_desc with
    | Tstr_include incl -> (
        (* [include Hg] re-exports Hg's values under this path *)
        match module_path incl.incl_mod with
        | Some target -> aliases := (prefix, target) :: !aliases
        | None -> ())
    | Tstr_value (_, vbs) ->
        List.iter
          (fun (vb : Typedtree.value_binding) ->
            let ctx = ctx_prefixes (match prefix with "" -> unit_mod | p -> unit_mod ^ "." ^ p) in
            List.iter
              (fun (id, ty, loc) ->
                let path =
                  match prefix with
                  | "" -> Ident.name id
                  | p -> p ^ "." ^ Ident.name id
                in
                (match classify_type ~known ~ctx ty with
                | Some kind ->
                    globals :=
                      {
                        I.g_module = unit_mod;
                        g_name = path;
                        g_file = file;
                        g_line = line_of loc;
                        g_col = col_of loc;
                        g_type = print_type ty;
                        g_kind = kind;
                        g_safe = kind_is_safe kind;
                      }
                      :: !globals
                | None -> ());
                if is_arrow ty then begin
                  let fname = path in
                  let refs, writes, local_mut =
                    walk_body ~fname vb.Typedtree.vb_expr
                  in
                  let ret_ty = result_type ty in
                  let ret =
                    sort_uniq_strings (type_mentions ret_ty)
                  in
                  let ret_kind =
                    match classify_type ~known ~ctx ret_ty with
                    | Some k when not (kind_is_safe k) ->
                        Some (I.kind_to_string k)
                    | _ -> None
                  in
                  funcs :=
                    {
                      I.f_module = unit_mod;
                      f_name = fname;
                      f_line = line_of loc;
                      f_refs = refs;
                      f_ret_mentions = ret;
                      f_writes = writes;
                      f_local_mut = local_mut;
                      f_takes_ws =
                        List.mem "Workspace.t" (arg_mentions ty);
                      f_ret_kind = ret_kind;
                    }
                    :: !funcs
                end)
              (pat_vars vb.Typedtree.vb_pat))
          vbs
    | Tstr_module mb -> item_mb prefix mb
    | Tstr_recmodule mbs -> List.iter (item_mb prefix) mbs
    | _ -> ()
  and item_mb prefix (mb : Typedtree.module_binding) =
    match mb.mb_id with
    | Some id ->
        let sub =
          match prefix with
          | "" -> Ident.name id
          | p -> p ^ "." ^ Ident.name id
        in
        (* [module Io = Part_io]: an alias re-export *)
        (match module_path mb.mb_expr with
        | Some target -> aliases := (sub, target) :: !aliases
        | None -> ());
        let rec descend (me : Typedtree.module_expr) =
          match me.mod_desc with
          | Tmod_structure str -> items sub str.str_items
          | Tmod_constraint (inner, _, _, _) -> descend inner
          | _ -> ()
        in
        descend mb.mb_expr
    | None -> ()
  in
  items "" tu.tu_str.str_items;
  {
    I.u_module = unit_mod;
    u_file = file;
    u_has_mli = has_mli;
    u_globals = List.rev !globals;
    u_funcs = List.rev !funcs;
    u_escapes = List.rev !escapes;
    u_obs_emits = List.rev !emits;
    u_random_uses = List.rev !randoms;
    u_aliases = List.rev !aliases;
  }
