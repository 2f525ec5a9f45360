(* Interprocedural effect analysis over the lowered units: per-function
   effect signatures (reads/writes of unsafe module globals from the
   inventory, parameter-local mutation, calls into unanalyzed
   externals), propagated to a fixpoint over the call graph, then
   classified.  The result is the parallel-safety certificate committed
   as [analysis/effects.json] and the witness chains `analyze --effects`
   prints — the literal worklist for the multicore PR (ROADMAP item 1).

   Everything is name-keyed the way {!Callgraph} already resolves
   references, so the analysis inherits its deliberate
   over-approximation: a name that could denote a mutating function is
   treated as if it did.  Determinism is load-bearing — every set is
   sorted, chains break ties by (depth, key) — because the certificate
   must be byte-identical across runs for the CI freshness gate. *)

module I = Ir
module J = Obs.Json

let schema_version = "hypartition-effects/2"

type classification =
  | Pure
  | Workspace_local
  | Shared_read
  | Shared_mutating
  | Unknown

let classification_to_string = function
  | Pure -> "pure"
  | Workspace_local -> "workspace_local"
  | Shared_read -> "shared_read"
  | Shared_mutating -> "shared_mutating"
  | Unknown -> "unknown"

let classification_of_string = function
  | "pure" -> Some Pure
  | "workspace_local" -> Some Workspace_local
  | "shared_read" -> Some Shared_read
  | "shared_mutating" -> Some Shared_mutating
  | "unknown" -> Some Unknown
  | _ -> None

type signature_ = {
  s_reads : string list;  (* unsafe module globals read, qualified *)
  s_writes : string list;  (* unsafe module globals written *)
  s_externals : string list;  (* unresolved non-benign callees *)
  s_local_mut : bool;  (* parameter/local mutation somewhere below *)
}

type info = {
  e_key : string;  (* "Module.func" *)
  e_module : string;
  e_file : string;
  e_line : int;
  e_sig : signature_;  (* after fixpoint *)
  e_direct_writes : string list;  (* this body's own writes — the leaf facts *)
  e_class : classification;
  e_blame : (string * string list) list;
      (* written global -> minimal call chain from this function down to
         a direct writer of it (inclusive) *)
}

type t = {
  infos : info list;  (* reachable functions, sorted by key *)
  by_key : (string, info) Hashtbl.t;
  entry_points : string list;  (* entry function keys, sorted *)
}

(* ---- the external-call allowlist ---------------------------------------- *)

(* A reference that resolves to no analyzed function and no inventoried
   global is an external.  Externals from these stdlib modules are
   benign — pure, or mutating only values handed to them (the
   Workspace-discipline shape); anything else (Unix, Sys, Gc, Printf's
   channel printers, Domain, ...) widens the caller to [unknown], which
   is DOM09's business on the hot path.  [Fmt] is combinators over a
   caller-supplied formatter; [In_channel] operates on the channel it is
   handed (or opens itself), each carrying a per-channel runtime lock.
   [Condition] is benign by the same argument as [Mutex]: it blocks and
   signals on exactly the condition/mutex values handed to it, mutating
   nothing else — the Workspace-discipline shape.  [Domain] is NOT
   benign: spawn runs an arbitrary closure on another domain, which is
   precisely the effect this analysis cannot see past (the designated
   concurrency module carries a DOM09 allowlist entry instead). *)
let benign_modules =
  [
    "Array"; "ArrayLabels"; "Atomic"; "Bool"; "Buffer"; "Bytes";
    "BytesLabels"; "Char"; "Complex"; "Condition"; "Digest"; "Either";
    "Filename"; "Float"; "Fmt"; "Fun"; "Hashtbl"; "In_channel"; "Int";
    "Int32"; "Int64"; "Lazy"; "List"; "ListLabels"; "Map"; "Mutex";
    "Nativeint"; "Option"; "Queue"; "Result"; "Seq"; "Set"; "Sort";
    "Stack"; "String"; "StringLabels"; "Uchar";
  ]

(* Exact dotted names that are benign although their module is not:
   string formatting without a channel, backtrace rendering, clock and
   GC-statistics reads, and the explicit-state PRNG API (the implicit
   one is DOM03's business). *)
let benign_exact =
  [
    "Printf.sprintf"; "Printf.ksprintf"; "Format.sprintf";
    "Format.asprintf"; "Format.kasprintf"; "Printexc.to_string";
    "Random.State.bits"; "Random.State.bool"; "Random.State.char";
    "Random.State.copy"; "Random.State.float"; "Random.State.full_int";
    "Random.State.int"; "Random.State.int32"; "Random.State.int64";
    "Random.State.make"; "Random.State.nativeint";
    "Sys.time"; "Gc.counters"; "Monotonic_clock.now";
  ]

(* Bare (undotted) externals are stdlib pervasives — arithmetic,
   comparisons, [ref]/[!]/[ignore], exception raising.  All benign
   except the channel/process primitives, which touch shared state the
   runtime owns. *)
let bare_nonbenign =
  [
    "at_exit"; "close_in"; "close_in_noerr"; "close_out";
    "close_out_noerr"; "exit"; "flush"; "flush_all"; "input_byte";
    "input_char"; "input_line"; "input_value"; "open_in"; "open_in_bin";
    "open_out"; "open_out_bin"; "output_byte"; "output_bytes";
    "output_char"; "output_string"; "output_value"; "prerr_bytes";
    "prerr_char"; "prerr_endline"; "prerr_float"; "prerr_int";
    "prerr_newline"; "prerr_string"; "print_bytes"; "print_char";
    "print_endline"; "print_float"; "print_int"; "print_newline";
    "print_string"; "read_float"; "read_int"; "read_line"; "stderr";
    "stdin"; "stdout";
  ]

(* A dotted module prefix, as opposed to the '.' inside operator names
   like [+.] — a capitalized identifier before the first dot. *)
let module_prefix name =
  match String.index_opt name '.' with
  | None -> None
  | Some i ->
      let head = String.sub name 0 i in
      if
        head <> ""
        && head.[0] >= 'A'
        && head.[0] <= 'Z'
        && String.for_all
             (fun c ->
               (c >= 'A' && c <= 'Z')
               || (c >= 'a' && c <= 'z')
               || (c >= '0' && c <= '9')
               || c = '_' || c = '\'')
             head
      then Some head
      else None

let benign_external name =
  List.mem name benign_exact
  ||
  match module_prefix name with
  | None -> not (List.mem name bare_nonbenign)
  | Some head -> List.mem head benign_modules

(* ---- base facts ---------------------------------------------------------- *)

let union_sorted a b = List.sort_uniq String.compare (List.rev_append a b)

let compare_pair (a1, a2) (b1, b2) =
  let c = String.compare a1 b1 in
  if c <> 0 then c else String.compare a2 b2

(* Unsafe inventory globals, by qualified key.  [Obs_handle] values are
   excluded on purpose: handles are mutated parameter-locally inside Obs
   and counting them as shared state would classify every instrumented
   solver function shared-mutating; the obs *registries* (plain
   refs/containers in lib/obs) stay in and surface at their leaf
   writers. *)
let unsafe_global_keys units =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun u ->
      List.iter
        (fun (g : I.global) ->
          if (not g.I.g_safe) && g.I.g_kind <> I.Obs_handle then
            Hashtbl.replace tbl (g.I.g_module ^ "." ^ g.I.g_name) ())
        u.I.u_globals)
    units;
  tbl

(* Every inventoried global (safe or not): a reference resolving here is
   state access, not an external call. *)
let all_global_keys units =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun u ->
      List.iter
        (fun (g : I.global) ->
          Hashtbl.replace tbl (g.I.g_module ^ "." ^ g.I.g_name) ())
        u.I.u_globals)
    units;
  tbl

(* Resolve one function's references against the function table and the
   globals inventory: (resolved callee keys, unsafe globals read, unsafe
   globals written, non-benign externals).  A reference into an analyzed
   unit that resolves to neither a function nor an inventoried global is
   a plain immutable-value read — were it mutable, the inventory would
   hold it — so only references leaving the analyzed set can widen a
   signature to unknown. *)
let base_facts ~cg ~unsafe ~known (f : I.func) =
  let candidates r = Callgraph.candidates cg ~caller_module:f.I.f_module r in
  (* Judged on the name as written (no caller qualification), else every
     reference would gain a [Caller.]-prefixed candidate and look
     internal. *)
  let internal r =
    List.exists
      (fun c ->
        match module_prefix c with
        | Some head -> Callgraph.is_unit_module cg head
        | None -> false)
      (Callgraph.expand_name cg r)
  in
  let callees = ref [] and reads = ref [] and externals = ref [] in
  List.iter
    (fun r ->
      let cands = candidates r in
      let resolved = List.filter (fun c -> Callgraph.find_func cg c <> None) cands in
      if resolved <> [] then callees := List.rev_append resolved !callees;
      let globals = List.filter (Hashtbl.mem unsafe) cands in
      if globals <> [] then reads := List.rev_append globals !reads;
      if
        resolved = [] && globals = []
        && not (List.exists (Hashtbl.mem known) cands)
        && not (internal r)
        && not (benign_external r)
      then externals := r :: !externals)
    f.I.f_refs;
  let writes =
    List.concat_map (fun w -> List.filter (Hashtbl.mem unsafe) (candidates w))
      f.I.f_writes
  in
  ( List.sort_uniq String.compare !callees,
    List.sort_uniq String.compare !reads,
    List.sort_uniq String.compare writes,
    List.sort_uniq String.compare !externals )

let classify (s : signature_) =
  if s.s_writes <> [] then Shared_mutating
  else if s.s_reads <> [] then Shared_read
  else if s.s_externals <> [] then Unknown
  else if s.s_local_mut then Workspace_local
  else Pure

(* ---- blame chains -------------------------------------------------------- *)

(* For each written global: a shortest-path tree from the direct writers
   up the reverse call graph, so every function whose fixpoint writes
   contain the global knows its next hop toward a leaf writer.
   Deterministic: relaxation processes keys in sorted order and ties
   keep the smaller next-hop key. *)
let blame_chains ~keys ~callees ~direct_writes =
  let rev = Hashtbl.create 256 in
  List.iter
    (fun key ->
      List.iter
        (fun callee ->
          let prev = Option.value ~default:[] (Hashtbl.find_opt rev callee) in
          Hashtbl.replace rev callee (key :: prev))
        (callees key))
    keys;
  let chains : (string * string, int * string option) Hashtbl.t =
    Hashtbl.create 256
  in
  (* (function, global) -> (depth to a direct writer, next hop) *)
  let better (d, n) (d', n') = d' < d || (d' = d && n' < n) in
  List.iter
    (fun key ->
      List.iter
        (fun g -> Hashtbl.replace chains (key, g) (0, None))
        (direct_writes key))
    keys;
  let frontier = ref (List.concat_map (fun k ->
      List.map (fun g -> (k, g)) (direct_writes k)) keys)
  in
  while !frontier <> [] do
    let next = ref [] in
    List.iter
      (fun (key, g) ->
        match Hashtbl.find_opt chains (key, g) with
        | None -> ()
        | Some (d, _) ->
            List.iter
              (fun caller ->
                let cand = (d + 1, Some key) in
                let improve =
                  match Hashtbl.find_opt chains (caller, g) with
                  | None -> true
                  | Some (d0, Some n0) -> better (d0, n0) (d + 1, key)
                  | Some (_, None) -> false  (* caller writes g itself *)
                in
                if improve then begin
                  Hashtbl.replace chains (caller, g) cand;
                  next := (caller, g) :: !next
                end)
              (List.sort String.compare
                 (Option.value ~default:[] (Hashtbl.find_opt rev key))))
      (List.sort compare_pair !frontier);
    frontier := List.sort_uniq compare_pair !next
  done;
  fun key g ->
    let rec follow key acc =
      match Hashtbl.find_opt chains (key, g) with
      | None -> List.rev acc  (* shouldn't happen for fixpoint writes *)
      | Some (_, None) -> List.rev (key :: acc)
      | Some (_, Some next) -> follow next (key :: acc)
    in
    follow key []

(* ---- the fixpoint -------------------------------------------------------- *)

let compute ~cg (units : I.unit_ir list) : t =
  let units = List.sort I.compare_units units in
  let unsafe = unsafe_global_keys units in
  let known = all_global_keys units in
  (* Collect every function with its unit context, in deterministic
     order; first definition of a key wins, same as the call graph. *)
  let order = ref [] in
  let ctx : (string, I.func * string) Hashtbl.t =
    Hashtbl.create 256
  in
  List.iter
    (fun u ->
      List.iter
        (fun (f : I.func) ->
          let key = f.I.f_module ^ "." ^ f.I.f_name in
          if not (Hashtbl.mem ctx key) then begin
            Hashtbl.replace ctx key (f, u.I.u_file);
            order := key :: !order
          end)
        u.I.u_funcs)
    units;
  let keys = List.rev !order in
  let base : (string, string list * string list * string list * string list)
      Hashtbl.t =
    Hashtbl.create 256
  in
  List.iter
    (fun key ->
      let f, _ = Hashtbl.find ctx key in
      Hashtbl.replace base key (base_facts ~cg ~unsafe ~known f))
    keys;
  let callees key =
    match Hashtbl.find_opt base key with
    | Some (c, _, _, _) -> c
    | None -> []
  in
  (* Fixpoint: union reads/writes/externals and OR local_mut over
     callees until nothing changes.  Monotone over finite sorted sets,
     so termination is by size. *)
  let sigs : (string, signature_) Hashtbl.t = Hashtbl.create 256 in
  List.iter
    (fun key ->
      let f, _ = Hashtbl.find ctx key in
      let _, reads, writes, externals = Hashtbl.find base key in
      Hashtbl.replace sigs key
        {
          s_reads = reads;
          s_writes = writes;
          s_externals = externals;
          s_local_mut = f.I.f_local_mut;
        })
    keys;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun key ->
        let s = Hashtbl.find sigs key in
        let s' =
          List.fold_left
            (fun acc callee ->
              if callee = key then acc
              else
                let cs = Hashtbl.find sigs callee in
                {
                  s_reads = union_sorted acc.s_reads cs.s_reads;
                  s_writes = union_sorted acc.s_writes cs.s_writes;
                  s_externals = union_sorted acc.s_externals cs.s_externals;
                  s_local_mut = acc.s_local_mut || cs.s_local_mut;
                })
            s (callees key)
        in
        if s' <> s then begin
          Hashtbl.replace sigs key s';
          changed := true
        end)
      keys
  done;
  let direct_writes key =
    match Hashtbl.find_opt base key with
    | Some (_, _, w, _) -> w
    | None -> []
  in
  let chain = blame_chains ~keys ~callees ~direct_writes in
  (* reads minus writes for presentation: a written global is not
     re-listed as a read *)
  let reachable = List.filter (Callgraph.is_reachable_key cg) keys in
  let infos =
    List.map
      (fun key ->
        let f, file = Hashtbl.find ctx key in
        let s = Hashtbl.find sigs key in
        let s =
          { s with s_reads = List.filter (fun r -> not (List.mem r s.s_writes)) s.s_reads }
        in
        {
          e_key = key;
          e_module = f.I.f_module;
          e_file = file;
          e_line = f.I.f_line;
          e_sig = s;
          e_direct_writes = direct_writes key;
          e_class = classify s;
          e_blame = List.map (fun g -> (g, chain key g)) s.s_writes;
        })
      (List.sort String.compare reachable)
  in
  let by_key = Hashtbl.create 256 in
  List.iter (fun i -> Hashtbl.replace by_key i.e_key i) infos;
  { infos; by_key; entry_points = Callgraph.entry_keys cg }

let infos t = t.infos
let entry_points t = t.entry_points
let find t key = Hashtbl.find_opt t.by_key key

let count t cls =
  List.length (List.filter (fun i -> i.e_class = cls) t.infos)

(* ---- certificate JSON ---------------------------------------------------- *)

let str_arr xs = J.Arr (List.map (fun s -> J.Str s) xs)

let info_to_json (i : info) =
  J.Obj
    [
      ("function", J.Str i.e_key);
      ("file", J.Str i.e_file);
      ("line", J.Int i.e_line);
      ("classification", J.Str (classification_to_string i.e_class));
      ("reads", str_arr i.e_sig.s_reads);
      ("writes", str_arr i.e_sig.s_writes);
      ("externals", str_arr i.e_sig.s_externals);
      ("local_mutation", J.Bool i.e_sig.s_local_mut);
      ( "blame",
        J.Arr
          (List.map
             (fun (g, chain) ->
               J.Obj [ ("global", J.Str g); ("chain", str_arr chain) ])
             i.e_blame) );
    ]

let to_json t =
  let all = [ Pure; Workspace_local; Shared_read; Shared_mutating; Unknown ] in
  J.Obj
    [
      ("schema", J.Str schema_version);
      ("entry_points", str_arr t.entry_points);
      ("functions", J.Arr (List.map info_to_json t.infos));
      ( "summary",
        J.Obj
          (("total", J.Int (List.length t.infos))
          :: List.map
               (fun c -> (classification_to_string c, J.Int (count t c)))
               all) );
    ]

(* ---- stale-certificate comparison (DOM11) -------------------------------- *)

(* The committed certificate's (function -> classification) map; [None]
   when the document does not look like a certificate at all. *)
let certificate_classes doc =
  match J.member "functions" doc with
  | Some (J.Arr fns) ->
      Some
        (List.filter_map
           (fun f ->
             match
               ( Option.bind (J.member "function" f) J.get_str,
                 Option.bind (J.member "classification" f) J.get_str )
             with
             | Some key, Some cls -> Some (key, cls)
             | _ -> None)
           fns)
  | _ -> None

(* One finding per stale entry: functions that changed classification,
   left the reachable set, or entered it since the certificate was
   written.  A parse failure or schema mismatch is a single finding. *)
let stale_findings ~certificate_path ~certificate t =
  let finding message =
    {
      Lint.Rules.rule = "DOM11";
      severity = Analysis_core.Check.Error;
      file = certificate_path;
      line = 1;
      col = 0;
      message;
    }
  in
  match J.parse certificate with
  | Error e -> [ finding ("committed certificate does not parse: " ^ e) ]
  | Ok doc -> (
      let schema = Option.bind (J.member "schema" doc) J.get_str in
      if schema <> Some schema_version then
        [
          finding
            (Printf.sprintf "certificate schema is %s, expected %s"
               (Option.value ~default:"absent" schema)
               schema_version);
        ]
      else
        match certificate_classes doc with
        | None -> [ finding "certificate has no functions array" ]
        | Some committed ->
            let stale = ref [] in
            List.iter
              (fun (key, cls) ->
                match find t key with
                | None ->
                    stale :=
                      finding
                        (Printf.sprintf
                           "stale entry: %s (%s) is no longer reachable from \
                            the solver entry points; regenerate with analyze \
                            --effects-out"
                           key cls)
                      :: !stale
                | Some i ->
                    let now = classification_to_string i.e_class in
                    if now <> cls then
                      stale :=
                        finding
                          (Printf.sprintf
                             "stale entry: %s is certified %s but analyzes as \
                              %s; regenerate with analyze --effects-out"
                             key cls now)
                        :: !stale)
              committed;
            List.iter
              (fun i ->
                if not (List.mem_assoc i.e_key committed) then
                  stale :=
                    finding
                      (Printf.sprintf
                         "missing entry: reachable function %s (%s) is not in \
                          the certificate; regenerate with analyze \
                          --effects-out"
                         i.e_key
                         (classification_to_string i.e_class))
                    :: !stale)
              t.infos;
            List.rev !stale)

(* ---- witness rendering (`analyze --effects`) ----------------------------- *)

(* Per entry point: classification, effect summary, and the minimal call
   chain to every shared-mutating leaf its fixpoint writes reach. *)
let render_witnesses t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  if t.entry_points = [] then add "no solver entry points found\n"
  else
    List.iter
      (fun key ->
        match find t key with
        | None -> ()
        | Some i ->
            add "%s [%s]\n" key (classification_to_string i.e_class);
            if i.e_sig.s_reads <> [] then
              add "  reads: %s\n" (String.concat ", " i.e_sig.s_reads);
            if i.e_sig.s_externals <> [] then
              add "  externals: %s\n"
                (String.concat ", " i.e_sig.s_externals);
            List.iter
              (fun (g, chain) ->
                add "  writes %s via %s\n" g (String.concat " -> " chain))
              i.e_blame;
            if i.e_blame = [] && i.e_sig.s_reads = []
               && i.e_sig.s_externals = []
            then add "  no shared state reached\n")
      t.entry_points;
  Buffer.contents buf
