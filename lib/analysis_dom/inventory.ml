(* The machine-readable mutable-state inventory: every module-level
   mutable binding the typed front found, with kind, domain-safety and
   hot-path reachability, plus per-unit coverage.  The rendering is
   fully deterministic (sorted, no timestamps) so the committed
   [analysis/inventory.json] diffs cleanly — state growth shows up in
   review, not in a dashboard. *)

module I = Ir
module J = Obs.Json

let compare_globals (a : I.global) (b : I.global) =
  let c = String.compare a.I.g_file b.I.g_file in
  if c <> 0 then c
  else
    let c = Int.compare a.I.g_line b.I.g_line in
    if c <> 0 then c
    else
      let c = Int.compare a.I.g_col b.I.g_col in
      if c <> 0 then c else String.compare a.I.g_name b.I.g_name

let global_to_json ~hot (g : I.global) =
  J.Obj
    [
      ("module", J.Str g.I.g_module);
      ("name", J.Str g.I.g_name);
      ("file", J.Str g.I.g_file);
      ("line", J.Int g.I.g_line);
      ("type", J.Str g.I.g_type);
      ("kind", J.Str (I.kind_to_string g.I.g_kind));
      ("safe", J.Bool g.I.g_safe);
      ("hot", J.Bool hot);
    ]

let unit_to_json (u : I.unit_ir) =
  J.Obj
    [
      ("module", J.Str u.I.u_module);
      ("file", J.Str u.I.u_file);
      ("has_mli", J.Bool u.I.u_has_mli);
      ("globals", J.Int (List.length u.I.u_globals));
      ("functions", J.Int (List.length u.I.u_funcs));
    ]

let all_kinds =
  [
    I.Ref; I.Array; I.Bytes; I.Hashtbl_poly; I.Lazy; I.Container;
    I.Mutable_record; I.Atomic; I.Mutex; I.Workspace; I.Rng; I.Obs_handle;
  ]

(* Pretty rendering for the committed artifact: one field per line so
   `git diff analysis/inventory.json` shows exactly which global or
   count moved.  Leaves reuse the compact codec (escaping, float
   round-trip); only the Obj/Arr layout is ours. *)
let render doc =
  let buf = Buffer.create 4096 in
  let pad n = Buffer.add_string buf (String.make n ' ') in
  let rec go indent j =
    match j with
    | J.Obj [] -> Buffer.add_string buf "{}"
    | J.Arr [] -> Buffer.add_string buf "[]"
    | J.Obj fields ->
        Buffer.add_string buf "{\n";
        List.iteri
          (fun i (k, v) ->
            pad (indent + 2);
            Buffer.add_string buf (J.to_string (J.Str k));
            Buffer.add_string buf ": ";
            go (indent + 2) v;
            if i < List.length fields - 1 then Buffer.add_char buf ',';
            Buffer.add_char buf '\n')
          fields;
        pad indent;
        Buffer.add_char buf '}'
    | J.Arr items ->
        Buffer.add_string buf "[\n";
        List.iteri
          (fun i v ->
            pad (indent + 2);
            go (indent + 2) v;
            if i < List.length items - 1 then Buffer.add_char buf ',';
            Buffer.add_char buf '\n')
          items;
        pad indent;
        Buffer.add_char buf ']'
    | leaf -> Buffer.add_string buf (J.to_string leaf)
  in
  go 0 doc;
  Buffer.add_char buf '\n';
  Buffer.contents buf

let to_json ~cg (units : I.unit_ir list) =
  let units = List.sort I.compare_units units in
  let globals =
    List.concat_map
      (fun u ->
        List.map (fun g -> (g, Callgraph.global_is_hot cg g)) u.I.u_globals)
      units
    |> List.sort (fun (a, _) (b, _) -> compare_globals a b)
  in
  let count p = List.length (List.filter p globals) in
  let by_kind =
    List.filter_map
      (fun k ->
        let n = count (fun (g, _) -> g.I.g_kind = k) in
        if n = 0 then None else Some (I.kind_to_string k, J.Int n))
      all_kinds
  in
  J.Obj
    [
      ("units", J.Arr (List.map unit_to_json units));
      ("globals", J.Arr (List.map (fun (g, hot) -> global_to_json ~hot g) globals));
      ( "summary",
        J.Obj
          [
            ("total", J.Int (List.length globals));
            ("hot", J.Int (count (fun (_, hot) -> hot)));
            ("safe", J.Int (count (fun (g, _) -> g.I.g_safe)));
            ("reachable_functions", J.Int (Callgraph.n_reachable cg));
            ("by_kind", J.Obj by_kind);
          ] );
    ]
