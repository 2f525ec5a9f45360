(* Solver-layer rollup: folds the observability snapshots the program
   already emits (span rollup rows and counters, in the "observed"
   rendering of Engine.Runner.snapshot_to_json) into per-layer totals.
   In-process solves are read through Obs.snapshot; served solves
   through the "observed" section of their result records. *)

module Tbl = Hashtbl.Make (String)

type t = {
  mutable solves : int;
  mutable coarsen_s : float;
  mutable initial_s : float;
  mutable uncoarsen_s : float;
  mutable initial_passes : int;
  mutable uncoarsen_passes : int;
  counters : int Tbl.t;
}

let create () =
  {
    solves = 0;
    coarsen_s = 0.0;
    initial_s = 0.0;
    uncoarsen_s = 0.0;
    initial_passes = 0;
    uncoarsen_passes = 0;
    counters = Tbl.create 32;
  }

let last_component path =
  match String.rindex_opt path '/' with
  | Some i -> String.sub path (i + 1) (String.length path - i - 1)
  | None -> path

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.equal (String.sub s i n) sub || at (i + 1)) in
  at 0

let add_span t row =
  let open Obs.Json in
  match (Option.bind (member "path" row) get_str, member "total_s" row) with
  | Some path, Some total ->
      let total_s = Option.value (get_float total) ~default:0.0 in
      let count =
        Option.value (Option.bind (member "count" row) get_int) ~default:0
      in
      (match last_component path with
      | "coarsen" -> t.coarsen_s <- t.coarsen_s +. total_s
      | "multilevel.initial" -> t.initial_s <- t.initial_s +. total_s
      | "multilevel.uncoarsen" -> t.uncoarsen_s <- t.uncoarsen_s +. total_s
      | "refine.pass" ->
          if contains ~sub:"multilevel.initial/" path then
            t.initial_passes <- t.initial_passes + count
          else if contains ~sub:"multilevel.uncoarsen/" path then
            t.uncoarsen_passes <- t.uncoarsen_passes + count
      | _ -> ())
  | _ -> ()

let add t observed =
  let open Obs.Json in
  t.solves <- t.solves + 1;
  (match member "spans" observed with
  | Some (Arr rows) -> List.iter (add_span t) rows
  | _ -> ());
  match member "counters" observed with
  | Some (Obj kvs) ->
      List.iter
        (fun (name, v) ->
          let prev = Option.value (Tbl.find_opt t.counters name) ~default:0 in
          Tbl.replace t.counters name
            (prev + Option.value (get_int v) ~default:0))
        kvs
  | _ -> ()

let add_snapshot t snap = add t (Engine.Runner.snapshot_to_json snap)

let counter t name =
  float_of_int (Option.value (Tbl.find_opt t.counters name) ~default:0)

let per_solve t v = Stats.ratio v (float_of_int t.solves)

let metrics t =
  let c = counter t in
  [
    ("coarsen.s", per_solve t t.coarsen_s);
    ("coarsen.levels", c "coarsen.levels");
    ("initial.s", per_solve t t.initial_s);
    ("initial.refine_passes", float_of_int t.initial_passes);
    ("uncoarsen.s", per_solve t t.uncoarsen_s);
    ("uncoarsen.refine_passes", float_of_int t.uncoarsen_passes);
    ("fm.pops", c "fm.pops");
    ("fm.moves_applied", c "fm.moves_applied");
    ( "fm.accept_ratio",
      Stats.ratio (c "fm.moves_accepted") (c "fm.moves_applied") );
    ("fm.gain_cache.delta_updates", c "fm.gain_cache.delta_updates");
    ( "fm.gain_cache.hit_ratio",
      Stats.ratio (c "fm.gain_cache.hits")
        (c "fm.gain_cache.hits" +. c "fm.gain_cache.misses") );
    ("lp.rounds", c "lp.rounds");
    ("lp.moves_applied", c "lp.moves_applied");
    ( "lp.conflict_ratio",
      Stats.ratio (c "lp.conflict_rejects")
        (c "lp.moves_applied" +. c "lp.conflict_rejects") );
  ]
