(* Reachability over the lowered units: a breadth-first walk of the
   function-reference graph from the solver entry points, then the set
   of module globals referenced by any reachable function.

   Resolution is name-based on purpose.  The typed front emits
   compiler-resolved references normalized to ["Module.func"], so the
   only ambiguity left is within-unit bare calls, which it already
   qualifies.  Over-approximation (a cold helper
   sharing a dotted name with a hot one) errs toward flagging, which is
   the right direction for a safety gate. *)

module I = Ir

type t = {
  reachable : (string, unit) Hashtbl.t;  (* "Module.func" *)
  hot_globals : (string, unit) Hashtbl.t;  (* "Module.binding" *)
  funcs : (string, I.func) Hashtbl.t;  (* every lowered function by key *)
  entry_keys : string list;  (* resolved entry functions, sorted *)
  modules : (string, unit) Hashtbl.t;  (* analyzed unit module names *)
  aliases : (string, string list) Hashtbl.t;
      (* re-export owner path -> included/aliased target paths *)
}

(* All the names a reference may denote, expanded through the units'
   re-export aliases: the name as written, qualified within the calling
   module, rewritten through [include]/[module X = Y] re-exports
   (Hypergraph.fold_pins -> Hg.fold_pins, Partition.Io.save ->
   Part_io.save), and with an unanalyzed library-wrapper head dropped
   when the next component names an analyzed unit (Support.Rng.create ->
   Rng.create).  Bounded depth caps alias cycles. *)
let expand_into t ~out ~seen names =
  let rec expand depth c =
    if depth <= 4 && not (Hashtbl.mem seen c) then begin
      Hashtbl.replace seen c ();
      out := c :: !out;
      let comps = String.split_on_char '.' c in
      let n = List.length comps in
      let rec take k = function
        | x :: rest when k > 0 -> x :: take (k - 1) rest
        | _ -> []
      in
      let rec drop k l =
        if k = 0 then l else match l with [] -> [] | _ :: rest -> drop (k - 1) rest
      in
      for k = 1 to min 2 (n - 1) do
        let owner = String.concat "." (take k comps) in
        let rest = String.concat "." (drop k comps) in
        List.iter
          (fun target -> expand (depth + 1) (target ^ "." ^ rest))
          (Option.value ~default:[] (Hashtbl.find_opt t.aliases owner))
      done;
      match comps with
      | head :: (m :: _ as rest)
        when n >= 3
             && (not (Hashtbl.mem t.modules head))
             && Hashtbl.mem t.modules m ->
          expand (depth + 1) (String.concat "." rest)
      | _ -> ()
    end
  in
  List.iter (expand 0) names

let candidates t ~caller_module r =
  let out = ref [] in
  let seen = Hashtbl.create 8 in
  expand_into t ~out ~seen [ r; caller_module ^ "." ^ r ];
  List.rev !out

(* The expansion of the name as written only — no caller qualification.
   Used to judge whether an unresolved reference still lands inside an
   analyzed unit (a plain value read) versus escaping to an external
   library: qualifying by the caller first would make every reference
   look internal. *)
let expand_name t r =
  let out = ref [] in
  let seen = Hashtbl.create 8 in
  expand_into t ~out ~seen [ r ];
  List.rev !out

(* Solver entry points, as (module, function) pairs; ["*"] means every
   toplevel function of the module.  The defaults mirror the hot path
   named by the domain-safety contract: the multilevel driver, both
   refinement passes, coarsening, and the batch-engine runner. *)
let default_entries =
  [
    ("Multilevel", "*");
    ("Refine", "*");
    ("Coarsen", "*");
    ("Kl_swap", "*");
    ("Runner", "*");
  ]

let func_key f = f.I.f_module ^ "." ^ f.I.f_name

let compute ?(entries = default_entries) (units : I.unit_ir list) : t =
  let funcs : (string, I.func) Hashtbl.t = Hashtbl.create 256 in
  let modules = Hashtbl.create 64 in
  let aliases = Hashtbl.create 64 in
  List.iter
    (fun u ->
      List.iter (fun f -> Hashtbl.replace funcs (func_key f) f) u.I.u_funcs;
      Hashtbl.replace modules u.I.u_module ();
      List.iter
        (fun (owner, target) ->
          let key =
            if owner = "" then u.I.u_module else u.I.u_module ^ "." ^ owner
          in
          let prev = Option.value ~default:[] (Hashtbl.find_opt aliases key) in
          if not (List.mem target prev) then
            Hashtbl.replace aliases key (target :: prev))
        u.I.u_aliases)
    units;
  (* Buckets were built reversed; restore declaration order once. *)
  Hashtbl.filter_map_inplace (fun _ ts -> Some (List.rev ts)) aliases;
  let t =
    {
      reachable = Hashtbl.create 256;
      hot_globals = Hashtbl.create 64;
      funcs;
      entry_keys = [];
      modules;
      aliases;
    }
  in
  let queue = Queue.create () in
  let enqueue key =
    if Hashtbl.mem funcs key && not (Hashtbl.mem t.reachable key) then begin
      Hashtbl.replace t.reachable key ();
      Queue.add key queue
    end
  in
  let entry_keys = ref [] in
  let enqueue_entry key =
    if Hashtbl.mem funcs key then entry_keys := key :: !entry_keys;
    enqueue key
  in
  List.iter
    (fun (m, fn) ->
      if fn = "*" then
        List.iter
          (fun u ->
            if u.I.u_module = m then
              List.iter (fun f -> enqueue_entry (func_key f)) u.I.u_funcs)
          units
      else enqueue_entry (m ^ "." ^ fn))
    entries;
  while not (Queue.is_empty queue) do
    let key = Queue.pop queue in
    match Hashtbl.find_opt funcs key with
    | None -> ()
    | Some f ->
        List.iter
          (fun r ->
            List.iter enqueue (candidates t ~caller_module:f.I.f_module r))
          f.I.f_refs
  done;
  (* A global is hot when any reachable function references it, under
     any of the names the reference may denote. *)
  List.iter
    (fun u ->
      List.iter
        (fun f ->
          if Hashtbl.mem t.reachable (func_key f) then
            List.iter
              (fun r ->
                List.iter
                  (fun c -> Hashtbl.replace t.hot_globals c ())
                  (candidates t ~caller_module:f.I.f_module r))
              f.I.f_refs)
        u.I.u_funcs)
    units;
  { t with entry_keys = List.sort_uniq String.compare !entry_keys }

let is_reachable t ~module_ ~func = Hashtbl.mem t.reachable (module_ ^ "." ^ func)
let is_reachable_key t key = Hashtbl.mem t.reachable key

let global_is_hot t (g : I.global) =
  Hashtbl.mem t.hot_globals (g.I.g_module ^ "." ^ g.I.g_name)

let n_reachable t = Hashtbl.length t.reachable
let entry_keys t = t.entry_keys
let find_func t key = Hashtbl.find_opt t.funcs key

(* The func keys a reference may resolve to, from the same candidate
   expansion the reachability walk uses. *)
let resolve_ref t ~caller_module r =
  List.sort_uniq String.compare
    (List.filter (Hashtbl.mem t.funcs) (candidates t ~caller_module r))

let is_unit_module t name = Hashtbl.mem t.modules name
