(* The intermediate representation of the domain-safety analyzer.  The
   typed front ({!Front_typed}, reading [.cmt] files) lowers a
   compilation unit to a [unit_ir]: its module-level mutable bindings,
   its toplevel functions with the global identifiers each references,
   and the Workspace/Rng escape sites.  The DOM rules, the call graph and
   the effect analysis operate on this IR only. *)

(* Why a module-level binding is (or is not) shared mutable state.  The
   [Atomic] and [Mutex] kinds are mutable but domain-safe by
   construction; [Obs_handle] is a pre-interned metrics handle whose
   mutation is confined to the obs runtime (its emission discipline is
   DOM04's, not DOM01's). *)
type kind =
  | Ref
  | Array
  | Bytes
  | Hashtbl_poly
  | Lazy
  | Container  (* Queue/Stack/Buffer, or an immutable shell over mutables *)
  | Mutable_record
  | Atomic
  | Mutex
  | Workspace
  | Rng
  | Obs_handle

type global = {
  g_module : string;  (* normalized unit name, e.g. "Refine" *)
  g_name : string;  (* binding path within the unit, e.g. "Counter.next" *)
  g_file : string;  (* root-relative source path *)
  g_line : int;
  g_col : int;
  g_type : string;  (* printed principal type *)
  g_kind : kind;
  g_safe : bool;  (* Atomic/Mutex: racing writers cannot corrupt it *)
}

(* A per-event obs emission ([Obs.Counter.incr] & friends) lexically
   inside a loop of function [oe_fun] — DOM04 material when the function
   is hot-path-reachable. *)
type obs_emit = { oe_fun : string; oe_name : string; oe_line : int; oe_col : int }

(* A use of the stdlib's global PRNG ([Random.int], [Random.self_init],
   ...) — shared state that breaks solve determinism (DOM03). *)
type random_use = { ru_fun : string; ru_name : string; ru_line : int; ru_col : int }

(* A Workspace/Rng value stored into module state: the target of a [:=],
   a [<-] field write, or a [Hashtbl.add]-style call whose subject is a
   module-level binding, with an ownership-scoped value somewhere in the
   stored expression. *)
type escape = {
  esc_fun : string;
  esc_what : string;  (* "Workspace.t" or "Rng.t" *)
  esc_line : int;
  esc_col : int;
  esc_desc : string;
}

type func = {
  f_module : string;
  f_name : string;  (* path within the unit, e.g. "Counter.add" *)
  f_line : int;
  f_refs : string list;  (* normalized global identifiers, sorted, deduped *)
  f_ret_mentions : string list;  (* "Workspace.t"/"Rng.t" in the result type *)
  f_writes : string list;
      (* module-level bindings this body writes: the target of a [:=] or
         [<-], or the subject of a mutating call (Hashtbl.replace,
         Array.fill, incr, ...), normalized and qualified like [f_refs] *)
  f_local_mut : bool;
      (* mutation whose subject is NOT module-level: a parameter or a
         let-bound local — the Workspace-discipline shape *)
  f_takes_ws : bool;  (* some parameter type mentions Workspace.t *)
  f_ret_kind : string option;
      (* [kind_to_string] of the result type when it classifies as a
         mutable kind *)
}

type unit_ir = {
  u_module : string;  (* normalized: "Refine", not "Solvers__Refine" *)
  u_file : string;  (* root-relative source path *)
  u_has_mli : bool;
  u_globals : global list;
  u_funcs : func list;
  u_escapes : escape list;
  u_obs_emits : obs_emit list;
  u_random_uses : random_use list;
  u_aliases : (string * string) list;
      (* module re-exports: ("", "Hg") for a toplevel [include Hg],
         ("Io", "Part_io") for [module Io = Part_io] — the owner path
         relative to the unit, and the normalized target path.  The call
         graph uses these to resolve references made through library
         roots (Hypergraph.fold_pins -> Hg.fold_pins). *)
}

let kind_to_string = function
  | Ref -> "ref"
  | Array -> "array"
  | Bytes -> "bytes"
  | Hashtbl_poly -> "hashtbl"
  | Lazy -> "lazy"
  | Container -> "container"
  | Mutable_record -> "mutable-record"
  | Atomic -> "atomic"
  | Mutex -> "mutex"
  | Workspace -> "workspace"
  | Rng -> "rng"
  | Obs_handle -> "obs-handle"

(* Deterministic unit ordering for reports. *)
let compare_units a b = String.compare a.u_file b.u_file
