(** The intermediate representation of the domain-safety analyzer.

    {!Front_typed} lowers each compilation unit's [.cmt] to a
    {!unit_ir}; the call graph, the effect analysis and the DOM rules
    consume only this representation. *)

type kind =
  | Ref
  | Array
  | Bytes
  | Hashtbl_poly
  | Lazy
  | Container
  | Mutable_record
  | Atomic
  | Mutex
  | Workspace
  | Rng
  | Obs_handle

type global = {
  g_module : string;
  g_name : string;
  g_file : string;
  g_line : int;
  g_col : int;
  g_type : string;
  g_kind : kind;
  g_safe : bool;
}

type obs_emit = { oe_fun : string; oe_name : string; oe_line : int; oe_col : int }
type random_use = { ru_fun : string; ru_name : string; ru_line : int; ru_col : int }

type escape = {
  esc_fun : string;
  esc_what : string;
  esc_line : int;
  esc_col : int;
  esc_desc : string;
}

type func = {
  f_module : string;
  f_name : string;
  f_line : int;
  f_refs : string list;
  f_ret_mentions : string list;
  f_writes : string list;
      (** module-level bindings this body writes ([:=], [<-], or a
          mutating call on a module-global subject), qualified like
          [f_refs] *)
  f_local_mut : bool;
      (** mutation whose subject is a parameter or local — the
          Workspace-discipline shape *)
  f_takes_ws : bool;  (** a parameter type mentions [Workspace.t] *)
  f_ret_kind : string option;
      (** [kind_to_string] of the result type when it classifies as a
          mutable kind *)
}

type unit_ir = {
  u_module : string;
  u_file : string;
  u_has_mli : bool;
  u_globals : global list;
  u_funcs : func list;
  u_escapes : escape list;
  u_obs_emits : obs_emit list;
  u_random_uses : random_use list;
  u_aliases : (string * string) list;
      (** module re-exports: [("", "Hg")] for a toplevel [include Hg],
          [("Io", "Part_io")] for [module Io = Part_io] — owner path
          relative to the unit, normalized target path.  Lets the call
          graph resolve references made through library roots. *)
}

val kind_to_string : kind -> string
val compare_units : unit_ir -> unit_ir -> int
