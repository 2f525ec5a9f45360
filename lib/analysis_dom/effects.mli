(** Interprocedural effect analysis over the lowered units: per-function
    effect signatures propagated to a fixpoint over the call graph, a
    five-point classification of every hot-path function, and the
    byte-deterministic parallel-safety certificate committed as
    [analysis/effects.json]. *)

val schema_version : string
(** Schema tag of the certificate, ["hypartition-effects/2"]. *)

type classification =
  | Pure  (** no effects at all *)
  | Workspace_local
      (** mutates only parameters/locals — the Workspace discipline;
          safe to run per-domain with per-domain workspaces *)
  | Shared_read  (** reads unsafe module-global state, never writes it *)
  | Shared_mutating  (** writes unsafe module-global state *)
  | Unknown
      (** effect widened only by calls into unanalyzed externals *)

val classification_to_string : classification -> string
val classification_of_string : string -> classification option

type signature_ = {
  s_reads : string list;
      (** unsafe inventory globals read (transitively), qualified
          ["Module.binding"]; written globals are not re-listed *)
  s_writes : string list;  (** unsafe inventory globals written *)
  s_externals : string list;
      (** unresolved references that are not allowlisted as benign *)
  s_local_mut : bool;  (** parameter/local mutation somewhere below *)
}

type info = {
  e_key : string;  (** ["Module.func"] *)
  e_module : string;
  e_file : string;
  e_line : int;
  e_sig : signature_;  (** after fixpoint *)
  e_direct_writes : string list;
      (** this body's own global writes — where DOM07 fires *)
  e_class : classification;
  e_blame : (string * string list) list;
      (** written global -> minimal call chain from this function to a
          direct writer of it, both ends inclusive *)
}

type t

val compute : cg:Callgraph.t -> Ir.unit_ir list -> t
(** Run base-fact extraction, the fixpoint and the blame-chain pass.
    The result covers exactly the functions reachable from the solver
    entry points, sorted by key — deterministic for the certificate. *)

val infos : t -> info list
val find : t -> string -> info option
val entry_points : t -> string list
val count : t -> classification -> int

val benign_external : string -> bool
(** The external-call allowlist: pure / parameter-local stdlib modules
    and a few exact names ([Printf.sprintf], [Random.State.*]); every
    other unresolved reference widens its caller to [Unknown]. *)

val to_json : t -> Obs.Json.t
(** The certificate document ({!schema_version}): entry points, one
    record per reachable function (signature, classification, blame
    chains), and a per-classification summary.  Render with
    {!Inventory.render} for the committed artifact. *)

val stale_findings :
  certificate_path:string -> certificate:string -> t -> Lint.Rules.finding list
(** DOM11: compare a committed certificate's text against this run —
    one finding per entry whose classification changed, per entry no
    longer reachable, and per reachable function the certificate lacks.
    An unparseable or wrong-schema document is a single finding. *)

val render_witnesses : t -> string
(** The [analyze --effects] text: per entry point, its classification,
    transitive reads/externals, and the minimal call-chain witness to
    every shared-mutating leaf it reaches. *)
