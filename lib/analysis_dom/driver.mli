(** The analyzer driver behind [hypartition analyze]: pair sources with
    the [.cmt]s a prior [dune build @check] produced, lower each unit
    through {!Front_typed}, run the call-graph pass and the DOM rules,
    apply hyplint's suppression machinery, and report through the same
    {!Check} vocabulary as [lint] / [check]. *)

val schema_version : string
(** Schema tag of the [--format json] output, ["hypartition-analysis/2"]. *)

val default_subdirs : string list
(** Directories analyzed under the root: [lib], [bin], [bench].  [test]
    is excluded on purpose — the DOM fixtures there violate the contract
    deliberately. *)

type result = {
  root : string;
  units : Ir.unit_ir list;  (** sorted by file *)
  n_reachable : int;  (** hot-path functions found by the call graph *)
  findings : Lint.Rules.finding list;  (** live (unsuppressed), sorted *)
  suppressed : (Lint.Rules.finding * string) list;
      (** finding, written reason *)
  inventory : Obs.Json.t;  (** {!Inventory.to_json} of the same run *)
  effects : Effects.t;  (** the interprocedural effect analysis *)
}

val run :
  ?config_path:string ->
  ?entries:(string * string) list ->
  ?build_dir:string ->
  root:string ->
  unit ->
  (result, string) Stdlib.result
(** Walk [root]'s {!default_subdirs}, read suppressions from
    [config_path] (default [root/lint.config]), harvest and lower every
    unit from the [.cmt]s under [build_dir] (default
    [root/_build/default]), and analyze.  [entries] defaults to
    {!Callgraph.default_entries}.  An implementation with no [.cmt], or
    whose [.cmt] was built from different text (source digest
    mismatch), is left out and carries a DOM00 error naming
    [dune build @check].  When [root/analysis/effects.json] exists and
    every source is covered, it is loaded as the committed certificate
    and DOM11 checks it for staleness. *)

val report : result -> Analysis_core.Check.report
(** One evaluation per catalogue rule plus one violation per live
    finding; [Check.exit_code] of this report is the analyze gate. *)

val to_json : result -> Obs.Json.t
(** The versioned machine-readable report ({!schema_version}),
    inventory included. *)
