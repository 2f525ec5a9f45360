(** The analyzer's front end: lower compiler [.cmt] files to
    {!Ir.unit_ir}.

    References are compiler-resolved paths (no scope guessing), and
    bindings are classified by their principal type, so repo-defined
    mutable records and aliases ([Obs.Counter.t]) are recognized through
    abstraction boundaries via the {!harvest} pass. *)

type typed_unit = {
  tu_modname : string;  (* raw compilation-unit name, e.g. "Solvers__Refine" *)
  tu_source : string;  (* root-relative source path recorded in the cmt *)
  tu_digest : Digest.t option;  (* digest of the source the cmt was built from *)
  tu_str : Typedtree.structure;
}
(** One successfully-read implementation [.cmt]. *)

val read_cmt : string -> typed_unit option
(** Read one [.cmt] file.  [None] for interfaces, packs, partial trees,
    dune alias-root units ("Lib__") and unreadable/mismatched files;
    never raises. *)

type known
(** Repo-wide harvest of known-mutable type names. *)

val harvest : typed_unit list -> known
(** Fixpoint over all units' type declarations: a name such as
    ["Obs.counter"] is known-mutable if it is declared as a record with
    [mutable] fields, or is an alias resolving (transitively) to a
    builtin mutable constructor or another known-mutable name. *)

val extract : known:known -> has_mli:bool -> typed_unit -> Ir.unit_ir
(** Lower one unit: classify module-level bindings, record each toplevel
    function's referenced globals, and collect obs-emission sites inside
    loops, global-PRNG uses and Workspace/Rng escape stores. *)
