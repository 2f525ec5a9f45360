(** Solver-layer rollup: folds the observability snapshots the program
    already emits (span rollup rows and counters) into per-layer totals.
    In-process solves are read through [Obs.snapshot]; served solves
    through the ["observed"] section of their result records. *)

type t

val create : unit -> t

val add : t -> Obs.Json.t -> unit
(** Fold one solve's snapshot, in the ["observed"] rendering of
    [Engine.Runner.snapshot_to_json]. *)

val add_snapshot : t -> Obs.snapshot -> unit

val metrics : t -> (string * float) list
(** Phase times per solve (the [coarsen],
    [multilevel.initial] and [multilevel.uncoarsen] spans), [refine.pass]
    counts under the initial portfolio and under uncoarsening, and the
    [coarsen.levels], [fm.*] and [lp.*] counters summed over the folded
    solves, with their ratios. *)
