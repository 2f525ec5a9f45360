(** Attempted / failed accounting.  Every operation the benchmark asks of
    the program is attempted once; it fails when any check on its output
    does not hold.  The first few failure reasons go to stderr. *)

type t

val create : unit -> t

val expect : t -> bool -> string Lazy.t -> unit
(** Count one attempted operation, failed unless the condition holds. *)

val attempted : t -> int
val failed : t -> int

val check_partition :
  t ->
  eps:float ->
  what:string ->
  Hypergraph.t ->
  Partition.t ->
  claimed:int ->
  float
(** One operation: the partition must be strictly ε-balanced and its
    recomputed connectivity (λ−1) must equal the solver's [claimed]
    cost.  Returns the partition's imbalance. *)
