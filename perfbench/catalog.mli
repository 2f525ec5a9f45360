(** Every metric the benchmark prints, with its unit. *)

val end_to_end : (string * string) list
(** [(name, unit)] of an untraced run ([--trace 0]). *)

val per_layer : (string * string) list
(** [(name, unit)] of a traced run ([--trace 1]).  A layer that a
    workload bypasses reads 0 on that workload. *)

val workloads : string list
