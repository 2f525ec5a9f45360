(** The benchmark's own spans: wall time around calls into a layer's
    public functions, kept in memory and read back as per-name samples. *)

type t

val create : unit -> t

val time : t -> string -> (unit -> 'a) -> 'a
(** [time t name f] runs [f] and records its wall time under [name]. *)

val record : t -> string -> float -> unit
(** Record an already-measured duration in seconds. *)

val samples : t -> string -> float list
(** Durations in recording order. *)

val median : t -> string -> float
val total : t -> string -> float
