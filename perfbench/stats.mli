(** Order statistics over timing samples. *)

val percentile : float list -> float -> float
(** [percentile samples q], nearest rank ([Server.Slo.percentile]), [q]
    in [0, 1]; [0.0] when empty. *)

val median : float list -> float
(** Midpoint of the two middle samples for an even count; [0.0] when empty. *)

val sum : float list -> float

val ratio : float -> float -> float
(** [ratio num den], [0.0] when [den <= 0]. *)

val phase_metrics :
  string -> float list -> busy_s:float -> (string * float) list
(** [phase_metrics name latencies ~busy_s]: [name_p50_s], [name_p95_s]
    (nearest rank) and [name_rps], the sample count over [busy_s]
    seconds. *)
