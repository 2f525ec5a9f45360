(* Order statistics over timing samples. *)

let sorted samples =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  a

let percentile samples q = Server.Slo.percentile (sorted samples) q

let median samples =
  let a = sorted samples in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let sum samples = List.fold_left ( +. ) 0.0 samples

let ratio num den = if den <= 0.0 then 0.0 else num /. den

let phase_metrics name samples ~busy_s =
  [
    (name ^ "_p50_s", median samples);
    (name ^ "_p95_s", percentile samples 0.95);
    (name ^ "_rps", ratio (float_of_int (List.length samples)) busy_s);
  ]
