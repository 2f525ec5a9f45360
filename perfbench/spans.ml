(* The benchmark's own spans: wall time around calls into a layer's
   public functions, kept in memory and read back as per-name samples. *)

module Tbl = Hashtbl.Make (String)

type t = float list Tbl.t

let create () : t = Tbl.create 16

let record t name seconds =
  let prev = Option.value (Tbl.find_opt t name) ~default:[] in
  Tbl.replace t name (seconds :: prev)

let time t name f =
  let t0 = Support.Util.monotonic_ns () in
  let result = f () in
  record t name
    (Support.Util.seconds_of_ns (Int64.sub (Support.Util.monotonic_ns ()) t0));
  result

let samples t name = List.rev (Option.value (Tbl.find_opt t name) ~default:[])
let median t name = Stats.median (samples t name)
let total t name = Stats.sum (samples t name)
