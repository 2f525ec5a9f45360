(* Attempted / failed accounting.  Every operation the benchmark asks of
   the program is attempted once; it fails when any check on its output
   does not hold.  The first few reasons go to stderr. *)

type t = { mutable attempted : int; mutable failed : int }

let max_reported = 10

let create () = { attempted = 0; failed = 0 }

let expect t ok msg =
  t.attempted <- t.attempted + 1;
  if not ok then begin
    t.failed <- t.failed + 1;
    if t.failed <= max_reported then prerr_endline ("[failed] " ^ Lazy.force msg)
  end

let attempted t = t.attempted
let failed t = t.failed

let check_partition t ~eps ~what hg part ~claimed =
  let balanced = Partition.is_balanced ~variant:Partition.Strict ~eps hg part in
  let cost = Partition.connectivity_cost hg part in
  expect t
    (balanced && cost = claimed)
    (lazy
      (Printf.sprintf "%s: balanced=%b (eps %g), recomputed connectivity %d, \
                       solver returned %d"
         what balanced eps cost claimed));
  Partition.imbalance hg part
