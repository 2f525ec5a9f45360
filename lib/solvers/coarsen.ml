(* Coarsening by heavy-connectivity clustering (first-choice style, as in
   multilevel partitioners like hMETIS/KaHyPar): visit nodes in random
   order and merge each with the neighbour of highest rating

     rating(v, u) = sum over shared edges e of w_e / (|e| - 1),

   subject to a maximum cluster weight that protects balance feasibility at
   the coarse level. *)

type level = {
  coarse : Hypergraph.t;
  label : int array; (* fine node -> coarse node *)
}

(* Iterative leader lookup with full path compression: after a call every
   node on the chain points directly at the root, so adversarial merge
   orders cannot grow chains (the recursive find they replace both risked
   deep recursion and paid O(chain) per lookup). *)
let find leader v =
  let root = ref v in
  while leader.(!root) <> !root do
    root := leader.(!root)
  done;
  let root = !root in
  let c = ref v in
  while leader.(!c) <> root do
    let next = leader.(!c) in
    leader.(!c) <- root;
    c := next
  done;
  root

let cluster ?workspace ?within rng hg ~max_cluster_weight =
  let n = Hypergraph.num_nodes hg in
  let same_side u v =
    match within with None -> true | Some part -> part.(u) = part.(v)
  in
  let leader = Array.init n (fun v -> v) in
  (* cluster weight, indexed by current leader *)
  let weight = Array.init n (fun v -> Hypergraph.node_weight hg v) in
  let order = Support.Rng.permutation rng n in
  (* Candidate ratings live in a flat score array, reset through the
     touched-candidate list — no per-node hash table, no clearing of
     untouched entries. *)
  let ws = match workspace with Some ws -> ws | None -> Workspace.create () in
  Workspace.ensure ws ~n ~k:1;
  let score = ws.Workspace.score in
  let seen = ws.Workspace.seen in
  let cand = ws.Workspace.cand in
  Array.iter
    (fun v ->
      if leader.(v) = v then begin
        let stamp = Workspace.next_stamp ws in
        Support.Int_vec.clear cand;
        Hypergraph.iter_incident hg v (fun e ->
            let size = Hypergraph.edge_size hg e in
            if size > 1 && size <= 64 then begin
              let r =
                float_of_int (Hypergraph.edge_weight hg e)
                /. float_of_int (size - 1)
              in
              Hypergraph.iter_pins hg e (fun u ->
                  let lu = find leader u in
                  if lu <> v && same_side u v then begin
                    if seen.(lu) <> stamp then begin
                      seen.(lu) <- stamp;
                      score.(lu) <- 0.0;
                      Support.Int_vec.push cand lu
                    end;
                    score.(lu) <- score.(lu) +. r
                  end)
            end);
        let best = ref (-1) and best_r = ref 0.0 in
        Support.Int_vec.iter
          (fun u ->
            if
              weight.(u) + weight.(v) <= max_cluster_weight
              && (!best < 0 || score.(u) > !best_r)
            then begin
              best := u;
              best_r := score.(u)
            end)
          cand;
        if !best >= 0 then begin
          let u = !best in
          leader.(v) <- u;
          weight.(u) <- weight.(u) + weight.(v)
        end
      end)
    order;
  (* Compact leaders to consecutive labels. *)
  let label = Array.make n (-1) in
  let next = ref 0 in
  for v = 0 to n - 1 do
    let r = find leader v in
    if label.(r) < 0 then begin
      label.(r) <- !next;
      incr next
    end
  done;
  for v = 0 to n - 1 do
    label.(v) <- label.(find leader v)
  done;
  (label, !next)

let c_levels = Obs.Counter.make "coarsen.levels"
let h_shrink = Obs.Histogram.make "coarsen.shrink"

let one_level ?workspace ?within rng hg ~max_cluster_weight =
  Obs.Span.with_ "coarsen.level"
    ~attrs:[ ("nodes_in", Obs.Int (Hypergraph.num_nodes hg)) ]
    (fun () ->
      let label, count = cluster ?workspace ?within rng hg ~max_cluster_weight in
      if count = Hypergraph.num_nodes hg then None
      else begin
        let coarse =
          Obs.Span.with_ "coarsen.contract" (fun () ->
              Hypergraph.contract hg label count)
        in
        Obs.Counter.incr c_levels;
        Obs.Span.attr "nodes_out" (Obs.Int count);
        Obs.Histogram.observe h_shrink
          (float_of_int count /. float_of_int (Hypergraph.num_nodes hg));
        Some { coarse; label }
      end)

(* Full coarsening hierarchy down to [stop_nodes] nodes (or until clustering
   stalls).  The max cluster weight keeps every coarse node small enough for
   an eps-balanced k-way split to remain possible. *)
let hierarchy ?workspace rng hg ~k ~stop_nodes =
  Obs.Span.with_ "coarsen"
    ~attrs:
      [
        ("n", Obs.Int (Hypergraph.num_nodes hg));
        ("m", Obs.Int (Hypergraph.num_edges hg));
        ("k", Obs.Int k);
      ]
    (fun () ->
      let total = Hypergraph.total_node_weight hg in
      let max_cluster_weight = max 1 (Support.Util.ceil_div total (4 * k)) in
      let rec go acc current =
        if Hypergraph.num_nodes current <= stop_nodes then (current, List.rev acc)
        else
          match one_level ?workspace rng current ~max_cluster_weight with
          | None -> (current, List.rev acc)
          | Some level ->
              let shrink =
                float_of_int (Hypergraph.num_nodes level.coarse)
                /. float_of_int (Hypergraph.num_nodes current)
              in
              if shrink > 0.95 then (current, List.rev acc)
              else go (level :: acc) level.coarse
      in
      let coarsest, levels = go [] hg in
      Obs.Span.attr "levels" (Obs.Int (List.length levels));
      Obs.Span.attr "coarsest_nodes" (Obs.Int (Hypergraph.num_nodes coarsest));
      (coarsest, levels))

(* Project a coarse partition back through one level. *)
let project level coarse_part =
  Partition.create ~k:(Partition.k coarse_part)
    (Array.map
       (fun l -> Partition.color coarse_part l)
       level.label)
