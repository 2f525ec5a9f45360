(* Parallel propose/commit coarsening (deterministic-mode mt-KaHyPar
   style, arXiv:2106.08696): the propose phase is embarrassingly
   parallel and writes only its own node's slot; the commit phase is a
   sequential sweep in node-id order, so the round's outcome is a pure
   function of the hypergraph — independent of the worker count and of
   the task schedule.

   This intentionally differs from the sequential {!Coarsen.cluster}
   (random visit order, merges visible to later ratings within the same
   pass): the parallel path trades that adaptivity for reproducibility,
   and recovers multi-node clusters across rounds instead (proposals
   form chains — v -> u -> w commits into one cluster when caps allow,
   and the hierarchy loop runs rounds until the shrink stalls). *)

(* Iterative leader lookup with path compression, as in Coarsen. *)
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

(* Nodes per propose task: coarse enough to amortize the fork-join
   epoch, fine enough that dynamic claiming balances skewed degrees. *)
let chunk = 1024

(* Fill [propose] with each node's best-rated partner (or -1), in
   parallel over node chunks.  Writes are disjoint (task i owns chunk
   i's slots), reads are the frozen CSR views — race-free by
   construction.  The weight cap uses the nodes' own weights here; the
   commit sweep re-checks against live cluster weights. *)
let propose_round pool wss hg ~max_cluster_weight propose =
  let n = Hypergraph.num_nodes hg in
  let chunks = (n + chunk - 1) / chunk in
  ignore
    (Parallel.map pool ~n:chunks (fun ~worker c ->
         let ws = wss.(worker) in
         Workspace.ensure ws ~n ~k:1;
         let score = ws.Workspace.score in
         let seen = ws.Workspace.seen in
         let cand = ws.Workspace.cand in
         let lo = c * chunk and hi = min n ((c + 1) * chunk) - 1 in
         for v = lo to hi do
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
                     if u <> v then begin
                       if seen.(u) <> stamp then begin
                         seen.(u) <- stamp;
                         score.(u) <- 0.0;
                         Support.Int_vec.push cand u
                       end;
                       score.(u) <- score.(u) +. r
                     end)
               end);
           let wv = Hypergraph.node_weight hg v in
           let best = ref (-1) and best_r = ref 0.0 in
           Support.Int_vec.iter
             (fun u ->
               if Hypergraph.node_weight hg u + wv <= max_cluster_weight then
                 if
                   !best < 0
                   || score.(u) > !best_r
                   || (score.(u) = !best_r && u < !best)
                 then begin
                   best := u;
                   best_r := score.(u)
                 end)
             cand;
           propose.(v) <- !best
         done))

(* Sequential commit in node-id order: union v with its proposal when
   the live cluster weights still fit the cap, then compact leaders to
   consecutive labels exactly as the sequential clustering does. *)
let commit_round hg ~max_cluster_weight propose =
  let n = Hypergraph.num_nodes hg in
  let leader = Array.init n (fun v -> v) in
  let weight = Array.init n (fun v -> Hypergraph.node_weight hg v) in
  for v = 0 to n - 1 do
    let u = propose.(v) in
    if u >= 0 then begin
      let lv = find leader v and lu = find leader u in
      if lv <> lu && weight.(lv) + weight.(lu) <= max_cluster_weight then begin
        leader.(lv) <- lu;
        weight.(lu) <- weight.(lu) + weight.(lv)
      end
    end
  done;
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

(* Interned to the same series the sequential coarsener feeds, so the
   parallel path shows up in the usual coarsen.* rollups. *)
let c_levels = Obs.Counter.make "coarsen.levels"
let h_shrink = Obs.Histogram.make "coarsen.shrink"

let one_level pool wss hg ~max_cluster_weight =
  Obs.Span.with_ "coarsen.level"
    ~attrs:[ ("nodes_in", Obs.Int (Hypergraph.num_nodes hg)) ]
    (fun () ->
      let n = Hypergraph.num_nodes hg in
      let propose = Array.make (max n 1) (-1) in
      propose_round pool wss hg ~max_cluster_weight propose;
      let label, count = commit_round hg ~max_cluster_weight propose in
      if count = n then None
      else begin
        let coarse =
          Obs.Span.with_ "coarsen.contract" (fun () ->
              Hypergraph.contract hg label count)
        in
        Obs.Counter.incr c_levels;
        Obs.Span.attr "nodes_out" (Obs.Int count);
        Obs.Histogram.observe h_shrink (float_of_int count /. float_of_int n);
        Some { Coarsen.coarse; label }
      end)

let hierarchy pool wss hg ~k ~stop_nodes =
  Obs.Span.with_ "coarsen"
    ~attrs:
      [
        ("n", Obs.Int (Hypergraph.num_nodes hg));
        ("m", Obs.Int (Hypergraph.num_edges hg));
        ("k", Obs.Int k);
        ("threads", Obs.Int (Parallel.threads pool));
      ]
    (fun () ->
      let total = Hypergraph.total_node_weight hg in
      let max_cluster_weight = max 1 (Support.Util.ceil_div total (4 * k)) in
      let rec go acc current =
        if Hypergraph.num_nodes current <= stop_nodes then
          (current, List.rev acc)
        else
          match one_level pool wss current ~max_cluster_weight with
          | None -> (current, List.rev acc)
          | Some level ->
              let shrink =
                float_of_int (Hypergraph.num_nodes level.Coarsen.coarse)
                /. float_of_int (Hypergraph.num_nodes current)
              in
              if shrink > 0.95 then (current, List.rev acc)
              else go (level :: acc) level.Coarsen.coarse
      in
      let coarsest, levels = go [] hg in
      Obs.Span.attr "levels" (Obs.Int (List.length levels));
      Obs.Span.attr "coarsest_nodes" (Obs.Int (Hypergraph.num_nodes coarsest));
      (coarsest, levels))
