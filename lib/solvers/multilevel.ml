(* Multilevel k-way partitioner: coarsen by clustering, solve the coarsest
   hypergraph with a portfolio of initial partitioners plus refinement, and
   project back up with FM refinement at every level. *)

let log_src = Logs.Src.create "hypartition.multilevel" ~doc:"multilevel solver"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  eps : float;
  variant : Partition.balance;
  metric : Partition.metric;
  refine_passes : int;
  initial_tries : int; (* random restarts at the coarsest level *)
  stop_nodes : int; (* stop coarsening below this many nodes *)
  threads : int; (* 0 = the sequential path; N >= 1 = the parallel path *)
}

let default_config =
  {
    eps = 0.03;
    variant = Partition.Strict;
    metric = Partition.Connectivity;
    refine_passes = 8;
    initial_tries = 8;
    stop_nodes = 60;
    threads = 0;
  }

let refine_config (c : config) : Refine.config =
  {
    Refine.eps = c.eps;
    variant = c.variant;
    metric = c.metric;
    max_passes = c.refine_passes;
    max_fruitless = Refine.default_config.Refine.max_fruitless;
  }

(* Portfolio at the coarsest level: several random-balanced and BFS-growth
   starts, each FM-refined; keep the best, preferring feasible ones. *)
let initial_partition cfg ws rng hg ~k =
  Obs.Span.with_ "multilevel.initial"
    ~attrs:
      [
        ("nodes", Obs.Int (Hypergraph.num_nodes hg));
        ("tries", Obs.Int cfg.initial_tries);
      ]
    (fun () ->
      let candidates =
        List.concat
          [
            Support.Util.list_init cfg.initial_tries (fun _ ->
                Initial.random_balanced ~variant:cfg.variant ~eps:cfg.eps rng hg
                  ~k);
            Support.Util.list_init (max 1 (cfg.initial_tries / 2)) (fun _ ->
                Initial.bfs_growth ~variant:cfg.variant ~eps:cfg.eps rng hg ~k);
            [ Initial.round_robin hg ~k ];
          ]
      in
      let score part =
        let cost = Refine.refine ~config:(refine_config cfg) ~workspace:ws hg part in
        let feasible =
          Partition.is_balanced ~variant:cfg.variant ~eps:cfg.eps hg part
        in
        ((if feasible then 0 else 1), cost)
      in
      let best =
        List.fold_left
          (fun acc p ->
            let s = score p in
            match acc with
            | Some (bs, _) when bs <= s -> acc
            | _ -> Some (s, p))
          None candidates
      in
      match best with
      | Some ((infeasible, cost), p) ->
          Obs.Span.attr "best_cost" (Obs.Int cost);
          Obs.Span.attr "feasible" (Obs.Bool (infeasible = 0));
          p
      | None -> assert false)

let h_instance_nodes = Obs.Histogram.make "multilevel.instance_nodes"

let partition_seq config rng hg ~k =
  Obs.Span.with_ "multilevel"
    ~attrs:
      [
        ("n", Obs.Int (Hypergraph.num_nodes hg));
        ("m", Obs.Int (Hypergraph.num_edges hg));
        ("k", Obs.Int k);
      ]
    (fun () ->
      Obs.Histogram.observe_int h_instance_nodes (Hypergraph.num_nodes hg);
      (* One workspace for the whole solve: scratch arrays, gain rows and
         the bucket queue are shared by every clustering level, initial
         candidate and uncoarsening refinement below. *)
      let ws = Workspace.create () in
      let coarsest, levels =
        Coarsen.hierarchy ~workspace:ws rng hg ~k
          ~stop_nodes:(max config.stop_nodes (4 * k))
      in
      let levels = Array.of_list levels in
      Log.debug (fun m ->
          m "coarsened %d -> %d nodes over %d levels"
            (Hypergraph.num_nodes hg)
            (Hypergraph.num_nodes coarsest)
            (Array.length levels));
      (* Depth d hypergraph: [hg] for d = 0, else [levels.(d-1).coarse]. *)
      let hypergraph_at d =
        if d = 0 then hg else levels.(d - 1).Coarsen.coarse
      in
      let part = ref (initial_partition config ws rng coarsest ~k) in
      Obs.Span.with_ "multilevel.uncoarsen"
        ~attrs:[ ("levels", Obs.Int (Array.length levels)) ]
        (fun () ->
          for d = Array.length levels - 1 downto 0 do
            part := Coarsen.project levels.(d) !part;
            ignore
              (Refine.refine ~config:(refine_config config) ~workspace:ws
                 (hypergraph_at d) !part)
          done);
      Audit_gate.checked hg !part)

(* Coarsest-level portfolio, parallel edition: the same candidate mix as
   [initial_partition], but each candidate is generated and FM-refined
   as an independent pool task.  Task i's generator is split off the
   caller's rng before the scatter, so the candidate set is a pure
   function of (rng, config) however tasks land on workers; per-worker
   workspaces keep the scratch disjoint, and each task's fm.* emissions
   ride a private Fm_stats accumulator committed at the barrier.  The
   winner is reduced in task-index order (ties keep the earlier
   candidate, matching the sequential fold). *)
let initial_partition_par cfg pool wss rng hg ~k =
  Obs.Span.with_ "multilevel.initial"
    ~attrs:
      [
        ("nodes", Obs.Int (Hypergraph.num_nodes hg));
        ("tries", Obs.Int cfg.initial_tries);
        ("threads", Obs.Int (Parallel.threads pool));
      ]
    (fun () ->
      let kinds =
        Array.of_list
          (List.concat
             [
               Support.Util.list_init cfg.initial_tries (fun _ -> `Random);
               Support.Util.list_init
                 (max 1 (cfg.initial_tries / 2))
                 (fun _ -> `Bfs);
               [ `Round_robin ];
             ])
      in
      let rngs = Array.map (fun _ -> Support.Rng.split rng) kinds in
      let task ~worker i =
        let trng = rngs.(i) in
        let cand =
          match kinds.(i) with
          | `Random ->
              Initial.random_balanced ~variant:cfg.variant ~eps:cfg.eps trng
                hg ~k
          | `Bfs ->
              Initial.bfs_growth ~variant:cfg.variant ~eps:cfg.eps trng hg ~k
          | `Round_robin -> Initial.round_robin hg ~k
        in
        let stats = Fm_stats.create () in
        let cost =
          Refine.refine ~config:(refine_config cfg) ~workspace:wss.(worker)
            ~stats hg cand
        in
        let feasible =
          Partition.is_balanced ~variant:cfg.variant ~eps:cfg.eps hg cand
        in
        (((if feasible then 0 else 1), cost), cand, stats)
      in
      let n = Array.length kinds in
      let best =
        Array.fold_left
          (fun acc (s, p, stats) ->
            Fm_stats.commit stats;
            match acc with
            | Some (bs, _) when bs <= s -> acc
            | _ -> Some (s, p))
          None
          (Parallel.map pool ~n task)
      in
      match best with
      | Some ((infeasible, cost), p) ->
          Obs.Span.attr "best_cost" (Obs.Int cost);
          Obs.Span.attr "feasible" (Obs.Bool (infeasible = 0));
          p
      | None -> assert false)

(* The parallel driver: domain-pool lifecycle strictly inside one solve
   (never live across the engine's fork-based pool), parallel
   propose/commit coarsening, the parallel initial portfolio above, and
   synchronized label-propagation refinement per uncoarsening level.
   Every cross-domain merge is index-ordered, so the result is a pure
   function of
   (hypergraph, rng, config) — identical bytes for every [threads]. *)
let partition_par config rng hg ~k =
  Obs.Span.with_ "multilevel"
    ~attrs:
      [
        ("n", Obs.Int (Hypergraph.num_nodes hg));
        ("m", Obs.Int (Hypergraph.num_edges hg));
        ("k", Obs.Int k);
        ("threads", Obs.Int config.threads);
      ]
    (fun () ->
      Obs.Histogram.observe_int h_instance_nodes (Hypergraph.num_nodes hg);
      Parallel.run ~threads:config.threads @@ fun pool ->
      let wss =
        Array.init (Parallel.threads pool) (fun _ -> Workspace.create ())
      in
      let coarsest, levels =
        Par_coarsen.hierarchy pool wss hg ~k
          ~stop_nodes:(max config.stop_nodes (4 * k))
      in
      let levels = Array.of_list levels in
      Log.debug (fun m ->
          m "coarsened %d -> %d nodes over %d levels (%d threads)"
            (Hypergraph.num_nodes hg)
            (Hypergraph.num_nodes coarsest)
            (Array.length levels) config.threads);
      let hypergraph_at d =
        if d = 0 then hg else levels.(d - 1).Coarsen.coarse
      in
      let part = ref (initial_partition_par config pool wss rng coarsest ~k) in
      Obs.Span.with_ "multilevel.uncoarsen"
        ~attrs:[ ("levels", Obs.Int (Array.length levels)) ]
        (fun () ->
          for d = Array.length levels - 1 downto 0 do
            part := Coarsen.project levels.(d) !part;
            ignore
              (Par_refine.refine pool wss ~config:(refine_config config)
                 (hypergraph_at d) !part)
          done);
      Audit_gate.checked hg !part)

let partition ?(config = default_config) rng hg ~k =
  if k < 1 then invalid_arg "Multilevel.partition: k must be >= 1";
  if Hypergraph.num_nodes hg = 0 then Partition.create ~k [||]
  else if config.threads <= 0 then partition_seq config rng hg ~k
  else partition_par config rng hg ~k

let h_cost = Obs.Histogram.make "multilevel.cost"

let partition_with_cost ?(config = default_config) rng hg ~k =
  let part = partition ~config rng hg ~k in
  let cost =
    Audit_gate.checked_cost ~metric:config.metric hg part
      (Partition.cost ~metric:config.metric hg part)
  in
  Obs.Histogram.observe_int h_cost cost;
  (part, cost)

(* V-cycle: re-coarsen with clusters confined to the current parts (so the
   projected partition is exact at every level), then refine on the way
   back up.  Improves an existing partition without losing it. *)
let vcycle ?(config = default_config) ?(cycles = 1) rng hg part =
 Obs.Span.with_ "multilevel.vcycle"
   ~attrs:
     [
       ("n", Obs.Int (Hypergraph.num_nodes hg));
       ("cycles", Obs.Int (max 1 cycles));
     ]
 @@ fun () ->
  let k = Partition.k part in
  let total = Hypergraph.total_node_weight hg in
  let max_cluster_weight = max 1 (Support.Util.ceil_div total (4 * k)) in
  let ws = Workspace.create () in
  for _ = 1 to max 1 cycles do
    (* Build a within-part hierarchy. *)
    let rec coarsen_stack acc current current_part =
      if Hypergraph.num_nodes current <= max config.stop_nodes (4 * k) then
        (acc, current, current_part)
      else
        match
          Coarsen.one_level ~workspace:ws
            ~within:(Partition.assignment current_part) rng current
            ~max_cluster_weight
        with
        | None -> (acc, current, current_part)
        | Some level ->
            let coarse = level.Coarsen.coarse in
            if Hypergraph.num_nodes coarse >= Hypergraph.num_nodes current
            then (acc, current, current_part)
            else begin
              (* The coarse partition: clusters are monochromatic. *)
              let coarse_colors =
                Array.make (Hypergraph.num_nodes coarse) 0
              in
              Array.iteri
                (fun fine cl ->
                  coarse_colors.(cl) <- Partition.color current_part fine)
                level.Coarsen.label;
              let coarse_part = Partition.create ~k coarse_colors in
              coarsen_stack ((current, level) :: acc) coarse coarse_part
            end
    in
    let stack, coarsest, coarsest_part = coarsen_stack [] hg part in
    ignore coarsest;
    (* Refine bottom-up. *)
    let current_part = ref coarsest_part in
    ignore
      (Refine.refine ~config:(refine_config config) ~workspace:ws coarsest
         !current_part);
    List.iter
      (fun (fine_hg, level) ->
        current_part := Coarsen.project level !current_part;
        ignore
          (Refine.refine ~config:(refine_config config) ~workspace:ws fine_hg
             !current_part))
      stack;
    (* Copy the improved assignment back into [part] (same domain). *)
    Array.blit
      (Partition.assignment !current_part)
      0 (Partition.assignment part) 0
      (Hypergraph.num_nodes hg)
  done;
  Audit_gate.checked_cost ~metric:config.metric hg part
    (Partition.cost ~metric:config.metric hg part)

(* Random-restart portfolio: keep the best of several independent runs,
   preferring feasible partitions. *)
let partition_best ?(config = default_config) ?(restarts = 4) rng hg ~k =
  let best = ref None in
  for _ = 1 to max 1 restarts do
    let part = partition ~config rng hg ~k in
    let feasible =
      Partition.is_balanced ~variant:config.variant ~eps:config.eps hg part
    in
    let score = ((if feasible then 0 else 1), Partition.cost ~metric:config.metric hg part) in
    match !best with
    | Some (bs, _) when bs <= score -> ()
    | _ -> best := Some (score, part)
  done;
  match !best with
  | Some (_, p) -> Audit_gate.checked hg p
  | None -> assert false
