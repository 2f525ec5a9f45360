(* Every metric the benchmark prints, with its unit: the end-to-end set
   of an untraced run and the per-layer set of a traced run.  Every
   workload prints every metric of its set; a layer that a workload
   bypasses reads 0 there. *)

let end_to_end =
  [
    ("solve_s", "s");
    ("connectivity", "lambda-1");
    ("setup_s", "s");
    ("peak_rss_mb", "MiB");
    ("cold_p50_s", "s");
    ("cold_p95_s", "s");
    ("cold_rps", "1/s");
    ("warm_p50_s", "s");
    ("warm_p95_s", "s");
    ("warm_rps", "1/s");
  ]

let per_layer =
  [
    ("hypergraph.load_s", "s");
    ("coarsen.s", "s");
    ("coarsen.levels", "count");
    ("coarsen.coarsest_nodes", "count");
    ("coarsen.coarsest_pins", "count");
    ("initial.s", "s");
    ("initial.refine_passes", "count");
    ("uncoarsen.s", "s");
    ("uncoarsen.refine_passes", "count");
    ("fm.pops", "count");
    ("fm.moves_applied", "count");
    ("fm.accept_ratio", "ratio");
    ("fm.gain_cache.delta_updates", "count");
    ("fm.gain_cache.hit_ratio", "ratio");
    ("lp.rounds", "count");
    ("lp.moves_applied", "count");
    ("lp.conflict_ratio", "ratio");
    ("parallel.speedup", "ratio");
    ("parallel.coarsen_speedup", "ratio");
    ("parallel.uncoarsen_speedup", "ratio");
    ("partition.check_s", "s");
    ("partition.imbalance_max", "ratio");
    ("solve.alloc_mwords", "Mwords");
    ("engine.job.wall_s", "s");
    ("engine.cache.hit", "count");
    ("engine.cache.miss", "count");
    ("engine.cache.store", "count");
    ("server.queue_wait_p50_s", "s");
    ("server.queue_wait_p95_s", "s");
    ("server.solve_s", "s");
    ("server.respond_s", "s");
    ("server.step_s", "s");
    ("client.step_s", "s");
    ("server.busy", "count");
    ("obs.overhead_ratio", "ratio");
  ]

let workloads = [ "ml-seq-random"; "ml-par-planted"; "serve-cold-warm" ]
