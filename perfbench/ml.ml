(* The in-process multilevel workloads.

   A run sets up a fixed corpus of instances (generate, save as hMETIS,
   load back), then partitions them with
   Solvers.Multilevel.partition_with_cost.  The first solve of each
   instance is cold; the rest of the measured window repeats solves of
   the same instances (warm), each of which must reproduce its cold
   partition exactly.  Before the window, a few instances made from the
   workload seed are set up, solved and checked the same way, untimed.
   A traced run adds the per-layer breakdown. *)

type params = {
  generate : Support.Rng.t -> Hypergraph.t;
  k : int;
  eps : float;
  threads : int;
  instances : int;  (* the fixed corpus, timed *)
  seeded : int;  (* made from the seed, checked before the window *)
}

let params ~tiny = function
  | "ml-seq-random" ->
      let n = if tiny then 600 else 50_000 in
      Some
        {
          generate =
            (fun rng ->
              Workloads.Rand_hg.uniform rng ~n ~m:(3 * n / 2) ~min_size:2
                ~max_size:6);
          k = 8;
          eps = 0.03;
          threads = 0;
          instances = 8;
          seeded = 2;
        }
  | "ml-par-planted" ->
      let n = if tiny then 600 else 20_000 in
      Some
        {
          generate =
            (fun rng ->
              Workloads.Rand_hg.planted rng ~n ~m:(2 * n) ~k:8 ~locality:0.9
                ~edge_size:4);
          k = 8;
          eps = 0.03;
          threads = 2;
          instances = 24;
          seeded = 2;
        }
  | _ -> None

(* Seeds both the generator and the solver of instance [i].  Instances
   [0 .. instances - 1] are a fixed corpus, the same whatever the seed:
   every time and the connectivity are measured on it, so the spread
   between runs is the program's and the machine's, not the input
   draw's.  A seed-made instance could be the slowest solve, which the
   p95 of a few samples is, and on planted inputs the parallel path
   sometimes misses the planted structure, so that one instance's
   connectivity comes out two to four times the usual.  The instances
   after the corpus are made from the seed; they are solved and checked,
   and their connectivity goes to stderr. *)
let instance_seed p ~seed i =
  if i < p.instances then 1_000_000 + i else (seed * 7919) + i

let now = Support.Util.monotonic_ns
let since t0 = Support.Util.seconds_of_ns (Int64.sub (now ()) t0)

let timed f =
  let t0 = now () in
  let r = f () in
  (r, since t0)

(* Set-up of one instance: generate, save as hMETIS, load back — the
   parse a CLI user pays.  The round trip must preserve the shape. *)
let setup p ~dir ~seed ~spans ~tally i =
  let path = Filename.concat dir (Printf.sprintf "instance-%d.hgr" i) in
  let t0 = now () in
  let hg = p.generate (Support.Rng.create (instance_seed p ~seed i)) in
  Hypergraph.Hmetis.save path hg;
  let loaded =
    Spans.time spans "hypergraph.load" (fun () -> Hypergraph.Hmetis.load path)
  in
  Spans.record spans "setup" (since t0);
  Sys.remove path;
  let shape g = Hypergraph.(num_nodes g, num_edges g, num_pins g) in
  let (n, m, pins), (n', m', pins') = (shape hg, shape loaded) in
  Tally.expect tally
    (n = n' && m = m' && pins = pins')
    (lazy (Printf.sprintf "instance %d: hMETIS round trip changed its shape" i));
  loaded

let solve p ?(threads = p.threads) ~seed i hg =
  Solvers.Multilevel.partition_with_cost
    ~config:{ Solvers.Multilevel.default_config with eps = p.eps; threads }
    (Support.Rng.create (instance_seed p ~seed i))
    hg ~k:p.k

let check p ~spans ~tally ~what hg (part, cost) =
  Spans.time spans "partition.check" (fun () ->
      Tally.check_partition tally ~eps:p.eps ~what hg part ~claimed:cost)

let expect_same tally ~what (part, cost) (part', cost') =
  Tally.expect tally
    (Partition.equal part part' && cost = cost')
    (lazy (Printf.sprintf "%s: partition differs (cost %d vs %d)" what cost cost'))

(* ---- untraced run: the end-to-end metrics ------------------------------- *)

(* Instance i owns the i-th slice of the window: after its set-up it is
   solved once (cold), then again (warm) at least once, and more while
   the last solve's time still fits in the slice.  Cold and warm samples
   so spread over the whole run, and the run measures for about the
   window, not for the window plus an overshoot of each slice. *)
let run p ~dir ~seed ~seconds =
  let spans = Spans.create () and tally = Tally.create () in
  (* The seed-made instances come first: set up, solved once and
     checked, untimed.  They also take the process's first solves, which
     grow the heap from nothing and so ran up to a quarter slower than a
     repeat; the corpus's cold solves are then each instance's first, in
     a warmed process. *)
  let seeded =
    List.init p.seeded (fun j ->
        let i = p.instances + j in
        let hg = setup p ~dir ~seed ~spans ~tally i in
        let what = Printf.sprintf "instance %d" i in
        let result = solve p ~seed i hg in
        ignore (check p ~spans ~tally ~what hg result : float);
        snd result)
  in
  let slice = seconds /. float_of_int p.instances in
  let cold =
    Array.init p.instances (fun i ->
        let hg = setup p ~dir ~seed ~spans ~tally i in
        let what = Printf.sprintf "instance %d" i in
        let start = now () in
        let first, dt = timed (fun () -> solve p ~seed i hg) in
        Spans.record spans "cold" dt;
        ignore (check p ~spans ~tally ~what hg first : float);
        let rec warm j last =
          if j = 0 || since start +. last <= slice then begin
            let again, dt = timed (fun () -> solve p ~seed i hg) in
            Spans.record spans "warm" dt;
            expect_same tally ~what:(what ^ ", repeat") first again;
            warm (j + 1) dt
          end
        in
        warm 0 dt;
        snd first)
  in
  let show name =
    String.concat " " (List.map (Printf.sprintf "%.3f") (Spans.samples spans name))
  in
  Printf.eprintf
    "[ml] connectivity per corpus instance: %s; per seed-made instance: %s; \
     seconds per set-up: %s; cold solve: %s; warm solve: %s\n%!"
    (String.concat " " (Array.to_list (Array.map string_of_int cold)))
    (String.concat " " (List.map string_of_int seeded))
    (show "setup") (show "cold") (show "warm");
  let phase name =
    let s = Spans.samples spans name in
    Stats.phase_metrics name s ~busy_s:(Stats.sum s)
  in
  let metrics =
    [
      ( "solve_s",
        Stats.median (Spans.samples spans "cold" @ Spans.samples spans "warm") );
      ("connectivity", float_of_int (Array.fold_left ( + ) 0 cold));
      ("setup_s", Spans.median spans "setup");
      ("peak_rss_mb", Run_dir.peak_rss_mb ());
    ]
    @ phase "cold" @ phase "warm"
  in
  (tally, metrics)

(* ---- traced run: the per-layer metrics ---------------------------------- *)

(* The coarsening hierarchy the solve builds: the sequential path seeds
   Coarsen.hierarchy from the solve's rng (it is the first consumer), the
   parallel path's Par_coarsen.hierarchy is rng-free. *)
let coarsest p ~seed i hg =
  let stop_nodes = max Solvers.Multilevel.default_config.stop_nodes (4 * p.k) in
  let coarse, _ =
    if p.threads <= 0 then
      Solvers.Coarsen.hierarchy
        ~workspace:(Solvers.Workspace.create ())
        (Support.Rng.create (instance_seed p ~seed i))
        hg ~k:p.k ~stop_nodes
    else
      Parallel.run ~threads:p.threads (fun pool ->
          let wss =
            Array.init (Parallel.threads pool) (fun _ ->
                Solvers.Workspace.create ())
          in
          Solvers.Par_coarsen.hierarchy pool wss hg ~k:p.k ~stop_nodes)
  in
  coarse

let traced_solve p ?threads ~seed ~layers i hg =
  Obs.set_enabled true;
  Obs.reset_stats ();
  let result, dt = timed (fun () -> solve p ?threads ~seed i hg) in
  Layers.add_snapshot layers (Obs.snapshot ());
  Obs.set_enabled false;
  (result, dt)

(* The traced run breaks down the solves of the first few instances. *)
let traced_instances = 4

let run_traced p ~dir ~seed =
  Obs.set_enabled false;
  let spans = Spans.create () and tally = Tally.create () in
  let layers = Layers.create () and layers_t1 = Layers.create () in
  let hgs =
    Array.init (min traced_instances p.instances) (setup p ~dir ~seed ~spans ~tally)
  in
  let imbalance = ref 0.0 and nodes = ref 0 and pins = ref 0 in
  Array.iteri
    (fun i hg ->
      let what = Printf.sprintf "instance %d" i in
      let untraced () =
        let a0 = Obs.Prof.allocated_words () in
        let result, dt = timed (fun () -> solve p ~seed i hg) in
        Spans.record spans "solve.alloc_words" (Obs.Prof.allocated_words () -. a0);
        Spans.record spans "solve.untraced" dt;
        result
      in
      let traced () =
        let result, dt = traced_solve p ~seed ~layers i hg in
        Spans.record spans "solve.traced" dt;
        result
      in
      (* Alternate the order so neither side always runs on a warm heap. *)
      let plain, with_obs =
        if i mod 2 = 0 then
          let a = untraced () in
          (a, traced ())
        else
          let b = traced () in
          (untraced (), b)
      in
      imbalance :=
        Float.max !imbalance (check p ~spans ~tally ~what hg plain);
      expect_same tally ~what:(what ^ ", traced") plain with_obs;
      let c = coarsest p ~seed i hg in
      nodes := !nodes + Hypergraph.num_nodes c;
      pins := !pins + Hypergraph.num_pins c;
      if p.threads > 1 then begin
        let one, dt = traced_solve p ~threads:1 ~seed ~layers:layers_t1 i hg in
        Spans.record spans "solve.t1" dt;
        expect_same tally ~what:(what ^ ", threads=1 vs threads=" ^
                                  string_of_int p.threads) with_obs one
      end)
    hgs;
  let solver = Layers.metrics layers in
  let speedup name =
    if p.threads > 1 then
      Stats.ratio
        (List.assoc name (Layers.metrics layers_t1))
        (List.assoc name solver)
    else 0.0
  in
  let metrics =
    [
      ("hypergraph.load_s", Spans.median spans "hypergraph.load");
      ("coarsen.coarsest_nodes", float_of_int !nodes);
      ("coarsen.coarsest_pins", float_of_int !pins);
    ]
    @ solver
    @ [
        ( "parallel.speedup",
          if p.threads > 1 then
            Stats.ratio (Spans.median spans "solve.t1")
              (Spans.median spans "solve.traced")
          else 0.0 );
        ("parallel.coarsen_speedup", speedup "coarsen.s");
        ("parallel.uncoarsen_speedup", speedup "uncoarsen.s");
        ("partition.check_s", Spans.median spans "partition.check");
        ("partition.imbalance_max", !imbalance);
        ("solve.alloc_mwords", Spans.median spans "solve.alloc_words" /. 1e6);
        ( "obs.overhead_ratio",
          Stats.ratio
            (Spans.median spans "solve.traced")
            (Spans.median spans "solve.untraced") );
      ]
    (* No engine, cache or daemon runs in this workload. *)
    @ List.map
        (fun name -> (name, 0.0))
        [
          "engine.job.wall_s"; "engine.cache.hit"; "engine.cache.miss";
          "engine.cache.store"; "server.queue_wait_p50_s";
          "server.queue_wait_p95_s"; "server.solve_s"; "server.respond_s";
          "server.step_s"; "client.step_s"; "server.busy";
        ]
  in
  (tally, metrics)
