(* hypartition — command-line hypergraph partitioner.

   Subcommands:
     partition FILE   partition an hMETIS hypergraph and report metrics
     stats FILE       structural statistics of an hMETIS hypergraph
     recognize FILE   decide whether the hypergraph is a hyperDAG
     hierarchical FILE  hierarchical (NUMA) partitioning, Definition 7.1
     check FILE [PARTS]  audit an instance (and a partition) against the
                      paper invariants; exits non-zero on violations *)

open Cmdliner

let load_hypergraph path =
  try Ok (Hypergraph.Hmetis.load path) with
  | Failure msg -> Error msg
  | Sys_error msg -> Error msg

let hypergraph_arg =
  let doc = "Input hypergraph in hMETIS format." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let k_arg =
  let doc = "Number of parts." in
  Arg.(value & opt int 2 & info [ "k"; "parts" ] ~docv:"K" ~doc)

let eps_arg =
  let doc = "Balance parameter epsilon: parts hold at most (1+eps)*W/k." in
  Arg.(value & opt float 0.03 & info [ "e"; "eps" ] ~docv:"EPS" ~doc)

let seed_arg =
  let doc = "Random seed (the solvers are deterministic given the seed)." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

(* Observability: --trace/--stats mirror the HYPARTITION_TRACE and
   HYPARTITION_OBS environment variables (lib/obs reads those lazily; the
   flags just enable the sinks explicitly and take precedence). *)

let trace_arg =
  let doc =
    Printf.sprintf
      "Write a JSONL span trace (schema %s) of the run to $(docv), \
       truncating any existing file."
      Obs.trace_schema_version
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"TRACE" ~doc)

let stats_flag =
  let doc =
    "Print the aggregated span tree and metric summary to stderr on exit."
  in
  Arg.(value & flag & info [ "stats" ] ~doc)

let setup_obs trace stats =
  (match trace with
  | Some path ->
      Obs.enable_trace path;
      (* Stamp the header before any spans: the trace should identify its
         machine and revision even for subcommands that never reach the
         batch engine (which stamps its own richer record). *)
      Obs.emit_provenance (Engine.Provenance.collect ())
  | None -> ());
  if stats then Obs.enable_summary ()

let algorithm_arg =
  let algs =
    [
      ("multilevel", `Multilevel);
      ("recursive", `Recursive);
      ("fm", `Fm);
      ("bfs", `Bfs);
      ("random", `Random);
      ("exact", `Exact);
    ]
  in
  let doc =
    Printf.sprintf "Partitioning algorithm: %s."
      (String.concat ", " (List.map fst algs))
  in
  Arg.(value & opt (enum algs) `Multilevel & info [ "a"; "algorithm" ] ~doc)

let threads_arg =
  let doc =
    "Solver domains for the multilevel parallel path (0 = the sequential \
     path).  The parallel path's result is identical for every N >= 1; \
     it is a different algorithm from the sequential path and does not \
     reproduce its partitions."
  in
  Arg.(value & opt int 0 & info [ "threads" ] ~docv:"N" ~doc)

let metric_arg =
  let doc = "Cost metric: connectivity (sum of lambda-1) or cutnet." in
  Arg.(
    value
    & opt (enum [ ("connectivity", Partition.Connectivity);
                  ("cutnet", Partition.Cut_net) ])
        Partition.Connectivity
    & info [ "metric" ] ~doc)

let output_arg =
  let doc = "Write the partition vector (one part id per line) to $(docv)." in
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc)

let dot_arg =
  let doc = "Write a Graphviz rendering of the partitioned hypergraph." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"DOT" ~doc)

let report hg part metric =
  Printf.printf "k            : %d\n" (Partition.k part);
  Printf.printf "connectivity : %d\n" (Partition.connectivity_cost hg part);
  Printf.printf "cut-net      : %d\n" (Partition.cutnet_cost hg part);
  Printf.printf "imbalance    : %.4f\n" (Partition.imbalance hg part);
  Printf.printf "part weights : %s\n"
    (String.concat " "
       (Array.to_list (Array.map string_of_int (Partition.part_weights hg part))));
  ignore metric

let run_partition trace stats path k eps seed algorithm metric threads
    output dot =
  setup_obs trace stats;
  if threads > 0 && algorithm <> `Multilevel then begin
    Printf.eprintf "error: --threads applies to the multilevel algorithm only\n";
    exit 1
  end;
  match load_hypergraph path with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok hg ->
      let rng = Support.Rng.create seed in
      let part =
        match algorithm with
        | `Multilevel ->
            Solvers.Multilevel.partition
              ~config:
                {
                  Solvers.Multilevel.default_config with
                  eps;
                  metric;
                  threads;
                }
              rng hg ~k
        | `Recursive ->
            Solvers.Recursive_bisection.partition ~eps
              ~bisector:(Solvers.Recursive_bisection.multilevel_bisector rng)
              hg ~k
        | `Fm ->
            let p = Solvers.Initial.random_balanced ~eps rng hg ~k in
            ignore
              (Solvers.Refine.refine
                 ~config:{ Solvers.Refine.default_config with eps; metric }
                 hg p);
            p
        | `Bfs -> Solvers.Initial.bfs_growth ~eps rng hg ~k
        | `Random -> Solvers.Initial.random_balanced ~eps rng hg ~k
        | `Exact -> (
            if Hypergraph.num_nodes hg > 24 then begin
              Printf.eprintf
                "error: exact solver limited to 24 nodes (got %d)\n"
                (Hypergraph.num_nodes hg);
              exit 1
            end;
            match Solvers.Exact.solve ~metric ~eps hg ~k with
            | Some { Solvers.Exact.part; _ } -> part
            | None ->
                Printf.eprintf "error: no eps-balanced partition exists\n";
                exit 1)
      in
      report hg part metric;
      (match output with
      | Some out ->
          Out_channel.with_open_text out (fun oc ->
              Array.iter
                (fun c -> output_string oc (string_of_int c ^ "\n"))
                (Partition.assignment part))
      | None -> ());
      (match dot with
      | Some out -> Hypergraph.Dot.save ~parts:(Partition.assignment part) out hg
      | None -> ());
      0

let run_stats path =
  match load_hypergraph path with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok hg ->
      Printf.printf "nodes (n)    : %d\n" (Hypergraph.num_nodes hg);
      Printf.printf "edges (m)    : %d\n" (Hypergraph.num_edges hg);
      Printf.printf "pins (rho)   : %d\n" (Hypergraph.num_pins hg);
      Printf.printf "max degree   : %d\n" (Hypergraph.max_degree hg);
      Printf.printf "node weight  : %d\n" (Hypergraph.total_node_weight hg);
      Printf.printf "edge weight  : %d\n" (Hypergraph.total_edge_weight hg);
      let _, components = Hypergraph.connected_components hg in
      Printf.printf "components   : %d\n" components;
      0

let run_recognize path =
  match load_hypergraph path with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok hg -> (
      match Hyperdag.recognize hg with
      | Some generators ->
          Printf.printf "hyperDAG: yes\n";
          Printf.printf "generators (edge: node):\n";
          Array.iteri (fun e g -> Printf.printf "  %d: %d\n" e g) generators;
          0
      | None ->
          Printf.printf "hyperDAG: no\n";
          (match Hyperdag.violating_subset hg with
          | Some nodes ->
              Printf.printf "violating subset (all degrees >= 2): %s\n"
                (String.concat " "
                   (Array.to_list (Array.map string_of_int nodes)))
          | None -> ());
          0)

let branching_arg =
  let doc = "Branching factors b1,b2,... of the hierarchy (product = k)." in
  Arg.(value & opt (list int) [ 2; 2 ] & info [ "branching" ] ~docv:"B1,B2" ~doc)

let costs_arg =
  let doc = "Per-level transfer costs g1,g2,... (non-increasing, g_d = 1)." in
  Arg.(value & opt (list float) [ 4.0; 1.0 ] & info [ "costs" ] ~docv:"G1,G2" ~doc)

let run_hierarchical trace stats path eps seed branching costs =
  setup_obs trace stats;
  match load_hypergraph path with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok hg -> (
      match
        Hierarchy.Topology.create
          ~branching:(Array.of_list branching)
          ~costs:(Array.of_list costs)
      with
      | exception Invalid_argument msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | topo ->
          let rng = Support.Rng.create seed in
          let k = Hierarchy.Topology.num_leaves topo in
          (* Two-step method with a multilevel step (i). *)
          let two =
            Hierarchy.Two_step.run
              ~partitioner:(fun hg ~k ->
                Solvers.Multilevel.partition
                  ~config:{ Solvers.Multilevel.default_config with eps }
                  rng hg ~k)
              topo hg
          in
          (* Recursive hierarchical partitioning. *)
          let recursive =
            Hierarchy.Recursive_hier.partition ~eps
              ~splitter:(Hierarchy.Recursive_hier.multilevel_splitter rng)
              topo hg
          in
          Printf.printf "topology      : %s\n"
            (Fmt.str "%a" Hierarchy.Topology.pp topo);
          Printf.printf "k (leaves)    : %d\n" k;
          Printf.printf "two-step      : flat %d, hierarchical %.2f\n"
            two.Hierarchy.Two_step.flat_cost two.Hierarchy.Two_step.hier_cost;
          Printf.printf "recursive     : flat %d, hierarchical %.2f\n"
            (Partition.connectivity_cost hg recursive)
            (Hierarchy.Hier_cost.cost topo hg recursive);
          0)

let partition_file_arg =
  let doc = "Partition vector file: one part id per line." in
  Arg.(required & pos 1 (some file) None & info [] ~docv:"PARTS" ~doc)

let run_evaluate path parts_path branching costs =
  match load_hypergraph path with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok hg -> (
      match Partition.Io.load ~n:(Hypergraph.num_nodes hg) parts_path with
      | exception Failure msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | part ->
          let k = Partition.k part in
          report hg part Partition.Connectivity;
          (* Hierarchical cost when the topology matches k. *)
          (match
             Hierarchy.Topology.create
               ~branching:(Array.of_list branching)
               ~costs:(Array.of_list costs)
           with
          | exception Invalid_argument _ -> ()
          | topo ->
              if Hierarchy.Topology.num_leaves topo = k then
                Printf.printf "hierarchical : %.2f  (%s)\n"
                  (Hierarchy.Hier_cost.cost topo hg part)
                  (Fmt.str "%a" Hierarchy.Topology.pp topo));
          0)

let dag_arg =
  let doc = "Input DAG ('n m' header, then 'u v' edge lines)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"DAG" ~doc)

let run_schedule trace stats path k =
  setup_obs trace stats;
  match (try Ok (Hyperdag.Dag_io.load path) with Failure m -> Error m) with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok dag ->
      Printf.printf "nodes          : %d\n" (Hyperdag.Dag.num_nodes dag);
      Printf.printf "edges          : %d\n" (Hyperdag.Dag.num_edges dag);
      Printf.printf "critical path  : %d\n"
        (Hyperdag.Dag.critical_path_length dag);
      Printf.printf "lower bound    : %d\n" (Scheduling.Mu.lower_bound dag ~k);
      (match Scheduling.Mu.makespan_general dag ~k with
      | Scheduling.Mu.Exact m -> Printf.printf "optimal mu     : %d\n" m
      | Scheduling.Mu.Bounds (lo, hi) ->
          Printf.printf "mu bounds      : [%d, %d]\n" lo hi);
      let sched = Scheduling.List_sched.schedule dag ~k in
      Printf.printf "list schedule  : makespan %d (valid %b)\n"
        (Scheduling.Schedule.makespan sched)
        (Scheduling.Schedule.is_valid ~k dag sched);
      0

let run_convert path output =
  match (try Ok (Hyperdag.Dag_io.load path) with Failure m -> Error m) with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      1
  | Ok dag ->
      let hg, generators = Hyperdag.of_dag dag in
      Printf.printf "hyperDAG: %d nodes, %d hyperedges (Definition 3.2)\n"
        (Hypergraph.num_nodes hg) (Hypergraph.num_edges hg);
      Printf.printf "generators: %s\n"
        (String.concat " "
           (Array.to_list (Array.map string_of_int generators)));
      (match output with
      | Some out ->
          Hypergraph.Hmetis.save out hg;
          Printf.printf "wrote %s\n" out
      | None -> ());
      0

let schedule_cmd =
  let info =
    Cmd.info "schedule"
      ~doc:"Makespan bounds and a list schedule for a computational DAG."
  in
  Cmd.v info Term.(const run_schedule $ trace_arg $ stats_flag $ dag_arg $ k_arg)

let convert_cmd =
  let info =
    Cmd.info "convert"
      ~doc:"Convert a computational DAG to its hyperDAG (hMETIS output)."
  in
  Cmd.v info Term.(const run_convert $ dag_arg $ output_arg)

let out_required_arg =
  let doc = "Output file." in
  Arg.(required & opt (some string) None & info [ "o"; "output" ] ~docv:"OUT" ~doc)

let run_generate kind n k out seed =
  let rng = Support.Rng.create seed in
  match kind with
  | `Random ->
      Hypergraph.Hmetis.save out
        (Workloads.Rand_hg.uniform rng ~n ~m:(3 * n / 2) ~min_size:2
           ~max_size:6);
      0
  | `Two_regular ->
      Hypergraph.Hmetis.save out
        (Workloads.Rand_hg.two_regular rng ~n ~m:(max 2 (n / 2)));
      0
  | `Planted ->
      Hypergraph.Hmetis.save out
        (Workloads.Rand_hg.planted rng ~n ~m:(2 * n) ~k ~locality:0.9
           ~edge_size:4);
      0
  | `Spmv ->
      let side = max 2 (int_of_float (sqrt (float_of_int n))) in
      Hypergraph.Hmetis.save out
        (Workloads.Spmv.fine_grain (Workloads.Spmv.banded ~size:side ~bandwidth:2));
      0
  | `Fft ->
      let stages = max 1 (int_of_float (Float.log2 (float_of_int (max 2 n)))) in
      Hyperdag.Dag_io.save out (Workloads.Dag_gen.fft ~stages);
      0
  | `Stencil ->
      let side = max 2 (int_of_float (sqrt (float_of_int n))) in
      Hyperdag.Dag_io.save out
        (Workloads.Dag_gen.stencil_1d ~width:side ~steps:side);
      0

let generate_cmd =
  let kind_arg =
    let kinds =
      [
        ("random", `Random); ("two-regular", `Two_regular);
        ("planted", `Planted); ("spmv", `Spmv); ("fft", `Fft);
        ("stencil", `Stencil);
      ]
    in
    let doc =
      Printf.sprintf "Workload family: %s."
        (String.concat ", " (List.map fst kinds))
    in
    Arg.(required & pos 0 (some (enum kinds)) None & info [] ~docv:"KIND" ~doc)
  in
  let n_arg =
    let doc = "Approximate size parameter." in
    Arg.(value & opt int 100 & info [ "n" ] ~docv:"N" ~doc)
  in
  let info =
    Cmd.info "generate"
      ~doc:
        "Generate a workload (hMETIS hypergraph, or DAG for fft/stencil)."
  in
  Cmd.v info
    Term.(
      const run_generate $ kind_arg $ n_arg $ k_arg $ out_required_arg
      $ seed_arg)

let evaluate_cmd =
  let info =
    Cmd.info "evaluate"
      ~doc:"Evaluate an existing partition vector against a hypergraph."
  in
  Cmd.v info
    Term.(
      const run_evaluate $ hypergraph_arg $ partition_file_arg $ branching_arg
      $ costs_arg)

let partition_cmd =
  let info = Cmd.info "partition" ~doc:"Partition an hMETIS hypergraph." in
  Cmd.v info
    Term.(
      const run_partition $ trace_arg $ stats_flag $ hypergraph_arg $ k_arg
      $ eps_arg $ seed_arg $ algorithm_arg $ metric_arg $ threads_arg
      $ output_arg $ dot_arg)

let stats_cmd =
  let info = Cmd.info "stats" ~doc:"Print hypergraph statistics." in
  Cmd.v info Term.(const run_stats $ hypergraph_arg)

let recognize_cmd =
  let info =
    Cmd.info "recognize"
      ~doc:"Decide whether the hypergraph is a hyperDAG (Lemma B.2)."
  in
  Cmd.v info Term.(const run_recognize $ hypergraph_arg)

let hierarchical_cmd =
  let info =
    Cmd.info "hierarchical"
      ~doc:"Hierarchical (NUMA) partitioning with the Definition 7.1 cost."
  in
  Cmd.v info
    Term.(
      const run_hierarchical $ trace_arg $ stats_flag $ hypergraph_arg
      $ eps_arg $ seed_arg $ branching_arg $ costs_arg)

(* check: run the invariant auditors of lib/analysis over an instance file
   and (optionally) a partition vector.  All costs and capacities are
   recomputed from first principles, so a corrupted partition or a buggy
   writer cannot audit clean. *)

let check_file_arg =
  let doc = "Input hypergraph in hMETIS format." in
  Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)

let check_parts_arg =
  let doc = "Optional partition vector file: one part id per line." in
  Arg.(value & pos 1 (some file) None & info [] ~docv:"PARTS" ~doc)

let variant_arg =
  let doc = "Balance variant of Definition 3.1: strict (floor) or relaxed \
             (ceil)." in
  Arg.(
    value
    & opt (enum [ ("strict", Partition.Strict); ("relaxed", Partition.Relaxed) ])
        Partition.Strict
    & info [ "variant" ] ~docv:"VARIANT" ~doc)

let rules_flag =
  let doc = "Print the rule catalogue (rule id, enforced paper invariant) \
             and exit." in
  Arg.(value & flag & info [ "rules" ] ~doc)

let run_check trace stats path parts_path eps variant branching costs rules =
  setup_obs trace stats;
  if rules then begin
    List.iter
      (fun (id, what) -> Printf.printf "%-24s %s\n" id what)
      Analysis.catalogue;
    0
  end
  else
    match path with
    | None ->
        Printf.eprintf "error: FILE required (or --rules)\n";
        2
    | Some path -> (
        match load_hypergraph path with
        | Error msg ->
            Printf.eprintf "error: %s\n" msg;
            1
        | Ok hg -> (
            let structural =
              [ Analysis.Audit_hg.audit hg; Analysis.Audit_hyperdag.audit hg ]
            in
            let with_partition reports =
              List.iter (fun r -> print_endline (Analysis.Check.to_string r)) reports;
              let merged = Analysis.Check.merge ~subject:path reports in
              if stats then
                Printf.printf "%s\n"
                  (Fmt.str "%a" Analysis.Check.pp_timings merged);
              Analysis.Check.exit_code merged
            in
            match parts_path with
            | None -> with_partition structural
            | Some parts_path -> (
                match Partition.Io.load ~n:(Hypergraph.num_nodes hg) parts_path with
                | exception Failure msg ->
                    Printf.eprintf "error: %s\n" msg;
                    1
                | part ->
                    let k = Partition.k part in
                    Printf.printf "recomputed connectivity : %d\n"
                      (Analysis.Audit_partition.recompute_cost
                         Partition.Connectivity hg part);
                    Printf.printf "recomputed cut-net      : %d\n"
                      (Analysis.Audit_partition.recompute_cost Partition.Cut_net
                         hg part);
                    let part_report =
                      Analysis.Audit_partition.audit ~eps ~variant hg part
                    in
                    (* Hierarchical audit when the topology matches k. *)
                    let hier_reports =
                      match
                        Hierarchy.Topology.create
                          ~branching:(Array.of_list branching)
                          ~costs:(Array.of_list costs)
                      with
                      | exception Invalid_argument _ -> []
                      | topo ->
                          if Hierarchy.Topology.num_leaves topo = k then begin
                            Printf.printf "recomputed hierarchical : %.2f\n"
                              (Analysis.Audit_hierarchy.recompute_cost topo hg
                                 part);
                            [ Analysis.Audit_hierarchy.audit topo hg part ]
                          end
                          else []
                    in
                    with_partition (structural @ (part_report :: hier_reports)))))

let check_cmd =
  let info =
    Cmd.info "check"
      ~doc:
        "Audit a hypergraph (and optionally a partition) against the paper \
         invariants; non-zero exit on any violation."
  in
  Cmd.v info
    Term.(
      const run_check $ trace_arg $ stats_flag $ check_file_arg
      $ check_parts_arg $ eps_arg $ variant_arg $ branching_arg $ costs_arg
      $ rules_flag)

(* trace: validate an emitted observability artifact — either a JSONL span
   trace (HYPARTITION_TRACE / --trace) or a BENCH_<gitrev>.json bench
   report — against its schema.  CI runs this over the artifacts it
   uploads. *)

let run_trace_validate path =
  let ( let* ) r f = match r with Error msg -> Error msg | Ok v -> f v in
  let read () =
    try Ok (In_channel.with_open_text path In_channel.input_all)
    with Sys_error msg -> Error msg
  in
  let str_field name json =
    match Option.bind (Obs.Json.member name json) Obs.Json.get_str with
    | Some s -> Ok s
    | None -> Error (Printf.sprintf "missing string field %S" name)
  in
  let num_field name json =
    match Option.bind (Obs.Json.member name json) Obs.Json.get_float with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "missing numeric field %S" name)
  in
  let validate_bench doc =
    let* rev = str_field "git_rev" doc in
    let* experiments =
      match Obs.Json.member "experiments" doc with
      | Some (Obs.Json.Arr l) -> Ok l
      | _ -> Error "missing array field \"experiments\""
    in
    let* () =
      List.fold_left
        (fun acc e ->
          let* () = acc in
          let* id = str_field "id" e in
          let* wall = num_field "wall_s" e in
          if wall < 0.0 then
            Error (Printf.sprintf "experiment %s: negative wall_s" id)
          else Ok ())
        (Ok ()) experiments
    in
    (* hypartition-bench/2: experiments run through the batch engine, so
       the report also carries the engine section (worker count, cache
       statistics). *)
    let* () =
      match Obs.Json.member "engine" doc with
      | Some (Obs.Json.Obj _ as engine) -> (
          match Obs.Json.member "jobs" engine with
          | Some (Obs.Json.Int j) when j >= 1 -> Ok ()
          | _ -> Error "engine section lacks a positive integer \"jobs\"")
      | _ -> Error "missing object field \"engine\""
    in
    Printf.printf "valid bench report (schema %s, git %s): %d experiments\n"
      Obs.bench_schema_version rev (List.length experiments);
    Ok ()
  in
  let validate_batch doc =
    (* hypartition-batch/1: the `batch` subcommand's JSON report — engine
       stats plus one result record per plan, each echoing its cache
       provenance. *)
    let int_field name json =
      match Option.bind (Obs.Json.member name json) Obs.Json.get_int with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "missing integer field %S" name)
    in
    let* stats =
      match Obs.Json.member "stats" doc with
      | Some (Obs.Json.Obj _ as s) -> Ok s
      | _ -> Error "missing object field \"stats\""
    in
    let* total = int_field "total" stats in
    let* from_cache = int_field "from_cache" stats in
    let* results =
      match Obs.Json.member "results" doc with
      | Some (Obs.Json.Arr l) -> Ok l
      | _ -> Error "missing array field \"results\""
    in
    let* () =
      if List.length results <> total then
        Error
          (Printf.sprintf "stats.total = %d but %d results" total
             (List.length results))
      else Ok ()
    in
    let known_status s =
      List.mem s [ "ok"; "failed"; "timeout"; "crashed"; "skipped" ]
    in
    let* cached_count =
      List.fold_left
        (fun acc (lineno, r) ->
          let* n = acc in
          let* fp = str_field "fingerprint" r in
          let* status = str_field "status" r in
          let* () =
            if known_status status then Ok ()
            else
              Error
                (Printf.sprintf "result %d (%s): unknown status %S" lineno fp
                   status)
          in
          match Obs.Json.member "cached" r with
          | Some (Obs.Json.Bool b) -> Ok (if b then n + 1 else n)
          | _ ->
              Error
                (Printf.sprintf "result %d (%s): missing boolean \"cached\""
                   lineno fp))
        (Ok 0)
        (List.mapi (fun i r -> (i, r)) results)
    in
    let* () =
      if cached_count <> from_cache then
        Error
          (Printf.sprintf "stats.from_cache = %d but %d results marked cached"
             from_cache cached_count)
      else Ok ()
    in
    Printf.printf
      "valid batch report (schema %s): %d results, %d from cache\n"
      Engine.Batch.schema_version total from_cache;
    Ok ()
  in
  let validate_serve_log frames =
    (* hypartition-serve/1: a captured daemon frame stream.  Raw captures
       keep their length-prefix lines (bare integers) — those are
       stripped by the dispatcher below; every remaining line must decode
       as a well-formed protocol frame.  Frames that only parse one way
       classify unambiguously; a handful (e.g. a bare stats request) are
       also syntactically valid in the other direction, so the
       request/response split is informational, not a schema property. *)
    let* nreq, nresp =
      List.fold_left
        (fun acc (lineno, line) ->
          let* nreq, nresp = acc in
          let* doc =
            Result.map_error
              (fun e -> Printf.sprintf "frame %d: %s" lineno e)
              (Obs.Json.parse line)
          in
          match Server.Protocol.response_of_json doc with
          | Ok _ -> Ok (nreq, nresp + 1)
          | Error resp_err -> (
              match Server.Protocol.request_of_json doc with
              | Ok _ -> Ok (nreq + 1, nresp)
              | Error req_err ->
                  Error
                    (Printf.sprintf
                       "frame %d: neither a request (%s) nor a response (%s)"
                       lineno req_err resp_err)))
        (Ok (0, 0))
        (List.mapi (fun i l -> (i + 1, l)) frames)
    in
    Printf.printf
      "valid serve frame log (schema %s): %d frames (%d requests, %d \
       responses)\n"
      Server.Protocol.schema_version (nreq + nresp) nreq nresp;
    Ok ()
  in
  let validate_slo doc =
    (* hypartition-loadgen/1: the load generator's latency-SLO report.
       Beyond field presence this checks internal consistency — totals
       add up, quantiles are monotone, rates and the cache-hit ratio are
       probabilities — which is what lets CI gate on jq extracts of the
       same document without re-deriving them. *)
    let int_field name json =
      match Option.bind (Obs.Json.member name json) Obs.Json.get_int with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "missing integer field %S" name)
    in
    let obj_field name json =
      match Obs.Json.member name json with
      | Some (Obs.Json.Obj _ as o) -> Ok o
      | _ -> Error (Printf.sprintf "missing object field %S" name)
    in
    let unit_interval name v =
      if v < 0.0 || v > 1.0 then
        Error (Printf.sprintf "%s = %g outside [0, 1]" name v)
      else Ok ()
    in
    let* totals = obj_field "totals" doc in
    let* requests = int_field "requests" totals in
    let* ok = int_field "ok" totals in
    let* busy = int_field "busy" totals in
    let* errors = int_field "errors" totals in
    let* () =
      if requests <> ok + busy + errors then
        Error
          (Printf.sprintf "totals.requests = %d but ok+busy+errors = %d"
             requests (ok + busy + errors))
      else Ok ()
    in
    let* lat = obj_field "latency_s" doc in
    let* p50 = num_field "p50" lat in
    let* p99 = num_field "p99" lat in
    let* p999 = num_field "p999" lat in
    let* () =
      if p50 < 0.0 then Error "latency_s.p50 is negative"
      else if p50 > p99 || p99 > p999 then
        Error
          (Printf.sprintf
             "latency quantiles not monotone: p50 %g, p99 %g, p999 %g" p50
             p99 p999)
      else Ok ()
    in
    let* thr = num_field "throughput_rps" doc in
    let* () =
      if thr < 0.0 then Error "negative throughput_rps" else Ok ()
    in
    let* rates = obj_field "rates" doc in
    let* err_rate = num_field "error" rates in
    let* bp_rate = num_field "backpressure" rates in
    let* () = unit_interval "rates.error" err_rate in
    let* () = unit_interval "rates.backpressure" bp_rate in
    let* cache = obj_field "cache" doc in
    let* n_cache = int_field "cache" cache in
    let* n_solve = int_field "solve" cache in
    let* n_collapsed = int_field "collapsed" cache in
    let* hit_ratio = num_field "hit_ratio" cache in
    let* () = unit_interval "cache.hit_ratio" hit_ratio in
    let* () =
      if n_cache + n_solve + n_collapsed <> ok then
        Error
          (Printf.sprintf "cache sources sum to %d but totals.ok = %d"
             (n_cache + n_solve + n_collapsed)
             ok)
      else Ok ()
    in
    let* wall = num_field "wall_s" doc in
    let* () = if wall < 0.0 then Error "negative wall_s" else Ok () in
    Printf.printf
      "valid loadgen report (schema %s): %d requests (%d ok), p99 %.6fs, \
       hit ratio %.2f\n"
      Server.Slo.schema_version requests ok p99 hit_ratio;
    Ok ()
  in
  let validate_trace lines =
    (* First line is the meta record; span records follow, each child
       emitted before its parent (spans are written as they end).  Both
       trace schema generations validate: /1 traces predate the merged
       multi-process timeline, /2 adds provenance records and per-span
       trace ids. *)
    let* schema =
      match lines with
      | meta :: _ -> (
          let* doc =
            Result.map_error (fun e -> "meta line: " ^ e) (Obs.Json.parse meta)
          in
          let* ty = str_field "type" doc in
          let* schema = str_field "schema" doc in
          if ty <> "meta" then Error "first line is not a meta record"
          else if
            schema <> Obs.trace_schema_version
            && schema <> Obs.trace_schema_v1
          then
            Error
              (Printf.sprintf "unsupported trace schema %S (expected %S or %S)"
                 schema Obs.trace_schema_v1 Obs.trace_schema_version)
          else Ok schema)
      | [] -> Error "empty trace"
    in
    let spans = Hashtbl.create 64 in
    (* span id -> (parent id option, depth, path, name, trace id option) *)
    let counts = Hashtbl.create 8 in
    let count ty =
      Hashtbl.replace counts ty (1 + Option.value ~default:0 (Hashtbl.find_opt counts ty))
    in
    let* () =
      List.fold_left
        (fun acc (lineno, line) ->
          let* () = acc in
          let* doc =
            Result.map_error
              (fun e -> Printf.sprintf "line %d: %s" lineno e)
              (Obs.Json.parse line)
          in
          let* ty = str_field "type" doc in
          count ty;
          match ty with
          | "span" ->
              let* id =
                match Option.bind (Obs.Json.member "id" doc) Obs.Json.get_int with
                | Some i -> Ok i
                | None -> Error (Printf.sprintf "line %d: span without id" lineno)
              in
              let parent =
                Option.bind (Obs.Json.member "parent" doc) Obs.Json.get_int
              in
              let* depth = num_field "depth" doc in
              let* path = str_field "path" doc in
              let* name = str_field "name" doc in
              let trace =
                Option.bind (Obs.Json.member "trace" doc) Obs.Json.get_str
              in
              let* dur = num_field "dur_ns" doc in
              if dur < 0.0 then
                Error (Printf.sprintf "line %d: negative dur_ns" lineno)
              else begin
                Hashtbl.replace spans id
                  (parent, int_of_float depth, path, name, trace);
                Ok ()
              end
          | "meta" | "counter" | "gauge" | "histogram" | "provenance" -> Ok ()
          | other -> Error (Printf.sprintf "line %d: unknown record type %S" lineno other))
        (Ok ())
        (List.mapi (fun i l -> (i + 2, l)) (List.tl lines))
    in
    (* Structural check: every parent exists, and a child sits one level
       below its parent with the parent's path as a proper prefix. *)
    let* () =
      Hashtbl.fold
        (fun id (parent, depth, path, _, _) acc ->
          let* () = acc in
          match parent with
          | None -> Ok ()
          | Some p -> (
              match Hashtbl.find_opt spans p with
              | None ->
                  Error (Printf.sprintf "span %d references missing parent %d" id p)
              | Some (_, pdepth, ppath, _, _) ->
                  if depth <> pdepth + 1 then
                    Error (Printf.sprintf "span %d: depth %d under parent depth %d" id depth pdepth)
                  else if not (String.starts_with ~prefix:(ppath ^ "/") path) then
                    Error (Printf.sprintf "span %d: path %S not under parent %S" id path ppath)
                  else Ok ()))
        spans (Ok ())
    in
    (* Server-side request trees (the serve daemon): every server.request
       span must carry a trace id (the job fingerprint — it is how a
       request's spans and absorbed worker shards correlate), and a
       queue_wait span only means something directly under its
       server.request root. *)
    let* () =
      Hashtbl.fold
        (fun id (parent, _, _, name, trace) acc ->
          let* () = acc in
          match name with
          | "server.request" ->
              if trace = None then
                Error
                  (Printf.sprintf "span %d (server.request) has no trace id"
                     id)
              else Ok ()
          | "queue_wait" -> (
              match
                Option.bind parent (fun p -> Hashtbl.find_opt spans p)
              with
              | Some (_, _, _, "server.request", _) -> Ok ()
              | Some (_, _, _, pname, _) ->
                  Error
                    (Printf.sprintf
                       "span %d (queue_wait) parented under %S, expected \
                        server.request"
                       id pname)
              | None ->
                  Error
                    (Printf.sprintf
                       "span %d (queue_wait) has no server.request parent" id))
          | _ -> Ok ())
        spans (Ok ())
    in
    let n ty = Option.value ~default:0 (Hashtbl.find_opt counts ty) in
    let roots =
      Hashtbl.fold
        (fun _ (parent, _, _, _, _) a -> if parent = None then a + 1 else a)
        spans 0
    in
    Printf.printf
      "valid trace (schema %s): %d spans (%d roots), %d counters, %d gauges, %d histograms\n"
      schema (n "span") roots (n "counter") (n "gauge")
      (n "histogram");
    Ok ()
  in
  let result =
    let* content = read () in
    let lines =
      List.filter
        (fun l -> String.trim l <> "")
        (String.split_on_char '\n' content)
    in
    (* Dispatch on the first line's schema tag: a bench report is a single
       JSON object, a trace or serve frame log is JSONL.  A raw serve
       capture is length-prefixed — bare-integer lines interleave the
       frames — so when the first line is such a prefix, dispatch peeks
       past it and the prefixes are stripped before validation. *)
    let is_len_line l =
      let s = String.trim l in
      s <> "" && String.for_all (fun c -> c >= '0' && c <= '9') s
    in
    let schema_of l =
      Option.bind
        (Result.to_option (Obs.Json.parse l))
        (fun d -> Option.bind (Obs.Json.member "schema" d) Obs.Json.get_str)
    in
    match lines with
    | [] -> Error "empty file"
    | first :: _ -> (
        let first, lines =
          if is_len_line first then
            let frames = List.filter (fun l -> not (is_len_line l)) lines in
            match frames with f :: _ -> (f, frames) | [] -> (first, lines)
          else (first, lines)
        in
        match schema_of first with
        | Some s when s = Obs.bench_schema_version ->
            let* doc = Obs.Json.parse (String.trim content) in
            validate_bench doc
        | Some s when s = Engine.Batch.schema_version ->
            let* doc = Obs.Json.parse (String.trim content) in
            validate_batch doc
        | Some s when s = Server.Protocol.schema_version ->
            validate_serve_log lines
        | Some s when s = Server.Slo.schema_version ->
            let* doc = Obs.Json.parse (String.trim content) in
            validate_slo doc
        | Some s
          when s = Obs.trace_schema_version || s = Obs.trace_schema_v1 ->
            validate_trace lines
        | Some other -> Error (Printf.sprintf "unknown schema %S" other)
        | None -> Error "first line has no schema tag")
  in
  match result with
  | Ok () -> 0
  | Error msg ->
      Printf.eprintf "error: %s: %s\n" path msg;
      1

(* lint: run hyplint, the AST-level source linter of lib/lint, over the
   repository tree.  Zero unsuppressed findings is a hard gate (CI runs
   this); suppressions carry written reasons, either inline comment
   markers of the form `hyplint: allow SRC03 — reason` or lint.config
   entries. *)

let run_lint root config_path rules format =
  if rules then begin
    print_string (Lint.Rules.render_catalogue Lint.catalogue);
    0
  end
  else
    match Lint.Engine.run ?config_path ~root () with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        2
    | Ok result -> (
        let report = Lint.Engine.report result in
        (match format with
        | `Text ->
            print_endline (Analysis.Check.to_string report);
            Printf.printf "suppressed findings : %d (all with written reasons)\n"
              (List.length result.Lint.Engine.suppressed)
        | `Json ->
            print_endline (Obs.Json.to_string (Lint.Engine.to_json result)));
        Analysis.Check.exit_code report)

let lint_cmd =
  let root_arg =
    let doc = "Repository root to lint (walks lib/, bin/, bench/, test/)." in
    Arg.(value & pos 0 dir "." & info [] ~docv:"ROOT" ~doc)
  in
  let config_arg =
    let doc = "Allowlist file (default: ROOT/lint.config when present)." in
    Arg.(value & opt (some file) None & info [ "config" ] ~docv:"CONF" ~doc)
  in
  let rules_flag =
    let doc = "Print the rule catalogue (SRC00..SRC12) and exit." in
    Arg.(value & flag & info [ "rules" ] ~doc)
  in
  let format_arg =
    let doc = "Output format: text (Check-report rendering) or json \
               (schema hypartition-lint/1)." in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let info =
    Cmd.info "lint"
      ~doc:
        "Run the AST-level source linter (rules SRC01..SRC12) over the \
         repository; non-zero exit on any unsuppressed finding."
  in
  Cmd.v info
    Term.(const run_lint $ root_arg $ config_arg $ rules_flag $ format_arg)

(* analyze: the typed-AST domain-safety analyzer of lib/analysis_dom —
   mutable-state inventory, hot-path reachability from the solver entry
   points, Workspace/Rng ownership checks, and the interprocedural
   effect analysis behind the parallel-safety certificate, as rules
   DOM01..DOM11.  Shares hyplint's suppression machinery (inline
   `hyplint: allow DOM01 — reason` markers and lint.config), and gates
   identically: zero unsuppressed findings or non-zero exit. *)

let run_analyze root config_path build_dir rules format inventory_out effects
    effects_out =
  if rules then begin
    print_string (Lint.Rules.render_catalogue Analysis_dom.Dom_rules.catalogue);
    0
  end
  else
    match Analysis_dom.Driver.run ?config_path ?build_dir ~root () with
    | Error msg ->
        Printf.eprintf "error: %s\n" msg;
        2
    | Ok result ->
        let report = Analysis_dom.Driver.report result in
        (match format with
        | `Text ->
            print_endline (Analysis.Check.to_string report);
            Printf.printf "suppressed findings : %d (all with written reasons)\n"
              (List.length result.Analysis_dom.Driver.suppressed)
        | `Json ->
            print_endline
              (Obs.Json.to_string (Analysis_dom.Driver.to_json result)));
        if effects then
          print_string
            (Analysis_dom.Effects.render_witnesses
               result.Analysis_dom.Driver.effects);
        (match inventory_out with
        | None -> ()
        | Some path ->
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc
                  (Analysis_dom.Inventory.render
                     result.Analysis_dom.Driver.inventory)));
        (match effects_out with
        | None -> ()
        | Some path ->
            Out_channel.with_open_bin path (fun oc ->
                Out_channel.output_string oc
                  (Analysis_dom.Inventory.render
                     (Analysis_dom.Effects.to_json
                        result.Analysis_dom.Driver.effects))));
        Analysis.Check.exit_code report

let analyze_cmd =
  let root_arg =
    let doc = "Repository root to analyze (walks lib/, bin/, bench/)." in
    Arg.(value & pos 0 dir "." & info [] ~docv:"ROOT" ~doc)
  in
  let config_arg =
    let doc = "Allowlist file (default: ROOT/lint.config when present)." in
    Arg.(value & opt (some file) None & info [ "config" ] ~docv:"CONF" ~doc)
  in
  let build_arg =
    let doc =
      "Build directory holding the .cmt files (default: \
       ROOT/_build/default).  Every source under lib/, bin/ and bench/ \
       needs a .cmt built from its current text: run `dune build @check` \
       first.  A source without one is a DOM00 error."
    in
    Arg.(value & opt (some dir) None & info [ "build" ] ~docv:"DIR" ~doc)
  in
  let rules_flag =
    let doc = "Print the rule catalogue (DOM00..DOM11) and exit." in
    Arg.(value & flag & info [ "rules" ] ~doc)
  in
  let format_arg =
    let doc =
      "Output format: text (Check-report rendering) or json (schema \
       hypartition-analysis/2)."
    in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let inventory_arg =
    let doc =
      "Also write the mutable-state inventory (pretty JSON) to $(docv) — \
       the committed analysis/inventory.json artifact."
    in
    Arg.(value & opt (some string) None & info [ "inventory" ] ~docv:"PATH" ~doc)
  in
  let effects_flag =
    let doc =
      "Print per-entry-point effect witnesses: for each solver entry point, \
       the minimal call chain to every shared-mutating leaf it can reach — \
       the worklist for making the hot path domain-safe."
    in
    Arg.(value & flag & info [ "effects" ] ~doc)
  in
  let effects_out_arg =
    let doc =
      "Also write the parallel-safety certificate (pretty JSON, schema \
       hypartition-effects/2) to $(docv) — the committed \
       analysis/effects.json artifact, byte-deterministic and gated fresh \
       by CI."
    in
    Arg.(
      value & opt (some string) None & info [ "effects-out" ] ~docv:"PATH" ~doc)
  in
  let info =
    Cmd.info "analyze"
      ~doc:
        "Run the typed-AST domain-safety analyzer (rules DOM01..DOM11: \
         mutable-state inventory, hot-path reachability, Workspace/Rng \
         ownership, interprocedural effects) over the repository; non-zero \
         exit on any unsuppressed finding."
  in
  Cmd.v info
    Term.(
      const run_analyze $ root_arg $ config_arg $ build_arg $ rules_flag
      $ format_arg $ inventory_arg $ effects_flag $ effects_out_arg)

(* bench: compare a fresh bench report against a committed baseline and
   gate on experiment wall-time regressions (the CI perf-smoke check).
   Producing the reports is bench/main.exe's job; this subcommand only
   reads them, so it stays cheap enough to run anywhere. *)

let run_bench_compare current baseline threshold format =
  match
    Engine.Bench_compare.compare_files ~threshold_pct:threshold ~baseline
      ~current ()
  with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  | Ok cmp ->
      (match format with
      | `Text -> print_string (Engine.Bench_compare.render cmp)
      | `Json ->
          print_endline
            (Obs.Json.to_string (Engine.Bench_compare.to_json cmp)));
      if Engine.Bench_compare.ok cmp then 0 else 1

let bench_cmd =
  let current_arg =
    let doc = "Current bench report (BENCH_<gitrev>.json, written by \
               bench/main.exe)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"CURRENT" ~doc)
  in
  let compare_arg =
    let doc = "Baseline bench report to compare against (e.g. the committed \
               bench/baseline/BENCH_*.json)." in
    Arg.(
      required
      & opt (some file) None
      & info [ "compare" ] ~docv:"BASELINE" ~doc)
  in
  let threshold_arg =
    let doc = "Regression threshold in percent: fail when some experiment's \
               wall time exceeds baseline by more than this." in
    Arg.(value & opt float 25.0 & info [ "threshold" ] ~docv:"PCT" ~doc)
  in
  let format_arg =
    let doc = "Output format: text or json (hypartition-bench-compare/1)." in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FMT" ~doc)
  in
  let info =
    Cmd.info "bench"
      ~doc:
        "Compare a bench report against a baseline: per-row speedups, with \
         a non-zero exit if any experiment's wall time regressed beyond \
         the threshold (micro rows are informational)."
  in
  Cmd.v info
    Term.(
      const run_bench_compare $ current_arg $ compare_arg $ threshold_arg
      $ format_arg)

let trace_cmd =
  let file_arg =
    let doc =
      "File to validate: span trace (JSONL), bench/batch/loadgen report \
       (JSON) or serve frame log (JSONL, raw length-prefixed captures \
       accepted)."
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let info =
    Cmd.info "trace"
      ~doc:
        "Validate an observability artifact against its schema — JSONL \
         span trace, bench JSON, batch-report JSON, serve frame log \
         (hypartition-serve/1) or loadgen SLO report \
         (hypartition-loadgen/1); non-zero exit if malformed."
  in
  Cmd.v info Term.(const run_trace_validate $ file_arg)

(* report: the analytics layer over the same artifacts `trace` validates.
   Where `trace` answers "is this file well-formed", `report` answers
   "where did the time go": per-phase wall/self-time tables, the critical
   path under each engine.job span, top spans, GC gauge summaries — or,
   with --folded, flamegraph-ready folded stacks on stdout. *)

let run_report path folded top =
  match Obs.Report.load path with
  | Error msg ->
      Printf.eprintf "error: %s: %s\n" path msg;
      1
  | Ok data ->
      if folded then print_string (Obs.Report.folded data)
      else Obs.Report.render ~top Format.std_formatter data;
      0

let report_cmd =
  let file_arg =
    let doc =
      Printf.sprintf
        "Span trace (JSONL, schema %s or %s) or bench report (JSON, schema \
         %s) to analyze."
        Obs.trace_schema_v1 Obs.trace_schema_version Obs.bench_schema_version
    in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let folded_flag =
    let doc =
      "Emit folded stacks (`a;b;c self-ns`) instead of the tables — pipe \
       into standard flamegraph tooling."
    in
    Arg.(value & flag & info [ "folded" ] ~doc)
  in
  let top_arg =
    let doc = "Number of slowest spans to list in the top-spans table." in
    Arg.(value & opt int 10 & info [ "top" ] ~docv:"K" ~doc)
  in
  let info =
    Cmd.info "report"
      ~doc:
        "Analyze an observability artifact: per-phase wall/self time, \
         per-job critical paths, top spans and GC summaries from a span \
         trace or bench report; --folded writes flamegraph input."
  in
  Cmd.v info Term.(const run_report $ file_arg $ folded_flag $ top_arg)

(* ---- serve: the partitioning-as-a-service daemon ------------------------- *)

(* serve: lib/server's daemon behind a CLI.  One single-threaded loop
   multiplexes the listening socket, every client connection and the
   worker pool's status pipes; requests pass admission control, collapse
   onto identical in-flight work, hit the shared result cache, and
   otherwise fork workers.  SIGINT (and the Shutdown frame) drain
   gracefully: queued jobs turn into skipped records, running workers
   finish, every connection flushes. *)

let run_serve trace stats socket tcp jobs solver_threads timeout cache_dir
    no_cache queue_limit client_limit lru =
  setup_obs trace stats;
  let endpoint =
    match tcp with
    | None -> Ok (Server.Daemon.Unix_socket socket)
    | Some spec -> (
        let host, port_str =
          match String.rindex_opt spec ':' with
          | Some i ->
              ( String.sub spec 0 i,
                String.sub spec (i + 1) (String.length spec - i - 1) )
          | None -> ("", spec)
        in
        match int_of_string_opt port_str with
        | Some port when port > 0 && port < 65536 ->
            Ok (Server.Daemon.Tcp (host, port))
        | _ ->
            Error
              (Printf.sprintf "bad --tcp endpoint %S (want PORT or HOST:PORT)"
                 spec))
  in
  match endpoint with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  | Ok endpoint -> (
      let config =
        {
          Server.Daemon.endpoint;
          pool =
            {
              Engine.Pool.default_config with
              Engine.Pool.jobs;
              default_timeout_s = timeout;
              silence_worker_stdout = true;
              solver_threads;
            };
          cache_dir = (if no_cache then None else Some cache_dir);
          admission =
            { Server.Admission.queue_limit; per_client_limit = client_limit };
          lru_capacity = lru;
        }
      in
      match Server.Daemon.create config with
      | Error msg ->
          Printf.eprintf "error: %s\n" msg;
          1
      | Ok daemon ->
          Printf.eprintf "hypartition serve: listening on %s (%d workers)\n%!"
            (Server.Daemon.endpoint_name endpoint)
            (max 1 jobs);
          Server.Daemon.run daemon;
          Printf.eprintf "hypartition serve: drained, bye\n%!";
          0)

let serve_cmd =
  let socket_arg =
    let doc = "Unix-domain socket path to listen on." in
    Arg.(
      value & opt string "hypartition.sock"
      & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let tcp_arg =
    let doc =
      "Listen on TCP instead: $(docv) is PORT (loopback) or HOST:PORT."
    in
    Arg.(
      value & opt (some string) None & info [ "tcp" ] ~docv:"ENDPOINT" ~doc)
  in
  let jobs_arg =
    let doc = "Worker processes." in
    Arg.(value & opt int 2 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let solver_threads_arg =
    let doc =
      "Solver domains per worker for submitted jobs marked parallel \
       (0 = run even those sequentially).  Changes only wall-clock, never \
       results: parallel jobs are thread-count-independent."
    in
    Arg.(value & opt int 0 & info [ "threads" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc =
      "Default wall-clock budget per job in seconds (SIGKILL on expiry); \
       submitted jobs may carry their own."
    in
    Arg.(
      value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let cache_dir_arg =
    let doc = "Shared result cache directory." in
    Arg.(
      value
      & opt string Engine.Batch.default_cache_dir
      & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let no_cache_arg =
    let doc = "Disable the result cache (neither read nor write it)." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let queue_limit_arg =
    let doc =
      "Admission control: total queued+running requests before new submits \
       get a busy (queue_full) frame."
    in
    Arg.(value & opt int 64 & info [ "queue-limit" ] ~docv:"N" ~doc)
  in
  let client_limit_arg =
    let doc =
      "Admission control: in-flight requests per connection before new \
       submits get a busy (client_limit) frame."
    in
    Arg.(value & opt int 8 & info [ "client-limit" ] ~docv:"N" ~doc)
  in
  let lru_arg =
    let doc = "Hot-instance LRU capacity (parsed file-backed hypergraphs)." in
    Arg.(value & opt int 16 & info [ "lru" ] ~docv:"N" ~doc)
  in
  let info =
    Cmd.info "serve"
      ~doc:
        "Run the partitioning daemon: a long-lived service over a \
         Unix-domain or TCP socket speaking length-prefixed JSONL \
         (hypartition-serve/1), with admission control, request \
         collapsing, a shared result cache and per-request tracing.  \
         SIGINT drains gracefully."
  in
  Cmd.v info
    Term.(
      const run_serve $ trace_arg $ stats_flag $ socket_arg $ tcp_arg
      $ jobs_arg $ solver_threads_arg $ timeout_arg $ cache_dir_arg
      $ no_cache_arg $ queue_limit_arg $ client_limit_arg $ lru_arg)

(* ---- batch: the parallel execution engine -------------------------------- *)

let batch_progress_line (ev : Engine.Batch.event) =
  match ev with
  | Engine.Batch.Cache_hit { record; _ } ->
      Printf.eprintf "[cache]   %s\n%!" (Engine.Spec.describe record.Engine.Record.job)
  | Engine.Batch.Unrunnable { record; _ } ->
      Printf.eprintf "[error]   %s: %s\n%!"
        (Engine.Spec.describe record.Engine.Record.job)
        (Option.value ~default:""
           (Engine.Record.status_detail record.Engine.Record.status))
  | Engine.Batch.Pool (Engine.Pool.Started { job; worker; attempt; _ }) ->
      Printf.eprintf "[w%d]      %s%s\n%!" worker (Engine.Spec.describe job)
        (if attempt > 1 then Printf.sprintf " (attempt %d)" attempt else "")
  | Engine.Batch.Pool (Engine.Pool.Finished { record; _ }) ->
      Printf.eprintf "[%s] %6.2fs %s%s\n%!"
        (Engine.Record.status_name record.Engine.Record.status)
        record.Engine.Record.timing.Engine.Record.wall_s
        (Engine.Spec.describe record.Engine.Record.job)
        (match Engine.Record.status_detail record.Engine.Record.status with
        | Some d -> ": " ^ d
        | None -> "")
  | Engine.Batch.Pool (Engine.Pool.Retrying { job; attempt; delay_s; _ }) ->
      Printf.eprintf "[retry]   %s: attempt %d in %.1fs\n%!"
        (Engine.Spec.describe job) attempt delay_s
  | Engine.Batch.Pool (Engine.Pool.Interrupted { pending }) ->
      Printf.eprintf "[sigint]  draining; skipping %d queued jobs\n%!" pending

let run_batch trace stats manifest files experiments k eps seed algorithm
    metric threads jobs timeout cache_dir no_cache retries format =
  setup_obs trace stats;
  let config =
    { Engine.Spec.k; eps; algorithm; metric; parallel = threads > 0 }
  in
  let manifest_jobs =
    match manifest with
    | None -> Ok []
    | Some path ->
        Engine.Manifest.load ~known_experiments:Experiments.ids path
  in
  match manifest_jobs with
  | Error msg ->
      Printf.eprintf "error: %s\n" msg;
      2
  | Ok manifest_jobs -> (
      let ad_hoc =
        List.map
          (fun path ->
            { Engine.Spec.instance = Engine.Spec.Hmetis_file path; config;
              seed; timeout_s = timeout })
          files
        @ List.map
            (fun id ->
              { Engine.Spec.instance = Engine.Spec.Experiment id;
                config = Engine.Spec.default_config; seed = 0;
                timeout_s = timeout })
            experiments
      in
      let plans = manifest_jobs @ ad_hoc in
      match
        List.find_opt
          (fun id -> not (List.mem id Experiments.ids))
          experiments
      with
      | Some id ->
          Printf.eprintf "error: unknown experiment %s; valid: %s\n" id
            (String.concat " " Experiments.ids);
          2
      | None when plans = [] ->
          Printf.eprintf
            "error: nothing to run (give a --manifest, hypergraph FILEs or \
             --experiment ids)\n";
          2
      | None -> (
          let pool =
            {
              Engine.Pool.default_config with
              jobs;
              retries;
              default_timeout_s = timeout;
              silence_worker_stdout = true;
              handle_sigint = true;
              solver_threads = threads;
            }
          in
          let batch_config =
            { Engine.Batch.pool;
              cache_dir = (if no_cache then None else Some cache_dir) }
          in
          let on_event ev =
            match format with `Text -> batch_progress_line ev | `Json -> ()
          in
          match Engine.Batch.run ~on_event batch_config plans with
          | Error msg ->
              Printf.eprintf "error: %s\n" msg;
              2
          | Ok report ->
              (match format with
              | `Json ->
                  print_endline
                    (Obs.Json.to_string
                       (Engine.Batch.report_to_json ~jobs report))
              | `Text ->
                  let s = report.Engine.Batch.stats in
                  Printf.printf
                    "jobs  : %d total, %d from cache, %d ok, %d failed, %d \
                     timeouts, %d crashes, %d skipped (%d retries)\n"
                    s.Engine.Batch.total s.Engine.Batch.from_cache
                    s.Engine.Batch.ok s.Engine.Batch.failed
                    s.Engine.Batch.timeouts s.Engine.Batch.crashes
                    s.Engine.Batch.skipped s.Engine.Batch.retries;
                  (match s.Engine.Batch.cache with
                  | Some c ->
                      Printf.printf
                        "cache : %d hits, %d misses, %d stores, %d corrupt\n"
                        c.Engine.Cache.hits c.Engine.Cache.misses
                        c.Engine.Cache.stores c.Engine.Cache.corrupt
                  | None -> ());
                  Printf.printf "wall  : %.2fs with %d worker%s\n"
                    report.Engine.Batch.wall_s jobs
                    (if jobs = 1 then "" else "s"));
              if Engine.Batch.all_ok report then 0 else 1))

let batch_cmd =
  let manifest_arg =
    let doc =
      Printf.sprintf "Job manifest (JSON, schema %s) to expand and run."
        Engine.Manifest.schema_version
    in
    Arg.(
      value & opt (some file) None & info [ "manifest" ] ~docv:"MANIFEST" ~doc)
  in
  let files_arg =
    let doc = "hMETIS hypergraph files to partition as ad-hoc jobs." in
    Arg.(value & pos_all file [] & info [] ~docv:"FILE" ~doc)
  in
  let experiments_arg =
    let doc = "Paper experiment ids (E1..) to run as ad-hoc jobs." in
    Arg.(
      value & opt_all string [] & info [ "experiment" ] ~docv:"ID" ~doc)
  in
  let spec_algorithm_arg =
    let doc =
      Printf.sprintf "Algorithm for ad-hoc FILE jobs: %s."
        (String.concat ", " (List.map fst Engine.Spec.algorithms))
    in
    Arg.(
      value
      & opt (enum Engine.Spec.algorithms) Engine.Spec.Multilevel
      & info [ "a"; "algorithm" ] ~doc)
  in
  let spec_metric_arg =
    let doc = "Cost metric for ad-hoc FILE jobs: connectivity or cutnet." in
    Arg.(
      value
      & opt (enum Engine.Spec.metrics) Partition.Connectivity
      & info [ "metric" ] ~doc)
  in
  let jobs_arg =
    let doc = "Worker processes to run in parallel." in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let solver_threads_arg =
    let doc =
      "Solver domains per worker for ad-hoc FILE jobs (0 = sequential \
       path).  Marks those jobs parallel — a different algorithm, hence a \
       different cache fingerprint — while the result stays independent \
       of N."
    in
    Arg.(value & opt int 0 & info [ "threads" ] ~docv:"N" ~doc)
  in
  let timeout_arg =
    let doc =
      "Default wall-clock budget per job in seconds (SIGKILL on expiry); \
       manifest entries may override it."
    in
    Arg.(
      value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let cache_dir_arg =
    let doc = "Result cache directory." in
    Arg.(
      value
      & opt string Engine.Batch.default_cache_dir
      & info [ "cache-dir" ] ~docv:"DIR" ~doc)
  in
  let no_cache_arg =
    let doc = "Disable the result cache (neither read nor write it)." in
    Arg.(value & flag & info [ "no-cache" ] ~doc)
  in
  let retries_arg =
    let doc = "Extra attempts for crashed workers (timeouts never retry)." in
    Arg.(value & opt int 1 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let format_arg =
    let doc = "Output format: text or json (hypartition-batch/1)." in
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json) ]) `Text
      & info [ "format" ] ~docv:"FORMAT" ~doc)
  in
  let info =
    Cmd.info "batch"
      ~doc:
        "Run a job plan (manifest and/or ad-hoc instances) through the \
         parallel, fault-isolated execution engine with a content-addressed \
         result cache.  Exits non-zero if any job ultimately fails."
  in
  Cmd.v info
    Term.(
      const run_batch $ trace_arg $ stats_flag $ manifest_arg $ files_arg
      $ experiments_arg $ k_arg $ eps_arg $ seed_arg $ spec_algorithm_arg
      $ spec_metric_arg $ solver_threads_arg $ jobs_arg $ timeout_arg
      $ cache_dir_arg $ no_cache_arg $ retries_arg $ format_arg)

let main =
  let info =
    Cmd.info "hypartition" ~version:"1.0.0"
      ~doc:"Balanced k-way hypergraph partitioning toolkit."
  in
  Cmd.group info
    [
      partition_cmd; stats_cmd; recognize_cmd; hierarchical_cmd;
      schedule_cmd; convert_cmd; evaluate_cmd; generate_cmd; check_cmd;
      lint_cmd; analyze_cmd; bench_cmd; trace_cmd; report_cmd; batch_cmd;
      serve_cmd;
    ]

let () = exit (Cmd.eval' main)
