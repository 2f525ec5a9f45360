(* Tests of the benchmark itself.

   usage: perfbench_test.exe MAIN_EXE BENCHMARK_JSON

   - a tiny run of every workload, untraced and traced, each in its own
     process, must print every metric BENCHMARK.json names for that mode,
     with its unit, and report no failed operation;
   - asking one process for two workloads is refused without a result;
   - the output checker counts a planted bad partition as failed. *)

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      prerr_endline ("FAIL " ^ msg))
    fmt

let member_exn name j =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> failwith ("Perfbench_test.member_exn: missing " ^ name)

let str_exn j =
  match Obs.Json.get_str j with
  | Some s -> s
  | None -> failwith "Perfbench_test.str_exn: not a string"

let list_exn = function
  | Obs.Json.Arr l -> l
  | _ -> failwith "Perfbench_test.list_exn: not an array"

(* Run main.exe with [args]; (exit code, stdout lines, stderr). *)
let run_main exe args =
  let ((out, _, err) as chans) =
    Unix.open_process_args_full exe (Array.of_list (exe :: args))
      (Unix.environment ())
  in
  let lines = In_channel.input_lines out in
  let errors = In_channel.input_all err in
  let code =
    match Unix.close_process_full chans with
    | Unix.WEXITED c -> c
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (code, lines, errors)

let check_run exe ~workload ~trace ~expected =
  let what = Printf.sprintf "%s --trace %d" workload trace in
  match
    run_main exe
      [
        "--workload"; workload; "--seed"; "3"; "--seconds"; "1"; "--trace";
        string_of_int trace; "--tiny";
      ]
  with
  | code, _, errors when code <> 0 -> fail "%s: exit %d\n%s" what code errors
  | _, [], _ -> fail "%s: no output" what
  | _, lines, _ -> (
      match Obs.Json.parse (List.hd (List.rev lines)) with
      | Error e -> fail "%s: last line is not JSON: %s" what e
      | Ok result ->
          let keys =
            match result with
            | Obs.Json.Obj kvs -> List.sort String.compare (List.map fst kvs)
            | _ -> []
          in
          if keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then
            fail "%s: result keys %s" what (String.concat "," keys);
          (match
             ( Obs.Json.get_int (member_exn "attempted" result),
               Obs.Json.get_int (member_exn "failed" result),
               member_exn "correct" result )
           with
          | Some a, Some 0, Obs.Json.Bool true when a >= 1 -> ()
          | _ -> fail "%s: expected a correct run with no failed operation" what);
          let metrics = member_exn "metrics" result in
          let printed =
            match metrics with Obs.Json.Obj kvs -> List.map fst kvs | _ -> []
          in
          List.iter
            (fun (name, unit) ->
              match Obs.Json.member name metrics with
              | None -> fail "%s: metric %s not printed" what name
              | Some m -> (
                  (match Option.bind (Obs.Json.member "value" m) Obs.Json.get_float with
                  | Some v when Float.is_finite v -> ()
                  | _ -> fail "%s: %s has no finite value" what name);
                  match Option.bind (Obs.Json.member "unit" m) Obs.Json.get_str with
                  | Some u when String.equal u unit -> ()
                  | _ -> fail "%s: %s is not printed with unit %s" what name unit))
            expected;
          List.iter
            (fun name ->
              if not (List.mem_assoc name expected) then
                fail "%s: %s is printed but not named in BENCHMARK.json" what name)
            printed)

let check_refusal exe =
  match
    run_main exe
      [ "--workload"; "ml-seq-random"; "--workload"; "serve-cold-warm"; "--tiny" ]
  with
  | 0, _, _ -> fail "two workloads in one process were not refused"
  | _, _ :: _, _ -> fail "a refused run printed a result"
  | _, [], _ -> ()

let check_planted_bad_partition () =
  let hg =
    Hypergraph.of_edges ~n:8
      [| [| 0; 1 |]; [| 2; 3 |]; [| 4; 5 |]; [| 6; 7 |]; [| 1; 2 |] |]
  in
  let good = Partition.create ~k:2 [| 0; 0; 0; 0; 1; 1; 1; 1 |] in
  let lopsided = Partition.create ~k:2 [| 0; 0; 0; 0; 0; 0; 0; 1 |] in
  prerr_endline "perfbench_test: two bad partitions planted; expect two [failed] lines";
  let tally = Tally.create () in
  let claim p = Partition.connectivity_cost hg p in
  ignore (Tally.check_partition tally ~eps:0.03 ~what:"good" hg good ~claimed:(claim good) : float);
  ignore
    (Tally.check_partition tally ~eps:0.03 ~what:"planted unbalanced" hg lopsided
       ~claimed:(claim lopsided)
      : float);
  ignore
    (Tally.check_partition tally ~eps:0.03 ~what:"planted wrong cost" hg good
       ~claimed:(claim good + 1)
      : float);
  if Tally.attempted tally <> 3 || Tally.failed tally <> 2 then
    fail "planted bad partitions: %d attempted, %d failed (want 3, 2)"
      (Tally.attempted tally) (Tally.failed tally)

let () =
  let exe, bench_path =
    match Sys.argv with
    | [| _; exe; bench |] ->
        ((if Filename.is_implicit exe then Filename.concat "." exe else exe), bench)
    | _ -> failwith "Perfbench_test.main: usage: perfbench_test.exe MAIN_EXE BENCHMARK_JSON"
  in
  let bench =
    match Obs.Json.parse (In_channel.with_open_text bench_path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith ("Perfbench_test.main: BENCHMARK.json: " ^ e)
  in
  let names key =
    List.map
      (fun m -> (str_exn (member_exn "name" m), str_exn (member_exn "unit" m)))
      (list_exn (member_exn key bench))
  in
  let workloads =
    List.map (fun w -> str_exn (member_exn "name" w)) (list_exn (member_exn "workloads" bench))
  in
  check_planted_bad_partition ();
  check_refusal exe;
  List.iter
    (fun workload ->
      check_run exe ~workload ~trace:0 ~expected:(names "end_to_end");
      check_run exe ~workload ~trace:1 ~expected:(names "per_layer"))
    workloads;
  if !failures > 0 then exit 1;
  Printf.printf "perfbench: %d workloads x 2 modes, refusal and checker tests passed\n"
    (List.length workloads)
