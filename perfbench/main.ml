(* The repository benchmark: one workload per process.

   usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

   Generates the workload's inputs from the seed, measures for about
   S seconds, checks every output, and prints as its last stdout line
   one JSON object:

     {"correct": bool, "attempted": int, "failed": int,
      "metrics": {NAME: {"value": float, "unit": UNIT}, ...}}

   --trace 0 prints the end-to-end metrics (Catalog.end_to_end), measured
   with observability off; --trace 1 prints the per-layer breakdown
   (Catalog.per_layer).  --tiny shrinks every input, for the tests.  See
   README.md in this directory for the workloads and the metric map. *)

let usage =
  "usage: main.exe --workload NAME --seed N --seconds S --trace 0|1 [--tiny]\n\
   workloads: " ^ String.concat ", " Catalog.workloads

type args = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;
}

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

let parse argv =
  let int_arg flag v =
    match int_of_string_opt v with
    | Some i -> i
    | None -> die "%s expects an integer, got %S" flag v
  in
  let rec go a = function
    | [] -> a
    | "--workload" :: w :: rest -> (
        match a.workload with
        | Some prev ->
            (* The runtime refuses Unix.fork once a domain has existed:
               ml-par-planted spawns domains and serve-cold-warm forks
               workers, so two workloads cannot share a process. *)
            die
              "one workload per process (got %s and %s): the parallel \
               workload spawns domains and the serving workload forks, and \
               a process that has run domains cannot fork"
              prev w
        | None -> go { a with workload = Some w } rest)
    | "--seed" :: v :: rest -> go { a with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest ->
        go { a with seconds = float_of_int (int_arg "--seconds" v) } rest
    | "--trace" :: v :: rest -> (
        match v with
        | "0" -> go { a with trace = false } rest
        | "1" -> go { a with trace = true } rest
        | _ -> die "--trace expects 0 or 1, got %S" v)
    | "--tiny" :: rest -> go { a with tiny = true } rest
    | arg :: _ -> die "unexpected argument %S\n%s" arg usage
  in
  go { workload = None; seed = 1; seconds = 10.0; trace = false; tiny = false }
    (List.tl (Array.to_list argv))

let run_workload a name ~dir =
  match (Ml.params ~tiny:a.tiny name, name) with
  | Some p, _ ->
      if a.trace then Ml.run_traced p ~dir ~seed:a.seed
      else Ml.run p ~dir ~seed:a.seed ~seconds:a.seconds
  | None, "serve-cold-warm" ->
      Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
      if a.trace then
        Serve.run_traced ~dir ~seed:a.seed ~seconds:a.seconds ~tiny:a.tiny
      else Serve.run ~dir ~seed:a.seed ~seconds:a.seconds ~tiny:a.tiny
  | None, _ -> die "internal: no runner for workload %S" name

let result_json tally catalog metrics =
  let open Obs.Json in
  let value name =
    match List.assoc_opt name metrics with
    | Some v -> v
    | None -> die "internal: workload did not measure %s" name
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name catalog) then
        die "internal: %s is not in the catalogue" name)
    metrics;
  Obj
    [
      ("correct", Bool (Tally.failed tally = 0));
      ("attempted", Int (Tally.attempted tally));
      ("failed", Int (Tally.failed tally));
      ( "metrics",
        Obj
          (List.map
             (fun (name, unit) ->
               (name, Obj [ ("value", Float (value name)); ("unit", Str unit) ]))
             catalog) );
    ]

let () =
  let a = parse Sys.argv in
  let name =
    match a.workload with
    | Some w when List.mem w Catalog.workloads -> w
    | Some w -> die "unknown workload %S\n%s" w usage
    | None -> die "--workload is required\n%s" usage
  in
  let tally, metrics =
    try Run_dir.with_dir (fun dir -> run_workload a name ~dir)
    with Failure msg | Sys_error msg -> die "%s: %s" name msg
  in
  let catalog = if a.trace then Catalog.per_layer else Catalog.end_to_end in
  print_endline (Obs.Json.to_string (result_json tally catalog metrics))
