(* lib/engine: fingerprinting, job plans, result records, the
   content-addressed cache, manifest expansion, the fork pool's fault
   isolation, and the batch determinism guarantee (same manifest at
   --jobs 1 and --jobs 8 gives byte-identical deterministic records). *)

module E = Engine

let temp_dir prefix =
  let base = Filename.temp_file prefix "" in
  Sys.remove base;
  Sys.mkdir base 0o700;
  base

let write_file path content =
  Out_channel.with_open_bin path (fun oc -> output_string oc content)

let gen_job ?(k = 2) ?(seed = 1) ?(n = 40) ?timeout_s () =
  {
    E.Spec.instance = E.Spec.Generated { kind = E.Spec.Uniform; n };
    config = { E.Spec.default_config with E.Spec.k };
    seed;
    timeout_s;
  }

let fingerprint_exn job =
  match E.Spec.fingerprint ~schema:E.Record.schema_version job with
  | Ok fp -> fp
  | Error e -> Alcotest.failf "fingerprint failed: %s" e

(* ---- fingerprint --------------------------------------------------------- *)

let test_fnv1a_golden () =
  (* Published FNV-1a 64-bit test vectors. *)
  Alcotest.(check string) "empty" "cbf29ce484222325" (E.Fingerprint.digest "");
  Alcotest.(check string) "a" "af63dc4c8601ec8c" (E.Fingerprint.digest "a");
  Alcotest.(check bool) "order sensitive" true
    (E.Fingerprint.digest "ab" <> E.Fingerprint.digest "ba");
  Alcotest.(check bool) "is_digest accepts" true
    (E.Fingerprint.is_digest (E.Fingerprint.digest "x"));
  Alcotest.(check bool) "is_digest rejects short" false
    (E.Fingerprint.is_digest "abc");
  Alcotest.(check bool) "is_digest rejects uppercase" false
    (E.Fingerprint.is_digest "CBF29CE484222325")

let test_fingerprint_identity () =
  let fp = fingerprint_exn (gen_job ()) in
  Alcotest.(check bool) "well-formed" true (E.Fingerprint.is_digest fp);
  Alcotest.(check string) "deterministic" fp (fingerprint_exn (gen_job ()));
  Alcotest.(check bool) "seed changes it" true
    (fp <> fingerprint_exn (gen_job ~seed:2 ()));
  Alcotest.(check bool) "config changes it" true
    (fp <> fingerprint_exn (gen_job ~k:4 ()));
  (* The timeout bounds a run; it does not change what the job computes,
     so it is excluded from the identity by design. *)
  Alcotest.(check string) "timeout excluded" fp
    (fingerprint_exn (gen_job ~timeout_s:5.0 ()));
  (* The result-schema version is mixed in: bumping it invalidates all
     cached fingerprints. *)
  match E.Spec.fingerprint ~schema:"hypartition-result/999" (gen_job ()) with
  | Ok fp' -> Alcotest.(check bool) "schema mixed in" true (fp <> fp')
  | Error e -> Alcotest.failf "fingerprint failed: %s" e

let test_fingerprint_file_content () =
  let dir = temp_dir "hyp_fp" in
  let path = Filename.concat dir "inst.hgr" in
  write_file path "1 3\n1 2\n";
  let job timeout_s =
    { (gen_job ~timeout_s ()) with E.Spec.instance = E.Spec.Hmetis_file path }
  in
  let fp1 = fingerprint_exn (job 1.0) in
  write_file path "1 3\n2 3\n";
  let fp2 = fingerprint_exn (job 1.0) in
  Alcotest.(check bool) "content hashed, not the path" true (fp1 <> fp2);
  (* An unreadable instance cannot be fingerprinted — an Error, not an
     exception. *)
  let missing =
    { (gen_job ()) with
      E.Spec.instance = E.Spec.Hmetis_file (Filename.concat dir "absent.hgr")
    }
  in
  match E.Spec.fingerprint ~schema:E.Record.schema_version missing with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "expected an error for a missing instance file"

(* ---- spec and record codecs ---------------------------------------------- *)

let test_spec_roundtrip () =
  let jobs =
    [
      gen_job ~k:4 ~seed:7 ~timeout_s:2.5 ();
      { (gen_job ()) with E.Spec.instance = E.Spec.Hmetis_file "x.hgr" };
      { (gen_job ()) with E.Spec.instance = E.Spec.Dag_file "y.dag" };
      { (gen_job ()) with E.Spec.instance = E.Spec.Experiment "E3" };
      { (gen_job ()) with E.Spec.instance = E.Spec.Spin 1.5 };
      { (gen_job ()) with E.Spec.instance = E.Spec.Crash 66 };
    ]
  in
  List.iter
    (fun job ->
      match E.Spec.of_json (E.Spec.to_json job) with
      | Ok job' ->
          Alcotest.(check string) "roundtrip" (E.Spec.describe job)
            (E.Spec.describe job');
          Alcotest.(check bool) "identical" true (job = job')
      | Error e -> Alcotest.failf "spec roundtrip failed: %s" e)
    jobs;
  match E.Spec.of_json (Obs.Json.Str "nope") with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed spec JSON must not decode"

let test_record_roundtrip () =
  let record =
    {
      E.Record.fingerprint = E.Fingerprint.digest "probe";
      job = gen_job ();
      status = E.Record.Failed "Runner.execute: boom";
      metrics = [ ("n", Obs.Json.Int 40) ];
      observed = Some (Obs.Json.Obj [ ("counters", Obs.Json.Obj []) ]);
      timing = { E.Record.wall_s = 0.25; attempts = 2; worker = 3; threads = 2 };
    }
  in
  (match E.Record.of_json (E.Record.to_json record) with
  | Ok r ->
      Alcotest.(check string) "deterministic part survives"
        (E.Record.deterministic_string record)
        (E.Record.deterministic_string r);
      Alcotest.(check int) "attempts survive" 2 r.E.Record.timing.E.Record.attempts
  | Error e -> Alcotest.failf "record roundtrip failed: %s" e);
  (* The deterministic rendering quantifies over everything except timing
     and the observability snapshot. *)
  let shifted =
    { record with
      E.Record.timing = { E.Record.wall_s = 99.0; attempts = 1; worker = 0; threads = 0 };
      observed = None }
  in
  Alcotest.(check string) "timing/observed excluded"
    (E.Record.deterministic_string record)
    (E.Record.deterministic_string shifted);
  Alcotest.(check bool) "only Done is cacheable" false
    (E.Record.cacheable record)

(* ---- cache --------------------------------------------------------------- *)

let done_record job =
  {
    E.Record.fingerprint = fingerprint_exn job;
    job;
    status = E.Record.Done;
    metrics = [ ("connectivity", Obs.Json.Int 12) ];
    observed = None;
    timing = { E.Record.wall_s = 0.01; attempts = 1; worker = 0; threads = 0 };
  }

let open_cache dir =
  match E.Cache.open_ dir with
  | Ok c -> c
  | Error e -> Alcotest.failf "cache open failed: %s" e

let test_cache_roundtrip () =
  let dir = temp_dir "hyp_cache" in
  let cache = open_cache dir in
  let record = done_record (gen_job ()) in
  Alcotest.(check bool) "cold lookup misses" true
    (E.Cache.find cache record.E.Record.fingerprint = None);
  (match E.Cache.store cache record with
  | Ok () -> ()
  | Error e -> Alcotest.failf "store failed: %s" e);
  (match E.Cache.find cache record.E.Record.fingerprint with
  | Some r ->
      Alcotest.(check string) "identical deterministic record"
        (E.Record.deterministic_string record)
        (E.Record.deterministic_string r)
  | None -> Alcotest.fail "stored record must be found");
  let stats = E.Cache.stats cache in
  Alcotest.(check int) "one hit" 1 stats.E.Cache.hits;
  Alcotest.(check int) "one miss" 1 stats.E.Cache.misses;
  Alcotest.(check int) "one store" 1 stats.E.Cache.stores;
  (* Atomic stores leave no temp files behind. *)
  let rec files dir =
    Array.to_list (Sys.readdir dir)
    |> List.concat_map (fun f ->
           let p = Filename.concat dir f in
           if Sys.is_directory p then files p else [ p ])
  in
  Alcotest.(check bool) "no temp litter" true
    (List.for_all
       (fun p -> Filename.check_suffix p ".json")
       (files dir))

let test_cache_rejects_defects () =
  let dir = temp_dir "hyp_cache" in
  let cache = open_cache dir in
  let record = done_record (gen_job ()) in
  (* Only Done records are cacheable. *)
  (match
     E.Cache.store cache
       { record with E.Record.status = E.Record.Failed "Runner.execute: x" }
   with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "non-Done record must not store");
  (* A corrupted entry degrades to a miss plus a corrupt tick. *)
  let path = E.Cache.path_of cache record.E.Record.fingerprint in
  (match Sys.mkdir (Filename.dirname path) 0o700 with
  | () -> ()
  | exception Sys_error _ -> ());
  write_file path "{ not json";
  Alcotest.(check bool) "corrupt entry is a miss" true
    (E.Cache.find cache record.E.Record.fingerprint = None);
  (* A record whose fingerprint echo disagrees with its filename is
     foreign: also a miss. *)
  write_file path
    (Obs.Json.to_string (E.Record.to_json (done_record (gen_job ~seed:9 ()))));
  Alcotest.(check bool) "wrong echo is a miss" true
    (E.Cache.find cache record.E.Record.fingerprint = None);
  let stats = E.Cache.stats cache in
  Alcotest.(check int) "corrupt ticks" 2 stats.E.Cache.corrupt;
  Alcotest.check_raises "malformed fingerprint"
    (Invalid_argument "Cache.path_of: malformed fingerprint") (fun () ->
      ignore (E.Cache.path_of cache "nope"))

(* ---- manifest ------------------------------------------------------------ *)

let manifest_text =
  {|{
  "schema": "hypartition-manifest/1",
  "defaults": { "k": 2, "eps": 0.03, "seed": 5, "timeout_s": 30.0 },
  "instances": [
    { "generate": "uniform", "n": 30 },
    { "experiment": "E1" },
    { "spin": 9.0, "timeout_s": 1.0 }
  ],
  "configs": [ { "k": 2 }, { "k": 4, "algorithm": "bfs" } ],
  "seeds": [ 1, 2, 3 ]
}|}

let test_manifest_expansion () =
  match E.Manifest.of_string ~known_experiments:[ "E1" ] manifest_text with
  | Error e -> Alcotest.failf "manifest failed: %s" e
  | Ok jobs ->
      (* 1 sweepable instance x 2 configs x 3 seeds + experiment + drill. *)
      Alcotest.(check int) "expansion count" 8 (List.length jobs);
      let seeds =
        List.filter_map
          (fun (j : E.Spec.job) ->
            match j.E.Spec.instance with
            | E.Spec.Generated _ -> Some (j.E.Spec.config.E.Spec.k, j.E.Spec.seed)
            | _ -> None)
          jobs
      in
      Alcotest.(check (list (pair int int)))
        "deterministic order: configs outer, seeds inner"
        [ (2, 1); (2, 2); (2, 3); (4, 1); (4, 2); (4, 3) ]
        seeds;
      let drill =
        List.find
          (fun (j : E.Spec.job) ->
            match j.E.Spec.instance with E.Spec.Spin _ -> true | _ -> false)
          jobs
      in
      Alcotest.(check (option (float 1e-9))) "per-entry timeout override"
        (Some 1.0) drill.E.Spec.timeout_s;
      Alcotest.(check bool) "drills pin config and seed" true
        (drill.E.Spec.config = E.Spec.default_config && drill.E.Spec.seed = 0);
      let experiment =
        List.find
          (fun (j : E.Spec.job) ->
            match j.E.Spec.instance with
            | E.Spec.Experiment _ -> true
            | _ -> false)
          jobs
      in
      Alcotest.(check (option (float 1e-9))) "defaults timeout applies"
        (Some 30.0) experiment.E.Spec.timeout_s

let test_manifest_errors () =
  let expect name text =
    match E.Manifest.of_string ~known_experiments:[ "E1" ] text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s: manifest unexpectedly parsed" name
  in
  expect "not JSON" "nonsense";
  expect "wrong schema" {|{ "schema": "hypartition-manifest/9" }|};
  expect "no instances"
    {|{ "schema": "hypartition-manifest/1", "instances": [] }|};
  expect "unknown generator"
    {|{ "schema": "hypartition-manifest/1",
        "instances": [ { "generate": "warp", "n": 4 } ] }|};
  expect "unknown experiment"
    {|{ "schema": "hypartition-manifest/1",
        "instances": [ { "experiment": "E99" } ] }|};
  expect "unknown algorithm"
    {|{ "schema": "hypartition-manifest/1",
        "instances": [ { "generate": "uniform", "n": 4 } ],
        "configs": [ { "algorithm": "quantum" } ] }|};
  expect "invalid job shape"
    {|{ "schema": "hypartition-manifest/1",
        "defaults": { "k": 0 },
        "instances": [ { "generate": "uniform", "n": 4 } ] }|}

(* ---- runner (in-process) ------------------------------------------------- *)

let test_runner_execute () =
  let payload = E.Runner.execute (gen_job ~n:30 ()) in
  (match payload.E.Record.p_status with
  | `Done -> ()
  | `Failed msg -> Alcotest.failf "expected Done, got Failed %s" msg);
  (match List.assoc_opt "connectivity" payload.E.Record.p_metrics with
  | Some (Obs.Json.Int _) -> ()
  | _ -> Alcotest.fail "audited partition metrics expected");
  Alcotest.(check bool) "observability snapshot captured" true
    (payload.E.Record.p_observed <> None);
  (* Deterministic failures are Failed payloads with parser-prefixed
     messages, never exceptions. *)
  let bad =
    { (gen_job ()) with E.Spec.instance = E.Spec.Hmetis_file "/absent.hgr" }
  in
  match (E.Runner.execute bad).E.Record.p_status with
  | `Failed _ -> ()
  | `Done -> Alcotest.fail "missing instance must fail"

let test_runner_determinism () =
  let p1 = E.Runner.execute (gen_job ~n:30 ()) in
  let p2 = E.Runner.execute (gen_job ~n:30 ()) in
  Alcotest.(check bool) "same plan, same metrics" true
    (p1.E.Record.p_metrics = p2.E.Record.p_metrics)

(* ---- pool: fault isolation ----------------------------------------------- *)

let quiet_pool jobs =
  {
    E.Pool.default_config with
    E.Pool.jobs;
    retries = 1;
    backoff_s = 0.01;
    silence_worker_stdout = true;
  }

let run_pool ?on_event config plans =
  (* Pool-level tests include plans whose instance file is unreadable and
     therefore unfingerprintable (Batch classifies those before the pool
     ever sees them); key them by description instead. *)
  let key job =
    match E.Spec.fingerprint ~schema:E.Record.schema_version job with
    | Ok fp -> fp
    | Error _ -> E.Fingerprint.digest (E.Spec.describe job)
  in
  let plans = List.mapi (fun i job -> (i, key job, job)) plans in
  E.Pool.run ?on_event config ~worker:(fun job -> E.Runner.execute job) plans

let test_pool_crash_isolation () =
  let plans =
    [
      gen_job ~seed:1 ~n:30 ();
      { (gen_job ()) with E.Spec.instance = E.Spec.Crash 66 };
      gen_job ~seed:2 ~n:30 ();
    ]
  in
  let retries = ref 0 in
  let on_event = function E.Pool.Retrying _ -> incr retries | _ -> () in
  let records = run_pool ~on_event (quiet_pool 4) plans in
  Alcotest.(check int) "one record per plan" 3 (List.length records);
  let statuses =
    List.map (fun r -> E.Record.status_name r.E.Record.status) records
  in
  Alcotest.(check (list string)) "crash costs one result, never the sweep"
    [ "ok"; "crashed"; "ok" ] statuses;
  Alcotest.(check int) "crash retried before giving up" 1 !retries;
  let crashed = List.nth records 1 in
  Alcotest.(check int) "attempts counted" 2
    crashed.E.Record.timing.E.Record.attempts

let test_pool_timeout_kill () =
  let t0 = Support.Util.monotonic_ns () in
  let plans =
    [
      { (gen_job ()) with
        E.Spec.instance = E.Spec.Spin 30.0; timeout_s = Some 0.3 };
      gen_job ~n:30 ();
    ]
  in
  let records = run_pool (quiet_pool 2) plans in
  let wall =
    Support.Util.seconds_of_ns (Int64.sub (Support.Util.monotonic_ns ()) t0)
  in
  (match (List.hd records).E.Record.status with
  | E.Record.Timed_out budget ->
      Alcotest.(check (float 1e-9)) "records its budget" 0.3 budget
  | s -> Alcotest.failf "expected Timed_out, got %s" (E.Record.status_name s));
  Alcotest.(check string) "sibling unaffected" "ok"
    (E.Record.status_name (List.nth records 1).E.Record.status);
  (* The spinner was SIGKILLed at its budget, not run to completion. *)
  Alcotest.(check bool) "killed promptly" true (wall < 10.0)

let test_pool_failed_not_retried () =
  let plans =
    [ { (gen_job ()) with E.Spec.instance = E.Spec.Hmetis_file "/absent.hgr" } ]
  in
  let retries = ref 0 in
  let on_event = function E.Pool.Retrying _ -> incr retries | _ -> () in
  let records = run_pool ~on_event (quiet_pool 2) plans in
  Alcotest.(check string) "deterministic failure" "failed"
    (E.Record.status_name (List.hd records).E.Record.status);
  Alcotest.(check int) "deterministic failures never retry" 0 !retries

let test_pool_eof_fd_reuse () =
  (* A worker that closed its status pipe but has not exited yet stays in
     the running set, and the kernel hands its fd number to the next
     descriptor opened.  Steps must not let that worker claim the fd:
     with the reuse forced below, a caller socket's byte would be read
     into the worker's buffer (or its EOF would close the caller's fd).
     The fd numbers are pinned with a probe pipe: [spawn] allocates the
     lowest free numbers, so the status pipe reuses the probe's. *)
  let gate_r, gate_w = Unix.pipe () in
  let probe_r, probe_w = Unix.pipe () in
  Unix.close probe_r;
  Unix.close probe_w;
  let worker (_ : E.Spec.job) =
    (* In the child: close the status pipe's write end, then hold the
       worker alive until the coordinator closes the gate. *)
    Unix.close gate_w;
    Unix.close probe_w;
    ignore (Unix.read gate_r (Bytes.create 1) 0 1 : int);
    { E.Record.p_status = `Done; p_metrics = []; p_observed = None }
  in
  let pool =
    E.Pool.create { (quiet_pool 1) with E.Pool.retries = 0 } ~worker
  in
  let job = gen_job () in
  E.Pool.submit pool ~index:0 ~fingerprint:(fingerprint_exn job) job;
  let completed = ref [] in
  let step ?extra_fds timeout =
    let records, readable = E.Pool.step ?extra_fds ~timeout pool in
    completed := records @ !completed;
    readable
  in
  (* Step until the pool has seen the pipe's EOF and closed its end: the
     next pipe then gets the probe's numbers back. *)
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec reuse () =
    ignore (step 0.01 : Unix.file_descr list);
    let r, w = Unix.pipe () in
    if r = probe_r then (r, w)
    else begin
      Unix.close r;
      Unix.close w;
      if Unix.gettimeofday () > deadline then
        Alcotest.fail "status pipe fd was never released";
      reuse ()
    end
  in
  let sock_r, sock_w = reuse () in
  Alcotest.(check int) "worker still running" 1 (E.Pool.in_flight pool);
  ignore (Unix.write_substring sock_w "x" 0 1 : int);
  let readable = step ~extra_fds:[ sock_r ] 0.5 in
  Alcotest.(check bool) "caller fd reported readable" true
    (List.mem sock_r readable);
  Unix.set_nonblock sock_r;
  let buf = Bytes.create 1 in
  (match Unix.read sock_r buf 0 1 with
  | 1 -> Alcotest.(check char) "caller byte intact" 'x' (Bytes.get buf 0)
  | _ -> Alcotest.fail "caller fd at EOF"
  | exception Unix.Unix_error (Unix.EAGAIN, _, _) ->
      Alcotest.fail "the finished worker consumed the caller's byte");
  (* The caller's EOF must not be consumed (and the fd closed) either. *)
  Unix.close sock_w;
  let readable = step ~extra_fds:[ sock_r ] 0.5 in
  Alcotest.(check bool) "caller EOF reported" true (List.mem sock_r readable);
  Alcotest.(check int) "caller fd still open" 0 (Unix.read sock_r buf 0 1);
  Unix.close sock_r;
  Unix.close gate_w;
  Unix.close gate_r;
  while (not (E.Pool.idle pool)) && Unix.gettimeofday () < deadline do
    ignore (step 0.01 : Unix.file_descr list)
  done;
  match !completed with
  | [ (0, record) ] ->
      (* No payload arrived on the closed pipe: a protocol crash. *)
      Alcotest.(check string) "worker without payload" "crashed"
        (E.Record.status_name record.E.Record.status)
  | l -> Alcotest.failf "expected one record, got %d" (List.length l)

(* ---- cache under concurrent multi-process access ------------------------- *)

let test_cache_concurrent_stores () =
  (* Two forked workers hammer the SAME fingerprint with distinct 64 KiB
     records while the coordinator reads it between pool steps.  The
     contract (see cache.ml): both stores succeed, every read observes
     one record in full — all-'a' or all-'b', never a splice — and the
     validating reader never ticks its corrupt counter.  Tests can't
     fork (SRC08), so concurrency is driven through the incremental
     pool API, which this also exercises. *)
  let dir = temp_dir "hyp_cache_race" in
  let job = gen_job ~n:30 () in
  let fp = fingerprint_exn job in
  let blob_record c =
    {
      E.Record.fingerprint = fp;
      job;
      status = E.Record.Done;
      metrics = [ ("blob", Obs.Json.Str (String.make 65536 c)) ];
      observed = None;
      timing = { E.Record.wall_s = 0.0; attempts = 1; worker = 0; threads = 0 };
    }
  in
  let worker (j : E.Spec.job) =
    (* Runs in the forked child: its own cache handle, its own pid. *)
    let c = if j.E.Spec.seed = 1 then 'a' else 'b' in
    match E.Cache.open_ dir with
    | Error e -> { E.Record.p_status = `Failed e; p_metrics = []; p_observed = None }
    | Ok cache ->
        let failed = ref None in
        for _ = 1 to 200 do
          match E.Cache.store cache (blob_record c) with
          | Ok () -> ()
          | Error e -> failed := Some e
        done;
        (match !failed with
        | Some e -> { E.Record.p_status = `Failed e; p_metrics = []; p_observed = None }
        | None -> { E.Record.p_status = `Done; p_metrics = []; p_observed = None })
  in
  let pool = E.Pool.create (quiet_pool 2) ~worker in
  E.Pool.submit pool ~index:0 ~fingerprint:fp { job with E.Spec.seed = 1 };
  E.Pool.submit pool ~index:1 ~fingerprint:fp { job with E.Spec.seed = 2 };
  let reader = open_cache dir in
  let reads = ref 0 in
  let completed = ref [] in
  while not (E.Pool.idle pool) do
    let records, _ = E.Pool.step ~timeout:0.002 pool in
    List.iter (fun (_, r) -> completed := r :: !completed) records;
    for _ = 1 to 10 do
      match E.Cache.find reader fp with
      | None -> ()
      | Some r -> (
          incr reads;
          match List.assoc_opt "blob" r.E.Record.metrics with
          | Some (Obs.Json.Str s) ->
              Alcotest.(check int) "read is complete" 65536 (String.length s);
              Alcotest.(check bool) "read is one writer's record, not a splice"
                true
                (String.for_all (fun ch -> ch = s.[0]) s)
          | _ -> Alcotest.fail "blob metric missing from raced read")
    done
  done;
  List.iter
    (fun r ->
      Alcotest.(check string) "both writers stored without error" "ok"
        (E.Record.status_name r.E.Record.status))
    !completed;
  Alcotest.(check int) "one record per writer" 2 (List.length !completed);
  Alcotest.(check bool) "reads raced the writers" true (!reads > 0);
  let s = E.Cache.stats reader in
  Alcotest.(check int) "atomic publication: reader never saw a torn record" 0
    s.E.Cache.corrupt;
  (* The final entry is intact and belongs to one of the two writers. *)
  (match E.Cache.find reader fp with
  | Some r -> (
      match List.assoc_opt "blob" r.E.Record.metrics with
      | Some (Obs.Json.Str s) ->
          Alcotest.(check bool) "last rename won cleanly" true
            (String.for_all (fun ch -> ch = s.[0]) s)
      | _ -> Alcotest.fail "blob metric missing from final record")
  | None -> Alcotest.fail "entry must exist after both writers finished");
  (* Renames publish or clean up: no orphaned temp files under the shard
     directory once the writers are done. *)
  let shard = Filename.concat dir (String.sub fp 0 2) in
  let leftovers =
    Array.to_list (Sys.readdir shard)
    |> List.filter (fun f -> not (Filename.check_suffix f ".json"))
  in
  Alcotest.(check (list string)) "no temp files survive" [] leftovers

let test_cache_reader_racing_writer () =
  (* A reader racing a single writer through the entry's whole life:
     before the first store it misses cleanly; from the first successful
     store on it hits; a re-store of the same fingerprint never makes it
     disappear or tear.  The writer is a forked pool worker, the reader
     is the coordinator between steps. *)
  let dir = temp_dir "hyp_cache_rw" in
  let job = gen_job ~n:30 ~seed:5 () in
  let fp = fingerprint_exn job in
  let record =
    {
      E.Record.fingerprint = fp;
      job;
      status = E.Record.Done;
      metrics = [ ("blob", Obs.Json.Str (String.make 65536 'x')) ];
      observed = None;
      timing = { E.Record.wall_s = 0.0; attempts = 1; worker = 0; threads = 0 };
    }
  in
  let worker (_ : E.Spec.job) =
    match E.Cache.open_ dir with
    | Error e -> { E.Record.p_status = `Failed e; p_metrics = []; p_observed = None }
    | Ok cache ->
        for _ = 1 to 100 do
          ignore (E.Cache.store cache record : (unit, string) result)
        done;
        { E.Record.p_status = `Done; p_metrics = []; p_observed = None }
  in
  let pool = E.Pool.create (quiet_pool 1) ~worker in
  E.Pool.submit pool ~index:0 ~fingerprint:fp job;
  let reader = open_cache dir in
  let seen_hit = ref false in
  let ok = ref true in
  while not (E.Pool.idle pool) do
    ignore (E.Pool.step ~timeout:0.002 pool : (int * E.Record.t) list * Unix.file_descr list);
    for _ = 1 to 10 do
      match E.Cache.find reader fp with
      | None ->
          (* Legal only before the first store has been published. *)
          if !seen_hit then ok := false
      | Some _ -> seen_hit := true
    done
  done;
  Alcotest.(check bool) "once published, never absent" true !ok;
  Alcotest.(check bool) "the entry was published" true !seen_hit;
  let s = E.Cache.stats reader in
  Alcotest.(check int) "no torn reads" 0 s.E.Cache.corrupt

(* ---- batch: cache interplay and determinism ------------------------------ *)

let batch_config ~jobs ~cache_dir =
  {
    E.Batch.pool = (quiet_pool jobs : E.Pool.config);
    cache_dir;
  }

let run_batch ~jobs ~cache_dir plans =
  match E.Batch.run (batch_config ~jobs ~cache_dir) plans with
  | Ok report -> report
  | Error e -> Alcotest.failf "batch failed: %s" e

let test_batch_cache_second_pass () =
  let dir = Some (temp_dir "hyp_batch") in
  let plans =
    [ gen_job ~seed:1 ~n:30 (); gen_job ~seed:2 ~n:30 ();
      { (gen_job ()) with E.Spec.instance = E.Spec.Crash 3 } ]
  in
  let first = run_batch ~jobs:2 ~cache_dir:dir plans in
  Alcotest.(check int) "first pass computes" 0 first.E.Batch.stats.E.Batch.from_cache;
  Alcotest.(check int) "two ok" 2 first.E.Batch.stats.E.Batch.ok;
  Alcotest.(check int) "one crash" 1 first.E.Batch.stats.E.Batch.crashes;
  Alcotest.(check bool) "a failing sibling fails the batch" false
    (E.Batch.all_ok first);
  let second = run_batch ~jobs:2 ~cache_dir:dir plans in
  Alcotest.(check int) "second pass hits for completed jobs" 2
    second.E.Batch.stats.E.Batch.from_cache;
  Alcotest.(check int) "crash is never cached" 1
    second.E.Batch.stats.E.Batch.crashes;
  (* Cached outcomes carry the original deterministic record. *)
  List.iter2
    (fun (a : E.Batch.outcome) (b : E.Batch.outcome) ->
      if b.E.Batch.cached then
        Alcotest.(check string) "cache returns the same record"
          (E.Record.deterministic_string a.E.Batch.record)
          (E.Record.deterministic_string b.E.Batch.record))
    first.E.Batch.outcomes second.E.Batch.outcomes

let test_batch_determinism_across_parallelism () =
  (* The headline guarantee: the same manifest at --jobs 1 and --jobs 8
     yields byte-identical records modulo the timing/observed sections. *)
  let manifest =
    {|{
  "schema": "hypartition-manifest/1",
  "defaults": { "eps": 0.2 },
  "instances": [ { "generate": "uniform", "n": 32 } ],
  "configs": [ { "k": 2 }, { "k": 4 } ],
  "seeds": [ 1, 2, 3 ]
}|}
  in
  let plans =
    match E.Manifest.of_string ~known_experiments:[] manifest with
    | Ok jobs -> jobs
    | Error e -> Alcotest.failf "manifest failed: %s" e
  in
  let serial = run_batch ~jobs:1 ~cache_dir:None plans in
  let parallel = run_batch ~jobs:8 ~cache_dir:None plans in
  Alcotest.(check int) "six jobs" 6 (List.length serial.E.Batch.outcomes);
  List.iter2
    (fun (a : E.Batch.outcome) (b : E.Batch.outcome) ->
      Alcotest.(check string) "byte-identical deterministic records"
        (E.Record.deterministic_string a.E.Batch.record)
        (E.Record.deterministic_string b.E.Batch.record))
    serial.E.Batch.outcomes parallel.E.Batch.outcomes;
  Alcotest.(check bool) "all ok serial" true (E.Batch.all_ok serial);
  Alcotest.(check bool) "all ok parallel" true (E.Batch.all_ok parallel)

(* The trace-side determinism guarantee: tracing the same manifest at
   --jobs 1 and --jobs 8 yields the same merged span forest — same
   names, same parent edges, same per-span trace ids — modulo
   timestamps.  Shards absorb in job-index order, so even the merged
   span ids are a function of the plan alone. *)
let test_trace_structure_across_parallelism () =
  let manifest =
    {|{
  "schema": "hypartition-manifest/1",
  "defaults": { "eps": 0.2 },
  "instances": [ { "generate": "uniform", "n": 32 } ],
  "configs": [ { "k": 2 }, { "k": 4 } ],
  "seeds": [ 1, 2 ]
}|}
  in
  let plans =
    match E.Manifest.of_string ~known_experiments:[] manifest with
    | Ok jobs -> jobs
    | Error e -> Alcotest.failf "manifest failed: %s" e
  in
  let traced jobs =
    let path = Filename.temp_file "hyp_trace" ".jsonl" in
    Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
    Obs.reset_for_tests ();
    Obs.enable_trace path;
    ignore (run_batch ~jobs ~cache_dir:None plans : E.Batch.report);
    Obs.close ();
    Obs.reset_for_tests ();
    match Obs.Report.load path with
    | Ok data -> Obs.Report.structure data
    | Error msg -> Alcotest.failf "report load (--jobs %d): %s" jobs msg
  in
  let serial = traced 1 in
  let parallel = traced 8 in
  (* engine.job spans carry the job fingerprint as their trace id, and
     the workers' solver spans (multilevel etc.) sit underneath them. *)
  let contains s sub =
    let n = String.length s and m = String.length sub in
    let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "job spans carry trace ids" true
    (contains serial "engine.job[");
  Alcotest.(check bool) "solver spans merged under the jobs" true
    (contains serial "multilevel");
  Alcotest.(check string)
    "span forest identical across worker counts" serial parallel

(* Bench comparison: the report diffing behind `hypartition bench
   --compare` and the CI perf-smoke gate. *)

let bench_doc ?(rev = "abc1234") ~experiments ~micro () =
  let open Obs.Json in
  Obj
    [
      ("schema", Str Obs.bench_schema_version);
      ("git_rev", Str rev);
      ( "experiments",
        Arr
          (List.map
             (fun (id, wall) ->
               Obj [ ("id", Str id); ("wall_s", Float wall) ])
             experiments) );
      ( "micro",
        Arr
          (List.map
             (fun (name, ns) ->
               Obj [ ("name", Str name); ("ns_per_run", Float ns) ])
             micro) );
    ]

let compare_docs ?threshold_pct ~baseline ~current () =
  match E.Bench_compare.compare_json ?threshold_pct ~baseline ~current () with
  | Ok cmp -> cmp
  | Error msg -> Alcotest.failf "compare_json failed: %s" msg

let test_bench_compare_gate () =
  let baseline =
    bench_doc ~rev:"old0000"
      ~experiments:[ ("E7", 1.0); ("E13", 2.0) ]
      ~micro:[ ("fm", 5.0e6) ] ()
  in
  (* Within threshold: 20% slower on E7 passes at the default 25%. *)
  let current =
    bench_doc ~experiments:[ ("E7", 1.2); ("E13", 1.0) ] ~micro:[] ()
  in
  let cmp = compare_docs ~baseline ~current () in
  Alcotest.(check bool) "20% regression passes at 25%" true
    (E.Bench_compare.ok cmp);
  Alcotest.(check (list string)) "retired rows reported" [ "fm" ]
    cmp.E.Bench_compare.only_baseline;
  (* Beyond threshold: the same report fails a 10% gate, blaming E7. *)
  let cmp = compare_docs ~threshold_pct:10.0 ~baseline ~current () in
  Alcotest.(check bool) "20% regression fails at 10%" false
    (E.Bench_compare.ok cmp);
  (match E.Bench_compare.regressions cmp with
  | [ r ] -> Alcotest.(check string) "E7 is the regression" "E7" r.E.Bench_compare.name
  | rs -> Alcotest.failf "expected one regression, got %d" (List.length rs));
  Alcotest.(check bool) "speedup of the E13 row" true
    (match cmp.E.Bench_compare.rows with
    | _ :: r :: _ -> abs_float (E.Bench_compare.speedup r -. 2.0) < 1e-9
    | _ -> false)

let test_bench_compare_micro_informational () =
  (* A 10x micro regression never gates; a missing current row never
     gates (an old baseline must stay usable as benchmarks change). *)
  let baseline =
    bench_doc ~experiments:[ ("E7", 1.0) ] ~micro:[ ("fm", 1.0e6) ] ()
  in
  let current =
    bench_doc
      ~experiments:[ ("E7", 1.0); ("E9", 5.0) ]
      ~micro:[ ("fm", 1.0e7) ] ()
  in
  let cmp = compare_docs ~threshold_pct:5.0 ~baseline ~current () in
  Alcotest.(check bool) "micro rows never gate" true (E.Bench_compare.ok cmp);
  Alcotest.(check (list string)) "new rows reported" [ "E9" ]
    cmp.E.Bench_compare.only_current

let test_bench_compare_json_roundtrip () =
  let baseline = bench_doc ~experiments:[ ("E7", 1.0) ] ~micro:[] () in
  let current = bench_doc ~experiments:[ ("E7", 2.0) ] ~micro:[] () in
  let cmp = compare_docs ~baseline ~current () in
  (match Obs.Json.parse (Obs.Json.to_string (E.Bench_compare.to_json cmp)) with
  | Error e -> Alcotest.failf "compare JSON does not reparse: %s" e
  | Ok doc ->
      (match Option.bind (Obs.Json.member "schema" doc) Obs.Json.get_str with
      | Some s ->
          Alcotest.(check string) "schema tag" E.Bench_compare.schema_version s
      | None -> Alcotest.fail "missing schema tag");
      (match Obs.Json.member "ok" doc with
      | Some (Obs.Json.Bool false) -> ()
      | _ -> Alcotest.fail "ok must be false for a 2x regression"));
  (* Malformed inputs surface as errors, not exceptions. *)
  (match
     E.Bench_compare.compare_json ~baseline:(Obs.Json.Obj [])
       ~current:(Obs.Json.Obj [ ("experiments", Obs.Json.Arr [ Obs.Json.Obj [] ]) ])
       ()
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "row without id/wall_s must be rejected");
  match E.Bench_compare.compare_json ~threshold_pct:0.0 ~baseline ~current () with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "non-positive threshold must be rejected"

let suite =
  [
    Alcotest.test_case "FNV-1a golden vectors" `Quick test_fnv1a_golden;
    Alcotest.test_case "fingerprint identity" `Quick test_fingerprint_identity;
    Alcotest.test_case "fingerprint hashes file content" `Quick
      test_fingerprint_file_content;
    Alcotest.test_case "spec JSON roundtrip" `Quick test_spec_roundtrip;
    Alcotest.test_case "record JSON roundtrip" `Quick test_record_roundtrip;
    Alcotest.test_case "cache roundtrip" `Quick test_cache_roundtrip;
    Alcotest.test_case "cache rejects defects" `Quick test_cache_rejects_defects;
    Alcotest.test_case "manifest expansion" `Quick test_manifest_expansion;
    Alcotest.test_case "manifest errors" `Quick test_manifest_errors;
    Alcotest.test_case "runner execute" `Quick test_runner_execute;
    Alcotest.test_case "runner determinism" `Quick test_runner_determinism;
    Alcotest.test_case "pool crash isolation" `Quick test_pool_crash_isolation;
    Alcotest.test_case "pool timeout kill" `Quick test_pool_timeout_kill;
    Alcotest.test_case "pool never retries deterministic failures" `Quick
      test_pool_failed_not_retried;
    Alcotest.test_case "pool ignores a finished worker's reused fd" `Quick
      test_pool_eof_fd_reuse;
    Alcotest.test_case "cache concurrent same-fingerprint stores" `Quick
      test_cache_concurrent_stores;
    Alcotest.test_case "cache reader racing writer" `Quick
      test_cache_reader_racing_writer;
    Alcotest.test_case "batch cache second pass" `Quick
      test_batch_cache_second_pass;
    Alcotest.test_case "trace structure across parallelism" `Quick
      test_trace_structure_across_parallelism;
    Alcotest.test_case "batch determinism across parallelism" `Quick
      test_batch_determinism_across_parallelism;
    Alcotest.test_case "bench compare gate" `Quick test_bench_compare_gate;
    Alcotest.test_case "bench compare micro informational" `Quick
      test_bench_compare_micro_informational;
    Alcotest.test_case "bench compare JSON + errors" `Quick
      test_bench_compare_json_roundtrip;
  ]
