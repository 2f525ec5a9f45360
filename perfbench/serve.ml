(* The serving workload: an in-process Server.Daemon (forked workers, a
   fresh on-disk result cache) driven through Server.Client by a closed
   loop of clients that each keep one request outstanding.

   Cold phase: a fixed list of distinct jobs, so every request is solved
   by a worker and its record is written to the cache.  Warm phase: the
   same jobs replayed round-robin until the measured window ends, so
   every request must be answered from the cache with the cold result.
   The loop records each request's latency from submit to result frame,
   which the p50 / p95 metrics need. *)

type params = {
  n : int;  (* generated uniform instance size *)
  k : int;
  eps : float;
  cold : int;  (* distinct jobs = cold-phase requests *)
  workers : int;
  clients : int;
  setups : int;  (* setup_s samples, spread over the run *)
}

let params ~tiny =
  {
    n = (if tiny then 300 else 3000);
    k = 8;
    eps = 0.03;
    cold = (if tiny then 8 else 200);
    workers = 2;
    clients = 2;
    setups = 17;
  }

let deadline_s = 150.0
let now = Support.Util.monotonic_ns
let since t0 = Support.Util.seconds_of_ns (Int64.sub (now ()) t0)

let job p ~seed j =
  {
    Engine.Spec.instance =
      Engine.Spec.Generated { kind = Engine.Spec.Uniform; n = p.n };
    config = { Engine.Spec.default_config with Engine.Spec.k = p.k; eps = p.eps };
    seed = (seed * 7919) + j;
    timeout_s = Some 60.0;
  }

type client = {
  conn : Server.Client.t;
  mutable next_id : int;
  mutable pending : (int * int * int64) option;  (* request id, job, submit *)
}

type run = {
  p : params;
  seed : int;
  spans : Spans.t;
  tally : Tally.t;
  time : string -> (unit -> unit) -> unit;  (* step timing, traced runs only *)
  layers : Layers.t;
  cold_cost : int array;
  mutable cold_wall : float list;  (* engine job wall time per cold solve *)
  mutable imbalance : float;
}

let get_exn what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "Serve.get_exn: %s: %s" what e)

(* ---- set-up ------------------------------------------------------------- *)

let start_daemon r ~endpoint ~cache_dir =
  let daemon =
    get_exn "start"
      (Server.Daemon.create
         {
           Server.Daemon.default_config with
           endpoint;
           pool =
             {
               Engine.Pool.default_config with
               jobs = r.p.workers;
               silence_worker_stdout = true;
             };
           cache_dir = Some cache_dir;
         })
  in
  let clients =
    List.init r.p.clients (fun _ ->
        {
          conn = get_exn "connect" (Server.Client.connect endpoint);
          next_id = 1;
          pending = None;
        })
  in
  (daemon, clients)

let start r ~dir =
  start_daemon r
    ~endpoint:(Server.Daemon.Unix_socket (Filename.concat dir "daemon.sock"))
    ~cache_dir:(Filename.concat dir "cache")

(* ---- checks on served records ------------------------------------------- *)

let metric_int record name =
  Option.bind (List.assoc_opt name record.Engine.Record.metrics) Obs.Json.get_int

let metric_float record name =
  Option.bind
    (List.assoc_opt name record.Engine.Record.metrics)
    Obs.Json.get_float

(* Decode and check one served result: a Done record of the right shape
   whose partition is strictly balanced.  [Error] carries the reason. *)
let check_record r json =
  Spans.time r.spans "partition.check" (fun () ->
      match Engine.Record.of_json json with
      | Error e -> Error ("undecodable record: " ^ e)
      | Ok record -> (
          let imb =
            Option.value (metric_float record "imbalance") ~default:infinity
          in
          r.imbalance <- Float.max r.imbalance imb;
          match metric_int record "connectivity" with
          | Some conn
            when Engine.Record.ok record
                 && metric_int record "n" = Some r.p.n
                 && metric_int record "k" = Some r.p.k
                 && List.assoc_opt "balanced" record.Engine.Record.metrics
                    = Some (Obs.Json.Bool true)
                 && imb <= r.p.eps ->
              Ok (record, conn)
          | _ ->
              Error
                (Printf.sprintf "status %s, shape or balance check failed"
                   (Engine.Record.status_name record.Engine.Record.status))))

(* Each request is one operation: it fails unless its record checks out
   and [expect] holds. *)
let settle_request r ~what json ~expect =
  match check_record r json with
  | Error e -> Tally.expect r.tally false (lazy (what ^ ": " ^ e))
  | Ok (record, conn) -> (
      match expect record conn with
      | None -> Tally.expect r.tally true (lazy what)
      | Some why -> Tally.expect r.tally false (lazy (what ^ ": " ^ why)))

let on_cold r j source json =
  settle_request r ~what:(Printf.sprintf "cold job %d" j) json
    ~expect:(fun record conn ->
      r.cold_cost.(j) <- conn;
      r.cold_wall <-
        record.Engine.Record.timing.Engine.Record.wall_s :: r.cold_wall;
      Option.iter (Layers.add r.layers) record.Engine.Record.observed;
      match source with
      | Server.Protocol.Solve -> None
      | s -> Some ("answered by " ^ Server.Protocol.source_name s))

let on_warm r j source json =
  settle_request r ~what:(Printf.sprintf "warm replay of job %d" j) json
    ~expect:(fun _ conn ->
      if source = Server.Protocol.Cache && conn = r.cold_cost.(j) then None
      else
        Some
          (Printf.sprintf "source %s, connectivity %d (cold %d)"
             (Server.Protocol.source_name source) conn r.cold_cost.(j)))

(* ---- the closed loop ---------------------------------------------------- *)

(* Run one phase: every idle client submits [next_job ()] until it
   returns [None]; returns the latencies of answered requests.  Busy,
   error and unanswered requests count as failed. *)
let phase r daemon clients ~next_job ~on_result =
  let latencies = ref [] and stopped = ref false in
  let t0 = now () in
  let outstanding () = List.exists (fun c -> Option.is_some c.pending) clients in
  let settle c id f =
    match c.pending with
    | Some (pid, j, submit) when pid = id ->
        c.pending <- None;
        f j submit
    | _ -> ()
  in
  let fail c id why =
    settle c id (fun j _ ->
        Tally.expect r.tally false
          (lazy (Printf.sprintf "job %d: %s" j why)))
  in
  let rec drain c =
    match Server.Client.recv c.conn with
    | None -> ()
    | Some resp ->
        (match resp with
        | Server.Protocol.Result_frame { id; source; record } ->
            settle c id (fun j submit ->
                latencies := since submit :: !latencies;
                on_result j source record)
        | Server.Protocol.Busy { id; reason; _ } ->
            fail c id ("busy: " ^ Server.Protocol.busy_reason_name reason)
        | Server.Protocol.Error_frame { id = Some id; message } ->
            fail c id ("error: " ^ message)
        | _ -> ());
        drain c
  in
  while (not !stopped) || outstanding () do
    if since t0 > deadline_s then failwith "Serve.phase: requests unanswered";
    List.iter
      (fun c ->
        if Option.is_none c.pending && not !stopped then
          match next_job () with
          | None -> stopped := true
          | Some j ->
              let id = c.next_id in
              c.next_id <- id + 1;
              Server.Client.request c.conn
                (Server.Protocol.Submit { id; job = job r.p ~seed:r.seed j });
              c.pending <- Some (id, j, now ()))
      clients;
    r.time "client.step" (fun () ->
        List.iter (fun c -> Server.Client.step c.conn) clients);
    (* The default timeout, as Daemon.run steps it. *)
    r.time "daemon.step" (fun () -> Server.Daemon.step daemon);
    r.time "client.step" (fun () ->
        List.iter
          (fun c ->
            Server.Client.step c.conn;
            drain c)
          clients);
    List.iter
      (fun c ->
        if Server.Client.closed c.conn then
          failwith
            ("Serve.phase: connection lost: "
            ^ Option.value (Server.Client.error c.conn) ~default:"closed"))
      clients
  done;
  (!latencies, since t0)

let cold_jobs r =
  let next = ref 0 in
  fun () ->
    if !next >= r.p.cold then None
    else begin
      incr next;
      Some (!next - 1)
    end

let warm_jobs r ~seconds =
  let next = ref 0 and t0 = now () in
  fun () ->
    if !next > 0 && since t0 >= seconds then None
    else begin
      incr next;
      Some ((!next - 1) mod r.p.cold)
    end

let stop daemon clients =
  List.iter (fun c -> Server.Client.close c.conn) clients;
  Server.Daemon.initiate_drain daemon;
  let t0 = now () in
  while (not (Server.Daemon.finished daemon)) && since t0 < 10.0 do
    Server.Daemon.step ~timeout:0.01 daemon
  done;
  Server.Daemon.close daemon

(* Re-run the first cold jobs in this process, exactly as a worker
   would: the served connectivity must match. *)
let cross_check r =
  for j = 0 to min 2 r.p.cold - 1 do
    let payload = Engine.Runner.execute (job r.p ~seed:r.seed j) in
    let conn =
      Option.bind
        (List.assoc_opt "connectivity" payload.Engine.Record.p_metrics)
        Obs.Json.get_int
    in
    Tally.expect r.tally
      (conn = Some r.cold_cost.(j))
      (lazy (Printf.sprintf "job %d: in-process solve disagrees with served result" j))
  done

(* One setup_s sample: a daemon started beside the run's own, on a fresh
   cache directory, timed from Daemon.create through the client connects
   to the answer to its first request, a job solved by a worker.  The
   create and connects alone take tens of microseconds, and their median
   moved by up to 2x between runs; up to the first answer, a set-up is
   about as steady as a cold request. *)
let setup_sample r ~dir =
  let cache_dir = Filename.concat dir "setup-cache" in
  let t0 = now () in
  let daemon, clients =
    start_daemon r
      ~endpoint:(Server.Daemon.Unix_socket (Filename.concat dir "setup.sock"))
      ~cache_dir
  in
  let c = List.hd clients in
  Server.Client.request c.conn
    (Server.Protocol.Submit { id = 1; job = job r.p ~seed:r.seed 0 });
  let rec answer () =
    if since t0 > deadline_s then failwith "Serve.setup_sample: unanswered";
    Server.Client.step c.conn;
    Server.Daemon.step daemon;
    Server.Client.step c.conn;
    match Server.Client.recv c.conn with
    | Some (Server.Protocol.Result_frame { source; record; _ }) ->
        Ok (source, record)
    | Some (Server.Protocol.Busy _ | Server.Protocol.Error_frame _) ->
        Error "busy or error"
    | Some _ | None -> answer ()
  in
  let answered = answer () in
  Spans.record r.spans "setup" (since t0);
  let what = "set-up's first request" in
  (match answered with
  | Error e -> Tally.expect r.tally false (lazy (what ^ ": " ^ e))
  | Ok (source, json) ->
      settle_request r ~what json ~expect:(fun _ _ ->
          match source with
          | Server.Protocol.Solve -> None
          | s -> Some ("answered by " ^ Server.Protocol.source_name s)));
  stop daemon clients;
  Run_dir.remove cache_dir

let make_run ~seed ~tiny ~traced =
  let spans = Spans.create () in
  let p = params ~tiny in
  {
    p;
    seed;
    spans;
    tally = Tally.create ();
    time = (if traced then Spans.time spans else fun _ f -> f ());
    layers = Layers.create ();
    cold_cost = Array.make p.cold 0;
    cold_wall = [];
    imbalance = 0.0;
  }

let end_to_end r ~setup ~cold ~warm =
  let setups = Spans.samples r.spans "setup" in
  Printf.eprintf
    "[serve] %d cold + %d warm requests; set-up seconds p10 %.6f p50 %.6f \
     p90 %.6f\n%!"
    (List.length (fst cold))
    (List.length (fst warm))
    (Stats.percentile setups 0.1) (Stats.median setups)
    (Stats.percentile setups 0.9);
  [
    ("solve_s", Stats.median r.cold_wall);
    ("connectivity", float_of_int (Array.fold_left ( + ) 0 r.cold_cost));
    ("setup_s", setup);
    ("peak_rss_mb", Run_dir.peak_rss_mb ());
  ]
  @ Stats.phase_metrics "cold" (fst cold) ~busy_s:(snd cold)
  @ Stats.phase_metrics "warm" (fst warm) ~busy_s:(snd warm)

(* ---- untraced run ------------------------------------------------------- *)

let run ~dir ~seed ~seconds ~tiny =
  let r = make_run ~seed ~tiny ~traced:false in
  let daemon, clients = start r ~dir in
  let cold, warm =
    Fun.protect ~finally:(fun () -> stop daemon clients) (fun () ->
        setup_sample r ~dir;
        let cold =
          phase r daemon clients ~next_job:(cold_jobs r) ~on_result:(on_cold r)
        in
        (* The warm phase runs in slices with a set-up before each, so
           the setup_s samples spread over the window. *)
        let slices = r.p.setups - 1 in
        let warm =
          List.init slices (fun _ ->
              setup_sample r ~dir;
              phase r daemon clients
                ~next_job:
                  (warm_jobs r ~seconds:(seconds /. 2.0 /. float_of_int slices))
                ~on_result:(on_warm r))
        in
        ( cold,
          ( List.concat_map fst warm,
            Stats.sum (List.map snd warm) ) ))
  in
  cross_check r;
  (r.tally, end_to_end r ~setup:(Spans.median r.spans "setup") ~cold ~warm)

(* ---- traced run --------------------------------------------------------- *)

(* The daemon's retroactive request spans, read back from the trace:
   (name, source of the enclosing request, seconds). *)
let request_spans path =
  let lines =
    List.filter_map
      (fun line ->
        match Obs.Json.parse line with
        | Ok j when Obs.Json.(member "type" j) = Some (Obs.Json.Str "span") ->
            Some j
        | _ -> None)
      (In_channel.with_open_text path In_channel.input_lines)
  in
  let int_field name j = Option.bind (Obs.Json.member name j) Obs.Json.get_int in
  let str_field name j = Option.bind (Obs.Json.member name j) Obs.Json.get_str in
  let sources = Hashtbl.create 1024 in
  List.iter
    (fun j ->
      match (str_field "name" j, int_field "id" j) with
      | Some "server.request", Some id ->
          Hashtbl.replace sources id
            (Option.value
               (Option.bind (Obs.Json.member "attrs" j) (str_field "source"))
               ~default:"")
      | _ -> ())
    lines;
  List.filter_map
    (fun j ->
      match (str_field "name" j, int_field "parent" j, int_field "dur_ns" j) with
      | Some name, Some parent, Some dur -> (
          match Hashtbl.find_opt sources parent with
          | Some source -> Some (name, source, float_of_int dur /. 1e9)
          | None -> None)
      | _ -> None)
    lines

let run_traced ~dir ~seed ~seconds ~tiny =
  let r = make_run ~seed ~tiny ~traced:true in
  let trace = Filename.concat dir "trace.jsonl" in
  Obs.enable_trace trace;
  let daemon, clients = start r ~dir in
  let cold, warm_traced, warm_plain, stats =
    Fun.protect ~finally:(fun () -> stop daemon clients) (fun () ->
        let cold =
          phase r daemon clients ~next_job:(cold_jobs r) ~on_result:(on_cold r)
        in
        (* The warm window alternates traced and untraced slices, so
           that drift in machine speed falls on both sides alike. *)
        let slices = 6 in
        let warm_traced = ref [] and warm_plain = ref [] in
        for i = 0 to slices - 1 do
          Obs.set_enabled (i mod 2 = 0);
          let latencies, _ =
            phase r daemon clients
              ~next_job:
                (warm_jobs r ~seconds:(seconds /. 2.0 /. float_of_int slices))
              ~on_result:(on_warm r)
          in
          let into = if i mod 2 = 0 then warm_traced else warm_plain in
          into := List.rev_append latencies !into
        done;
        Obs.set_enabled false;
        (cold, warm_traced, warm_plain, Server.Daemon.stats_json daemon))
  in
  Obs.close ();
  let spans = request_spans trace in
  let pick name source =
    List.filter_map
      (fun (n, s, d) -> if String.equal n name && String.equal s source then Some d else None)
      spans
  in
  let stat path =
    let rec go j = function
      | [] -> Option.bind j Obs.Json.get_int
      | k :: rest -> go (Option.bind j (Obs.Json.member k)) rest
    in
    float_of_int (Option.value (go (Some stats) path) ~default:0)
  in
  let requests =
    float_of_int
      (List.length (fst cold) + List.length !warm_traced
      + List.length !warm_plain)
  in
  cross_check r;
  let queue_wait = pick "queue_wait" "solve" in
  let metrics =
    [
      ("hypergraph.load_s", 0.0);
      ("coarsen.coarsest_nodes", 0.0);
      ("coarsen.coarsest_pins", 0.0);
    ]
    @ Layers.metrics r.layers
    @ [
        ("parallel.speedup", 0.0);
        ("parallel.coarsen_speedup", 0.0);
        ("parallel.uncoarsen_speedup", 0.0);
        ("partition.check_s", Spans.median r.spans "partition.check");
        ("partition.imbalance_max", r.imbalance);
        ("solve.alloc_mwords", 0.0);
        ("engine.job.wall_s", Stats.median r.cold_wall);
        ("engine.cache.hit", stat [ "cache"; "hits" ]);
        ("engine.cache.miss", stat [ "cache"; "misses" ]);
        ("engine.cache.store", stat [ "cache"; "stores" ]);
        ("server.queue_wait_p50_s", Stats.median queue_wait);
        ("server.queue_wait_p95_s", Stats.percentile queue_wait 0.95);
        ("server.solve_s", Stats.median (pick "solve" "solve"));
        ("server.respond_s", Stats.median (pick "respond" "cache"));
        ("server.step_s", Stats.ratio (Spans.total r.spans "daemon.step") requests);
        ("client.step_s", Stats.ratio (Spans.total r.spans "client.step") requests);
        ("server.busy", stat [ "requests"; "busy" ]);
        ( "obs.overhead_ratio",
          Stats.ratio (Stats.median !warm_traced) (Stats.median !warm_plain) );
      ]
  in
  (r.tally, metrics)
