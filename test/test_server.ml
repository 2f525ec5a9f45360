(* lib/server: the serving subsystem.  Protocol codec and incremental
   decoder, admission control, the hot-instance LRU, single-flight job
   registry, SLO accounting — and end-to-end daemon/client runs over a
   real Unix-domain socket.  Daemon, clients and load generator are all
   steppable state machines, so a whole serving session interleaves in
   this one thread (tests can neither fork nor spawn threads; forking
   belongs to the engine pool the daemon drives). *)

module S = Server
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

let json_str j = Obs.Json.to_string j

(* ---- protocol codec ------------------------------------------------------ *)

let test_protocol_roundtrip () =
  let requests =
    [
      S.Protocol.Submit { id = 3; job = gen_job ~seed:9 () };
      S.Protocol.Status { id = 1 };
      S.Protocol.Result { id = 2 };
      S.Protocol.Cancel { id = 4 };
      S.Protocol.Stats;
      S.Protocol.Shutdown;
    ]
  in
  List.iter
    (fun req ->
      let j = S.Protocol.request_to_json req in
      match S.Protocol.request_of_json j with
      | Ok req' ->
          Alcotest.(check string)
            "request roundtrips" (json_str j)
            (json_str (S.Protocol.request_to_json req'))
      | Error e -> Alcotest.failf "request failed to roundtrip: %s" e)
    requests;
  let responses =
    [
      S.Protocol.Ack { id = 1; fingerprint = "ab12"; position = 2 };
      S.Protocol.Busy
        { id = 2; reason = S.Protocol.Queue_full; queue_depth = 64 };
      S.Protocol.Busy
        { id = 3; reason = S.Protocol.Client_limit; queue_depth = 1 };
      S.Protocol.Busy { id = 4; reason = S.Protocol.Draining; queue_depth = 0 };
      S.Protocol.Info
        { id = 5; state = S.Protocol.Queued; position = Some 3 };
      S.Protocol.Info { id = 6; state = S.Protocol.Running; position = None };
      S.Protocol.Result_frame
        {
          id = 7;
          source = S.Protocol.Collapsed;
          record = Obs.Json.Obj [ ("status", Obs.Json.Str "ok") ];
        };
      S.Protocol.Cancelled { id = 8 };
      S.Protocol.Stats_frame (Obs.Json.Obj [ ("uptime_s", Obs.Json.Float 1.0) ]);
      S.Protocol.Error_frame { id = Some 9; message = "nope" };
      S.Protocol.Error_frame { id = None; message = "bad frame" };
      S.Protocol.Bye;
    ]
  in
  List.iter
    (fun resp ->
      let j = S.Protocol.response_to_json resp in
      match S.Protocol.response_of_json j with
      | Ok resp' ->
          Alcotest.(check string)
            "response roundtrips" (json_str j)
            (json_str (S.Protocol.response_to_json resp'))
      | Error e -> Alcotest.failf "response failed to roundtrip: %s" e)
    responses;
  (* Every frame self-describes. *)
  List.iter
    (fun req ->
      match
        Obs.Json.member "schema" (S.Protocol.request_to_json req)
      with
      | Some (Obs.Json.Str s) ->
          Alcotest.(check string) "schema tag" S.Protocol.schema_version s
      | _ -> Alcotest.fail "request frame lacks a schema tag")
    requests

let test_protocol_decoder () =
  let frames =
    [
      S.Protocol.request_to_json (S.Protocol.Status { id = 1 });
      S.Protocol.response_to_json S.Protocol.Bye;
      S.Protocol.request_to_json (S.Protocol.Submit { id = 2; job = gen_job () });
    ]
  in
  let wire = String.concat "" (List.map S.Protocol.encode frames) in
  (* Byte-at-a-time feeding must produce exactly the encoded frames. *)
  let d = S.Protocol.decoder () in
  let got = ref [] in
  String.iter
    (fun c ->
      S.Protocol.feed d (String.make 1 c);
      let rec drain () =
        match S.Protocol.next d with
        | Some j ->
            got := j :: !got;
            drain ()
        | None -> ()
      in
      drain ())
    wire;
  Alcotest.(check (list string))
    "byte-wise decode reproduces the frames"
    (List.map json_str frames)
    (List.map json_str (List.rev !got));
  Alcotest.(check bool) "no decoder error" true (S.Protocol.decoder_error d = None);
  (* A malformed length line poisons the decoder permanently: byte
     boundaries are lost, the connection must drop. *)
  let d = S.Protocol.decoder () in
  S.Protocol.feed d "banana\n";
  Alcotest.(check bool) "garbage length line poisons" true
    (S.Protocol.decoder_error d <> None);
  S.Protocol.feed d (S.Protocol.encode (List.hd frames));
  Alcotest.(check bool) "poisoned decoder yields nothing" true
    (S.Protocol.next d = None);
  (* An oversized announcement is rejected without buffering the body. *)
  let d = S.Protocol.decoder () in
  S.Protocol.feed d (string_of_int (S.Protocol.max_frame_bytes + 1) ^ "\n");
  Alcotest.(check bool) "oversized frame poisons" true
    (S.Protocol.decoder_error d <> None);
  (* An unparsable body is a framing error too. *)
  let d = S.Protocol.decoder () in
  S.Protocol.feed d "9\n{broken}\n";
  ignore (S.Protocol.next d : Obs.Json.t option);
  Alcotest.(check bool) "unparsable body poisons" true
    (S.Protocol.decoder_error d <> None)

(* ---- admission control --------------------------------------------------- *)

let test_admission () =
  let a =
    S.Admission.create { S.Admission.queue_limit = 3; per_client_limit = 2 }
  in
  let admit client = S.Admission.try_admit a ~client in
  Alcotest.(check bool) "first" true (admit 1 = S.Admission.Admit);
  Alcotest.(check bool) "second" true (admit 1 = S.Admission.Admit);
  (* The per-client cap trips before the global one: one client cannot
     occupy the whole queue. *)
  Alcotest.(check bool) "client cap" true (admit 1 = S.Admission.Client_limit);
  Alcotest.(check bool) "other client fits" true (admit 2 = S.Admission.Admit);
  Alcotest.(check bool) "queue full" true (admit 3 = S.Admission.Queue_full);
  Alcotest.(check int) "outstanding counts tickets" 3
    (S.Admission.outstanding a);
  S.Admission.release a ~client:1;
  Alcotest.(check bool) "release reopens the client" true
    (admit 1 = S.Admission.Admit);
  Alcotest.(check int) "client view" 2
    (S.Admission.client_outstanding a ~client:1);
  Alcotest.(check int) "forget drops all tickets" 2
    (S.Admission.forget_client a ~client:1);
  Alcotest.(check int) "only client 2 remains" 1 (S.Admission.outstanding a)

(* ---- hot-instance LRU ---------------------------------------------------- *)

let test_instances_lru () =
  let dir = temp_dir "hyp_lru" in
  let file i =
    let path = Filename.concat dir (Printf.sprintf "h%d.hgr" i) in
    (* i+2 distinct edges over 4 nodes so each file parses differently *)
    let edges =
      List.init (i + 2) (fun e -> Printf.sprintf "%d %d" ((e mod 3) + 1) 4)
    in
    write_file path
      (Printf.sprintf "%d 4\n%s\n" (i + 2) (String.concat "\n" edges));
    path
  in
  let l = S.Instances.create ~capacity:2 in
  let p0 = file 0 and p1 = file 1 and p2 = file 2 in
  (match S.Instances.load l p0 with
  | Some hg -> Alcotest.(check int) "parsed" 4 (Hypergraph.num_nodes hg)
  | None -> Alcotest.fail "load failed");
  Alcotest.(check bool) "hit after load" true (S.Instances.lookup l p0 <> None);
  ignore (S.Instances.load l p1);
  Alcotest.(check int) "two entries" 2 (S.Instances.length l);
  (* Touch p0 so p1 is the LRU victim. *)
  ignore (S.Instances.lookup l p0);
  ignore (S.Instances.load l p2);
  Alcotest.(check int) "capacity holds" 2 (S.Instances.length l);
  Alcotest.(check bool) "LRU evicted" true (S.Instances.lookup l p1 = None);
  Alcotest.(check bool) "recent survives" true (S.Instances.lookup l p0 <> None);
  (* Entries key on content, not just path: editing the file invalidates
     the cached parse instead of serving it stale. *)
  write_file p0 "1 4\n1 2 3 4\n";
  Alcotest.(check bool) "edited file misses" true
    (S.Instances.lookup l p0 = None);
  (match S.Instances.load l p0 with
  | Some hg -> Alcotest.(check int) "reparsed edges" 1 (Hypergraph.num_edges hg)
  | None -> Alcotest.fail "reload failed");
  (* Unreadable and malformed files are a miss, not an exception. *)
  Alcotest.(check bool) "missing file" true
    (S.Instances.load l (Filename.concat dir "absent.hgr") = None);
  let bad = Filename.concat dir "bad.hgr" in
  write_file bad "not a hypergraph\n";
  Alcotest.(check bool) "malformed file" true (S.Instances.load l bad = None)

(* ---- SLO accounting ------------------------------------------------------ *)

let member_exn name j =
  match Obs.Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "report lacks %S" name

let num_exn name j =
  match Obs.Json.get_float (member_exn name j) with
  | Some f -> f
  | None -> Alcotest.failf "%S is not numeric" name

let int_exn name j =
  match Obs.Json.get_int (member_exn name j) with
  | Some i -> i
  | None -> Alcotest.failf "%S is not an integer" name

let test_slo () =
  (* Nearest-rank: exact for small sample sets. *)
  let sorted = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 0.0)) "p25 is the 1st sample" 1.0
    (S.Slo.percentile sorted 0.25);
  Alcotest.(check (float 0.0)) "p50 is the 2nd sample" 2.0
    (S.Slo.percentile sorted 0.50);
  Alcotest.(check (float 0.0)) "p99 is the max" 4.0
    (S.Slo.percentile sorted 0.99);
  Alcotest.(check (float 0.0)) "empty set yields 0" 0.0
    (S.Slo.percentile [||] 0.5);
  let t = S.Slo.create () in
  S.Slo.record t S.Slo.Ok_solve ~latency_s:0.4;
  S.Slo.record t S.Slo.Ok_cache ~latency_s:0.1;
  S.Slo.record t S.Slo.Ok_collapsed ~latency_s:0.2;
  S.Slo.record t S.Slo.Busy ~latency_s:0.0;
  S.Slo.record t S.Slo.Error ~latency_s:0.0;
  Alcotest.(check int) "completed" 3 (S.Slo.completed t);
  Alcotest.(check int) "total" 5 (S.Slo.total t);
  let r = S.Slo.report t ~wall_s:2.0 in
  (match member_exn "schema" r with
  | Obs.Json.Str s ->
      Alcotest.(check string) "schema" S.Slo.schema_version s
  | _ -> Alcotest.fail "schema is not a string");
  let totals = member_exn "totals" r in
  Alcotest.(check int) "requests" 5 (int_exn "requests" totals);
  Alcotest.(check int) "ok" 3 (int_exn "ok" totals);
  let lat = member_exn "latency_s" r in
  Alcotest.(check (float 1e-9)) "p50" 0.2 (num_exn "p50" lat);
  Alcotest.(check (float 1e-9)) "p99 = max" 0.4 (num_exn "p99" lat);
  Alcotest.(check (float 1e-9)) "throughput = ok / wall" 1.5
    (num_exn "throughput_rps" r);
  let rates = member_exn "rates" r in
  Alcotest.(check (float 1e-9)) "error rate" 0.2 (num_exn "error" rates);
  Alcotest.(check (float 1e-9)) "backpressure rate" 0.2
    (num_exn "backpressure" rates);
  let cache = member_exn "cache" r in
  Alcotest.(check (float 1e-9)) "hit ratio = (cache+collapsed)/ok"
    (2.0 /. 3.0) (num_exn "hit_ratio" cache)

(* ---- single-flight registry ---------------------------------------------- *)

let fingerprint_exn job =
  match E.Spec.fingerprint ~schema:E.Record.schema_version job with
  | Ok fp -> fp
  | Error e -> Alcotest.failf "fingerprint failed: %s" e

let test_jobs_registry () =
  let t = S.Jobs.create () in
  let job = gen_job ~seed:5 () in
  let fp = fingerprint_exn job in
  let e1 =
    match S.Jobs.submit t ~fingerprint:fp ~job ~client:1 ~id:10 ~now:0L with
    | `New e -> e
    | `Attached _ -> Alcotest.fail "first submit must be new"
  in
  (match S.Jobs.submit t ~fingerprint:fp ~job ~client:2 ~id:20 ~now:1L with
  | `Attached e ->
      Alcotest.(check int) "same entry" e1.S.Jobs.j_key e.S.Jobs.j_key;
      Alcotest.(check int) "two waiters in submission order" 2
        (List.length e.S.Jobs.j_waiters)
  | `New _ -> Alcotest.fail "identical in-flight submit must attach");
  (* Cancelling one waiter of a queued entry detaches; the last waiter's
     cancel aborts the queued job. *)
  (match S.Jobs.cancel t ~client:2 ~id:20 with
  | `Detached -> ()
  | _ -> Alcotest.fail "expected detach while another waiter remains");
  (match S.Jobs.cancel t ~client:1 ~id:10 with
  | `Abort key -> Alcotest.(check int) "aborts the pool key" e1.S.Jobs.j_key key
  | _ -> Alcotest.fail "last waiter off a queued entry must abort");
  Alcotest.(check int) "registry is empty" 0 (S.Jobs.live t);
  (* A running entry is never aborted: the orphaned solve feeds the cache. *)
  (match S.Jobs.submit t ~fingerprint:fp ~job ~client:1 ~id:11 ~now:2L with
  | `New e -> S.Jobs.start t ~key:e.S.Jobs.j_key ~now:3L
  | `Attached _ -> Alcotest.fail "registry was empty");
  (match S.Jobs.cancel t ~client:1 ~id:11 with
  | `Orphaned -> ()
  | _ -> Alcotest.fail "cancelling a running job's last waiter orphans it");
  Alcotest.(check int) "orphan still live" 1 (S.Jobs.live t);
  (* Delivered results are recallable per (client, id). *)
  let rec_json = Obs.Json.Obj [ ("status", Obs.Json.Str "ok") ] in
  S.Jobs.remember t ~client:7 ~id:1 ~source:S.Protocol.Solve ~record:rec_json;
  (match S.Jobs.recall t ~client:7 ~id:1 with
  | Some (S.Protocol.Solve, r) ->
      Alcotest.(check string) "recalled record" (json_str rec_json) (json_str r)
  | _ -> Alcotest.fail "recall failed");
  Alcotest.(check bool) "recall is per-client" true
    (S.Jobs.recall t ~client:8 ~id:1 = None)

(* ---- end-to-end: daemon + clients in one thread -------------------------- *)

let quiet_pool jobs =
  {
    E.Pool.default_config with
    E.Pool.jobs;
    silence_worker_stdout = true;
    retries = 0;
  }

let daemon_config ?(jobs = 2) ?cache_dir ?(queue_limit = 64)
    ?(per_client_limit = 8) ~socket () =
  {
    S.Daemon.endpoint = S.Daemon.Unix_socket socket;
    pool = quiet_pool jobs;
    cache_dir;
    admission = { S.Admission.queue_limit; per_client_limit };
    lru_capacity = 4;
  }

let create_daemon config =
  match S.Daemon.create config with
  | Ok d -> d
  | Error e -> Alcotest.failf "daemon create failed: %s" e

let connect socket =
  match S.Client.connect (S.Daemon.Unix_socket socket) with
  | Ok c -> c
  | Error e -> Alcotest.failf "client connect failed: %s" e

(* Interleave daemon and clients until [pred] holds; the iteration bound
   turns a livelock into a test failure instead of a hang. *)
let pump ?(max_steps = 5000) ~daemon ~clients what pred =
  let steps = ref 0 in
  while not (pred ()) && !steps < max_steps do
    incr steps;
    S.Daemon.step ~timeout:0.002 daemon;
    List.iter (fun c -> S.Client.step ~timeout:0.0 c) clients
  done;
  if not (pred ()) then Alcotest.failf "gave up pumping: %s" what

let recv_all c =
  let rec go acc =
    match S.Client.recv c with None -> List.rev acc | Some r -> go (r :: acc)
  in
  go []

(* Pump until the next response for [c] arrives, then return it. *)
let await_response ~daemon ~clients c what =
  let slot = ref None in
  pump ~daemon ~clients what (fun () ->
      match !slot with
      | Some _ -> true
      | None -> (
          match S.Client.recv c with
          | Some r ->
              slot := Some r;
              true
          | None -> false));
  Option.get !slot

let record_status record =
  match Obs.Json.member "status" record with
  | Some (Obs.Json.Str s) -> s
  | _ -> Alcotest.fail "result record lacks a status"

let test_serve_end_to_end () =
  let dir = temp_dir "hyp_serve" in
  let socket = Filename.concat dir "d.sock" in
  let cache_dir = Filename.concat dir "cache" in
  let daemon = create_daemon (daemon_config ~socket ~cache_dir ()) in
  let c = connect socket in
  let clients = [ c ] in
  S.Client.request c (S.Protocol.Submit { id = 1; job = gen_job ~seed:11 () });
  (match await_response ~daemon ~clients c "ack" with
  | S.Protocol.Ack { id; position; _ } ->
      Alcotest.(check int) "ack echoes the id" 1 id;
      Alcotest.(check int) "empty daemon forks immediately" 0 position
  | other ->
      Alcotest.failf "expected ack, got %s"
        (json_str (S.Protocol.response_to_json other)));
  (match await_response ~daemon ~clients c "first result" with
  | S.Protocol.Result_frame { id; source; record } ->
      Alcotest.(check int) "result id" 1 id;
      Alcotest.(check string) "cold request is a solve" "solve"
        (S.Protocol.source_name source);
      Alcotest.(check string) "solve succeeded" "ok" (record_status record)
  | other ->
      Alcotest.failf "expected result, got %s"
        (json_str (S.Protocol.response_to_json other)));
  (* The identical job again: served from the shared result cache,
     acknowledged at position 0 and answered without forking. *)
  S.Client.request c (S.Protocol.Submit { id = 2; job = gen_job ~seed:11 () });
  let got_cache = ref false and got_ack = ref false in
  pump ~daemon ~clients "cached replay" (fun () ->
      (match S.Client.recv c with
      | Some (S.Protocol.Ack { id = 2; _ }) -> got_ack := true
      | Some (S.Protocol.Result_frame { id = 2; source; record }) ->
          Alcotest.(check string) "replay hits the cache" "cache"
            (S.Protocol.source_name source);
          Alcotest.(check string) "cached record is ok" "ok"
            (record_status record);
          got_cache := true
      | Some other ->
          Alcotest.failf "unexpected frame %s"
            (json_str (S.Protocol.response_to_json other))
      | None -> ());
      !got_cache && !got_ack);
  (* Delivered results stay recallable; unknown ids are an error frame. *)
  S.Client.request c (S.Protocol.Result { id = 1 });
  (match await_response ~daemon ~clients c "recall" with
  | S.Protocol.Result_frame { id = 1; record; _ } ->
      Alcotest.(check string) "recalled record" "ok" (record_status record)
  | other ->
      Alcotest.failf "expected recalled result, got %s"
        (json_str (S.Protocol.response_to_json other)));
  S.Client.request c (S.Protocol.Result { id = 99 });
  (match await_response ~daemon ~clients c "unknown id" with
  | S.Protocol.Error_frame { id = Some 99; _ } -> ()
  | other ->
      Alcotest.failf "expected error frame, got %s"
        (json_str (S.Protocol.response_to_json other)));
  (* Stats reflect the session: 2 submits, 1 cache hit. *)
  S.Client.request c S.Protocol.Stats;
  (match await_response ~daemon ~clients c "stats" with
  | S.Protocol.Stats_frame body ->
      let requests = member_exn "requests" body in
      Alcotest.(check int) "submitted" 2 (int_exn "submitted" requests);
      Alcotest.(check int) "cache hits" 1 (int_exn "cache_hits" requests);
      let cache = member_exn "cache" body in
      Alcotest.(check bool) "cache stats present" true
        (cache <> Obs.Json.Null)
  | other ->
      Alcotest.failf "expected stats, got %s"
        (json_str (S.Protocol.response_to_json other)));
  S.Client.close c;
  S.Daemon.initiate_drain daemon;
  pump ~daemon ~clients:[] "drain" (fun () -> S.Daemon.finished daemon);
  S.Daemon.close daemon;
  Alcotest.(check bool) "no orphan workers" true (E.Pool.no_live_children ())

let test_serve_collapse () =
  let dir = temp_dir "hyp_collapse" in
  let socket = Filename.concat dir "d.sock" in
  (* No cache: only single-flight collapsing can dedup the pair. *)
  let daemon = create_daemon (daemon_config ~socket ()) in
  let c1 = connect socket and c2 = connect socket in
  let clients = [ c1; c2 ] in
  let job = gen_job ~seed:21 () in
  S.Client.request c1 (S.Protocol.Submit { id = 1; job });
  S.Client.request c2 (S.Protocol.Submit { id = 1; job });
  let r1 = ref None and r2 = ref None in
  pump ~daemon ~clients "collapsed pair" (fun () ->
      List.iter
        (fun (c, slot) ->
          List.iter
            (function
              | S.Protocol.Result_frame { source; record; _ } ->
                  Alcotest.(check string) "both results ok" "ok"
                    (record_status record);
                  slot := Some source
              | _ -> ())
            (recv_all c))
        [ (c1, r1); (c2, r2) ];
      !r1 <> None && !r2 <> None);
  (* Exactly one worker ran; the other rode along. *)
  let names =
    List.sort String.compare
      (List.map
         (fun s -> S.Protocol.source_name (Option.get !s))
         [ r1; r2 ])
  in
  Alcotest.(check (list string)) "one solve, one collapsed"
    [ "collapsed"; "solve" ] names;
  List.iter S.Client.close clients;
  S.Daemon.initiate_drain daemon;
  pump ~daemon ~clients:[] "drain" (fun () -> S.Daemon.finished daemon);
  S.Daemon.close daemon

let test_serve_backpressure () =
  let dir = temp_dir "hyp_busy" in
  let socket = Filename.concat dir "d.sock" in
  (* One worker, queue of two: the third distinct submit in one batch
     must bounce with queue_full before anything completes (admission
     decides per frame, within one read). *)
  let daemon =
    create_daemon (daemon_config ~jobs:1 ~queue_limit:2 ~socket ())
  in
  let c = connect socket in
  let clients = [ c ] in
  List.iter
    (fun id ->
      S.Client.request c
        (S.Protocol.Submit { id; job = gen_job ~seed:(30 + id) () }))
    [ 1; 2; 3 ];
  let busy = ref None and results = ref 0 in
  pump ~daemon ~clients "queue_full backpressure" (fun () ->
      List.iter
        (function
          | S.Protocol.Busy { id; reason; queue_depth } ->
              Alcotest.(check int) "the overflow submit bounced" 3 id;
              Alcotest.(check string) "reason" "queue_full"
                (S.Protocol.busy_reason_name reason);
              Alcotest.(check int) "reported depth is the limit" 2 queue_depth;
              busy := Some id
          | S.Protocol.Result_frame { record; _ } ->
              Alcotest.(check string) "admitted jobs complete" "ok"
                (record_status record);
              incr results
          | _ -> ())
        (recv_all c);
      !busy <> None && !results = 2);
  (* The per-client cap trips first when it is the tighter limit. *)
  let socket2 = Filename.concat dir "d2.sock" in
  let daemon2 =
    create_daemon
      (daemon_config ~jobs:1 ~queue_limit:64 ~per_client_limit:1
         ~socket:socket2 ())
  in
  let c2 = connect socket2 in
  S.Client.request c2 (S.Protocol.Submit { id = 1; job = gen_job ~seed:41 () });
  S.Client.request c2 (S.Protocol.Submit { id = 2; job = gen_job ~seed:42 () });
  let hit = ref false in
  pump ~daemon:daemon2 ~clients:[ c2 ] "client_limit backpressure" (fun () ->
      List.iter
        (function
          | S.Protocol.Busy { id; reason; _ } ->
              Alcotest.(check int) "second submit bounced" 2 id;
              Alcotest.(check string) "reason" "client_limit"
                (S.Protocol.busy_reason_name reason);
              hit := true
          | _ -> ())
        (recv_all c2);
      !hit);
  S.Client.close c;
  S.Client.close c2;
  List.iter
    (fun d ->
      S.Daemon.initiate_drain d;
      pump ~daemon:d ~clients:[] "drain" (fun () -> S.Daemon.finished d);
      S.Daemon.close d)
    [ daemon; daemon2 ];
  Alcotest.(check bool) "no orphan workers" true (E.Pool.no_live_children ())

let test_serve_cancel () =
  let dir = temp_dir "hyp_cancel" in
  let socket = Filename.concat dir "d.sock" in
  let daemon = create_daemon (daemon_config ~jobs:1 ~socket ()) in
  let c = connect socket in
  let clients = [ c ] in
  (* Both submits land in one read: job 1 is still unforked when the
     cancel for job 2 arrives in the same batch, so the abort is
     deterministic — job 2 never reaches a worker. *)
  S.Client.request c (S.Protocol.Submit { id = 1; job = gen_job ~seed:51 () });
  S.Client.request c (S.Protocol.Submit { id = 2; job = gen_job ~seed:52 () });
  S.Client.request c (S.Protocol.Cancel { id = 2 });
  let cancelled = ref false and result1 = ref false in
  pump ~daemon ~clients "cancel queued job" (fun () ->
      List.iter
        (function
          | S.Protocol.Cancelled { id } ->
              Alcotest.(check int) "cancelled the queued job" 2 id;
              cancelled := true
          | S.Protocol.Result_frame { id; record; _ } ->
              Alcotest.(check int) "only job 1 completes" 1 id;
              Alcotest.(check string) "job 1 is ok" "ok"
                (record_status record);
              result1 := true
          | _ -> ())
        (recv_all c);
      !cancelled && !result1);
  (* Cancelling an unknown id is an error frame, not a crash. *)
  S.Client.request c (S.Protocol.Cancel { id = 77 });
  (match await_response ~daemon ~clients c "unknown cancel" with
  | S.Protocol.Error_frame { id = Some 77; _ } -> ()
  | other ->
      Alcotest.failf "expected error frame, got %s"
        (json_str (S.Protocol.response_to_json other)));
  S.Client.close c;
  S.Daemon.initiate_drain daemon;
  pump ~daemon ~clients:[] "drain" (fun () -> S.Daemon.finished daemon);
  S.Daemon.close daemon

let test_serve_drain () =
  let dir = temp_dir "hyp_drain" in
  let socket = Filename.concat dir "d.sock" in
  let trace = Filename.concat dir "trace.jsonl" in
  Obs.enable_trace trace;
  let daemon = create_daemon (daemon_config ~jobs:1 ~socket ()) in
  let c = connect socket in
  let clients = [ c ] in
  (* Get job 1 running (forked), keep job 2 queued, then shut down:
     drain must finish the running worker, skip the queued one, and
     still answer both waiters.  Job 1 sleeps for a fixed time: a job
     that completes inside one daemon step goes from queued to done
     without ever being reported running. *)
  let job1 = { (gen_job ~seed:61 ()) with E.Spec.instance = E.Spec.Spin 0.3 } in
  S.Client.request c (S.Protocol.Submit { id = 1; job = job1 });
  pump ~daemon ~clients "job 1 running" (fun () ->
      S.Client.request c (S.Protocol.Status { id = 1 });
      S.Daemon.step ~timeout:0.002 daemon;
      S.Client.step c;
      List.exists
        (function
          | S.Protocol.Info { id = 1; state = S.Protocol.Running; _ } -> true
          | _ -> false)
        (recv_all c));
  S.Client.request c (S.Protocol.Submit { id = 2; job = gen_job ~seed:62 () });
  S.Client.request c S.Protocol.Shutdown;
  let statuses = ref [] and bye = ref false in
  pump ~daemon ~clients "drain delivers everything" (fun () ->
      List.iter
        (function
          | S.Protocol.Result_frame { id; record; _ } ->
              statuses := (id, record_status record) :: !statuses
          | S.Protocol.Bye -> bye := true
          | _ -> ())
        (recv_all c);
      !bye && List.length !statuses = 2 && S.Daemon.finished daemon);
  Alcotest.(check bool) "daemon reports draining" true (S.Daemon.draining daemon);
  let find id = List.assoc_opt id !statuses in
  Alcotest.(check (option string)) "running job finished" (Some "ok") (find 1);
  Alcotest.(check (option string)) "queued job skipped" (Some "skipped")
    (find 2);
  S.Daemon.close daemon;
  S.Client.close c;
  Alcotest.(check bool) "zero orphan workers after drain" true
    (E.Pool.no_live_children ());
  (* The trace survives analysis: per-request span trees with the
     queue-wait/solve split, worker shards absorbed underneath. *)
  Obs.close ();
  match Obs.Report.load trace with
  | Error e -> Alcotest.failf "drain trace failed to load: %s" e
  | Ok data ->
      let folded = Obs.Report.folded data in
      Alcotest.(check bool) "server.request spans present" true
        (let re = "server.request" in
         let rec contains i =
           i + String.length re <= String.length folded
           && (String.sub folded i (String.length re) = re
              || contains (i + 1))
         in
         contains 0);
      Alcotest.(check bool) "queue_wait child present" true
        (let re = "server.request;queue_wait" in
         let rec contains i =
           i + String.length re <= String.length folded
           && (String.sub folded i (String.length re) = re
              || contains (i + 1))
         in
         contains 0)

let test_serve_loadgen () =
  let dir = temp_dir "hyp_loadbench" in
  let socket = Filename.concat dir "d.sock" in
  let cache_dir = Filename.concat dir "cache" in
  let daemon = create_daemon (daemon_config ~jobs:2 ~cache_dir ~socket ()) in
  let config =
    {
      S.Loadgen.default_config with
      S.Loadgen.endpoint = S.Daemon.Unix_socket socket;
      clients = 2;
      requests = 10;
      distinct = 2;
      n = 30;
      shutdown_at_end = true;
    }
  in
  let gen =
    match S.Loadgen.create config with
    | Ok g -> g
    | Error e -> Alcotest.failf "loadgen create failed: %s" e
  in
  let steps = ref 0 in
  while not (S.Loadgen.finished gen) && !steps < 5000 do
    incr steps;
    S.Loadgen.step gen;
    S.Daemon.step ~timeout:0.002 daemon
  done;
  Alcotest.(check bool) "load run completes" true (S.Loadgen.finished gen);
  (* The loadgen's shutdown frame drains the daemon. *)
  let steps = ref 0 in
  while not (S.Daemon.finished daemon) && !steps < 5000 do
    incr steps;
    S.Daemon.step ~timeout:0.002 daemon
  done;
  Alcotest.(check bool) "daemon drains after shutdown" true
    (S.Daemon.finished daemon);
  S.Daemon.close daemon;
  let report = S.Loadgen.report gen in
  S.Loadgen.close gen;
  let totals = member_exn "totals" report in
  Alcotest.(check int) "all requests settle" 10 (int_exn "requests" totals);
  Alcotest.(check int) "every request succeeded" 10 (int_exn "ok" totals);
  Alcotest.(check int) "no errors" 0 (int_exn "errors" totals);
  let cache = member_exn "cache" report in
  let solves = int_exn "solve" cache in
  Alcotest.(check bool) "2 distinct jobs need at most a few solves" true
    (solves >= 1 && solves <= 4);
  Alcotest.(check bool) "duplicates were absorbed" true
    (num_exn "hit_ratio" cache > 0.0);
  Alcotest.(check bool) "no orphan workers" true (E.Pool.no_live_children ())

(* A client that vanishes without reading its answers must cost exactly
   its connection.  The write to the closed peer raises EPIPE (the test
   ignores SIGPIPE, as [Daemon.run] does in production — the default
   disposition would kill the process before the EPIPE handling runs);
   the daemon drops the connection and keeps serving. *)
let test_serve_client_vanish () =
  let previous = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe previous)
  @@ fun () ->
  let dir = temp_dir "hyp_vanish" in
  let socket = Filename.concat dir "d.sock" in
  let daemon = create_daemon (daemon_config ~jobs:1 ~socket ()) in
  let c1 = connect socket in
  S.Client.request c1 (S.Protocol.Submit { id = 1; job = gen_job ~seed:21 () });
  (match await_response ~daemon ~clients:[ c1 ] c1 "ack before vanish" with
  | S.Protocol.Ack _ -> ()
  | other ->
      Alcotest.failf "expected ack, got %s"
        (json_str (S.Protocol.response_to_json other)));
  (* Leave a request on the wire, then hang up: the daemon reads it,
     buffers the answer and hits the closed peer on flush. *)
  S.Client.request c1 (S.Protocol.Status { id = 1 });
  S.Client.step ~timeout:0.0 c1;
  S.Client.close c1;
  (* The daemon survives: a fresh client completes a full cycle. *)
  let c2 = connect socket in
  let clients = [ c2 ] in
  S.Client.request c2 (S.Protocol.Submit { id = 1; job = gen_job ~seed:22 () });
  (match await_response ~daemon ~clients c2 "ack after vanish" with
  | S.Protocol.Ack _ -> ()
  | other ->
      Alcotest.failf "expected ack, got %s"
        (json_str (S.Protocol.response_to_json other)));
  (match await_response ~daemon ~clients c2 "result after vanish" with
  | S.Protocol.Result_frame { record; _ } ->
      Alcotest.(check string) "daemon kept serving" "ok" (record_status record)
  | other ->
      Alcotest.failf "expected result, got %s"
        (json_str (S.Protocol.response_to_json other)));
  S.Client.request c2 S.Protocol.Shutdown;
  pump ~daemon ~clients "drain after vanish" (fun () ->
      S.Daemon.finished daemon);
  S.Daemon.close daemon;
  S.Client.close c2;
  Alcotest.(check bool) "no orphan workers" true (E.Pool.no_live_children ())

let suite =
  [
    Alcotest.test_case "protocol frames roundtrip" `Quick
      test_protocol_roundtrip;
    Alcotest.test_case "protocol decoder framing" `Quick test_protocol_decoder;
    Alcotest.test_case "admission control limits" `Quick test_admission;
    Alcotest.test_case "hot-instance LRU" `Quick test_instances_lru;
    Alcotest.test_case "SLO accounting" `Quick test_slo;
    Alcotest.test_case "single-flight registry" `Quick test_jobs_registry;
    Alcotest.test_case "serve end-to-end (solve, cache, recall, stats)" `Quick
      test_serve_end_to_end;
    Alcotest.test_case "identical in-flight requests collapse" `Quick
      test_serve_collapse;
    Alcotest.test_case "admission backpressure over the wire" `Quick
      test_serve_backpressure;
    Alcotest.test_case "cancel a queued job" `Quick test_serve_cancel;
    Alcotest.test_case "graceful drain, zero orphans, valid trace" `Quick
      test_serve_drain;
    Alcotest.test_case "loadgen SLO bench in-process" `Quick
      test_serve_loadgen;
    Alcotest.test_case "vanishing client costs only its connection" `Quick
      test_serve_client_vanish;
  ]
