(* Fork-based worker pool: the fault-isolation boundary of the engine.

   Each job runs in a forked child ("worker") that reports a
   Record.payload back over a dedicated status pipe and then _exits
   without running the parent's at_exit handlers.  The coordinator
   multiplexes the pipes with select, reaps children with non-blocking
   waitpid, SIGKILLs any worker that exceeds its wall-clock budget, and
   retries crashed workers (bounded, with exponential backoff) — so a
   crashing, diverging or OOM-killed job costs exactly one result, never
   the sweep.

   Status pipes are drained while workers run (not after they exit): a
   worker whose payload exceeds the kernel pipe buffer would otherwise
   deadlock against a coordinator waiting for its exit.

   Since the serve PR the coordinator state is an explicit value [t] with
   an incremental API — create / submit / step / cancel — so a long-lived
   caller (the `hypartition serve` daemon) can feed jobs one at a time
   and keep its own accept loop responsive; [step] can multiplex caller
   fds (listening and client sockets) into the same select.  The batch
   entry point [run] is a thin loop over that machine and behaves exactly
   as before.

   SIGINT (when [handle_sigint]) drains gracefully: no new workers are
   forked, queued jobs become Skipped records, and in-flight workers run
   to completion — so every result that will be cached is a complete,
   validated record.

   This module is the only place in the repository allowed to call
   Unix.fork / Unix.waitpid / Unix.kill (lint rule SRC08): process
   management stays centralized behind this interface. *)

type config = {
  jobs : int;
  retries : int;
  backoff_s : float;
  default_timeout_s : float option;
  silence_worker_stdout : bool;
  handle_sigint : bool;
  solver_threads : int;
      (* domains per worker's solver, stamped on record timing; 0 =
         sequential.  The pool itself never creates domains — a forked
         worker spawns (and joins) its own inside the solve. *)
}

let default_config =
  {
    jobs = 1;
    retries = 1;
    backoff_s = 0.1;
    default_timeout_s = None;
    silence_worker_stdout = false;
    handle_sigint = false;
    solver_threads = 0;
  }

type event =
  | Started of { index : int; job : Spec.job; worker : int; attempt : int }
  | Finished of { index : int; record : Record.t }
  | Retrying of { index : int; job : Spec.job; attempt : int; delay_s : float }
  | Interrupted of { pending : int }

let c_ok = Obs.Counter.make "engine.job.ok"
let c_failed = Obs.Counter.make "engine.job.failed"
let c_timeout = Obs.Counter.make "engine.job.timeout"
let c_crashed = Obs.Counter.make "engine.job.crashed"
let c_retried = Obs.Counter.make "engine.job.retried"
let c_skipped = Obs.Counter.make "engine.job.skipped"
let h_wall = Obs.Histogram.make "engine.job.wall_s"

type pending = {
  p_index : int;
  p_fp : string;
  p_job : Spec.job;
  p_attempt : int;  (* 1-based *)
  p_ready_at : int64;  (* monotonic ns; backoff gate for retries *)
}

type running = {
  r_index : int;
  r_fp : string;
  r_job : Spec.job;
  r_attempt : int;
  r_pid : int;
  r_fd : Unix.file_descr;
  r_buf : Buffer.t;
  mutable r_eof : bool;
  r_started : int64;
  r_deadline : int64 option;
  r_slot : int;
  mutable r_killed : bool;
  r_shard : string option; (* the worker's trace shard, absorbed at drain *)
}

type t = {
  config : config;
  worker : Spec.job -> Record.payload;
  slots : int;
  slot_free : bool array;
  mutable pending : pending list;
  mutable running : running list;
  mutable shards : (int * string) list; (* job index, shard path *)
  mutable completed : (int * Record.t) list; (* newest first, drained by step *)
  mutable stop_forking : bool;
}

let ns_of_s s = Int64.of_float (s *. 1e9)

(* ---- the worker side ---------------------------------------------------- *)

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let off = ref 0 in
  while !off < n do
    match Unix.write fd b !off (n - !off) with
    | written -> off := !off + written
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done

(* The shard path a worker writes, derived from the coordinator's trace
   path and the worker pid — computed identically on both sides of the
   fork so the coordinator knows what to absorb. *)
let shard_path ~base ~pid = Printf.sprintf "%s.worker.%d.jsonl" base pid

(* Runs in the forked child; never returns.  Anything the worker function
   raises becomes a Failed payload (a deterministic job-level failure);
   only dying without completing the protocol counts as a crash. *)
let child_main ~silence ~trace_ctx ~worker ~job write_fd =
  if silence then begin
    let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
    Unix.dup2 devnull Unix.stdout;
    Unix.close devnull
  end;
  (* Drop sinks inherited from the coordinator: a worker must never
     append to the parent's trace file.  When the coordinator is tracing,
     attach a shard of our own instead — its meta header carries the
     trace id (the job fingerprint) and the coordinator-side parent span,
     so the coordinator can merge it back into one timeline. *)
  Obs.reset_for_tests ();
  (match trace_ctx with
  | None -> ()
  | Some (base, trace_id, parent_span) ->
      let pid = Unix.getpid () in
      Obs.enable_trace_shard ~trace_id ?parent_span ~pid
        (shard_path ~base ~pid));
  let payload =
    try worker job
    with e ->
      {
        Record.p_status = `Failed ("uncaught exception: " ^ Printexc.to_string e);
        p_metrics = [];
        p_observed = None;
      }
  in
  (* Finalize the shard before reporting: a payload on the status pipe
     promises the shard is complete. *)
  Obs.close ();
  (match write_all write_fd (Obs.Json.to_string (Record.payload_to_json payload))
   with
  | () -> ()
  | exception Unix.Unix_error _ -> ());
  (try Unix.close write_fd with Unix.Unix_error _ -> ());
  (* Flush the child's own stdio, then exit WITHOUT at_exit: the
     coordinator's handlers (obs sinks, alcotest reporting) must run
     exactly once, in the coordinator. *)
  (try flush stdout with Sys_error _ -> ());
  (try flush stderr with Sys_error _ -> ());
  Unix._exit 0

(* ---- the coordinator side ----------------------------------------------- *)

let spawn ~config ~worker ~slot (p : pending) =
  (* Flush buffered output so the child does not replay it. *)
  flush stdout;
  flush stderr;
  (* Capture the trace context before forking: the job fingerprint is the
     trace id, the innermost open span (engine.batch) the parent. *)
  let trace_ctx =
    match Obs.trace_file () with
    | None -> None
    | Some base -> Some (base, p.p_fp, Obs.current_span_id ())
  in
  let read_fd, write_fd = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | 0 ->
      (try Unix.close read_fd with Unix.Unix_error _ -> ());
      child_main ~silence:config.silence_worker_stdout ~trace_ctx ~worker
        ~job:p.p_job write_fd
  | pid ->
      Unix.close write_fd;
      let now = Support.Util.monotonic_ns () in
      let timeout =
        match p.p_job.Spec.timeout_s with
        | Some t -> Some t
        | None -> config.default_timeout_s
      in
      {
        r_index = p.p_index;
        r_fp = p.p_fp;
        r_job = p.p_job;
        r_attempt = p.p_attempt;
        r_pid = pid;
        r_fd = read_fd;
        r_buf = Buffer.create 1024;
        r_eof = false;
        r_started = now;
        r_deadline = Option.map (fun t -> Int64.add now (ns_of_s t)) timeout;
        r_slot = slot;
        r_killed = false;
        r_shard =
          Option.map
            (fun (base, _, _) -> shard_path ~base ~pid)
            trace_ctx;
      }

let read_chunk r =
  let chunk = Bytes.create 65536 in
  match Unix.read r.r_fd chunk 0 (Bytes.length chunk) with
  | 0 ->
      r.r_eof <- true;
      (try Unix.close r.r_fd with Unix.Unix_error _ -> ())
  | n -> Buffer.add_subbytes r.r_buf chunk 0 n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* Classify a reaped worker from its exit status and whatever arrived on
   the status pipe. *)
let classify r status =
  let budget =
    match r.r_deadline with
    | Some d ->
        Support.Util.seconds_of_ns (Int64.sub d r.r_started)
    | None -> 0.0
  in
  match status with
  | Unix.WEXITED 0 -> (
      let raw = String.trim (Buffer.contents r.r_buf) in
      match Obs.Json.parse raw with
      | Error e -> `Crash (Printf.sprintf "worker protocol: bad payload (%s)" e)
      | Ok json -> (
          match Record.payload_of_json json with
          | Error e -> `Crash (Printf.sprintf "worker protocol: %s" e)
          | Ok payload -> `Payload payload))
  | Unix.WEXITED code -> `Crash (Printf.sprintf "worker exited with status %d" code)
  | Unix.WSIGNALED signal ->
      if r.r_killed then `Timeout budget
      else `Crash (Printf.sprintf "worker killed by signal %d" signal)
  | Unix.WSTOPPED signal ->
      `Crash (Printf.sprintf "worker stopped by signal %d" signal)

let make_record ~threads ~r ~status ~metrics ~observed ~wall =
  Obs.Histogram.observe h_wall wall;
  {
    Record.fingerprint = r.r_fp;
    job = r.r_job;
    status;
    metrics;
    observed;
    timing =
      {
        Record.wall_s = wall;
        attempts = r.r_attempt;
        worker = r.r_slot;
        threads;
      };
  }

let skipped_record ~reason (p : pending) =
  {
    Record.fingerprint = p.p_fp;
    job = p.p_job;
    status = Record.Skipped reason;
    metrics = [];
    observed = None;
    timing = Record.no_timing;
  }

(* ---- incremental coordinator API ---------------------------------------- *)

let create config ~worker =
  let slots = max 1 config.jobs in
  {
    config;
    worker;
    slots;
    slot_free = Array.make slots true;
    pending = [];
    running = [];
    shards = [];
    completed = [];
    stop_forking = false;
  }

let submit t ~index ~fingerprint job =
  t.pending <-
    t.pending
    @ [
        {
          p_index = index;
          p_fp = fingerprint;
          p_job = job;
          p_attempt = 1;
          p_ready_at = 0L;
        };
      ]

let queued t = List.length t.pending
let in_flight t = List.length t.running
let idle t = t.pending = [] && t.running = []
let stop_forking t = t.stop_forking <- true

let cancel t ~index =
  let found = ref false in
  t.pending <-
    List.filter
      (fun p ->
        if (not !found) && p.p_index = index then begin
          found := true;
          false
        end
        else true)
      t.pending;
  !found

let skip_queued ?(on_event = fun (_ : event) -> ()) ~reason t =
  let skipped =
    List.map
      (fun p ->
        let record = skipped_record ~reason p in
        Obs.Counter.incr c_skipped;
        on_event (Finished { index = p.p_index; record });
        (p.p_index, record))
      t.pending
  in
  t.pending <- [];
  t.completed <- List.rev_append skipped t.completed;
  skipped

let finish t index record =
  (match record.Record.status with
  | Record.Done -> Obs.Counter.incr c_ok
  | Record.Failed _ -> Obs.Counter.incr c_failed
  | Record.Timed_out _ -> Obs.Counter.incr c_timeout
  | Record.Crashed _ -> Obs.Counter.incr c_crashed
  | Record.Skipped _ -> Obs.Counter.incr c_skipped);
  t.completed <- (index, record) :: t.completed

let take_ready t now =
  (* First pending job whose backoff gate has passed, preserving queue
     order for the rest. *)
  let rec go acc = function
    | [] -> None
    | p :: rest when p.p_ready_at <= now ->
        t.pending <- List.rev_append acc rest;
        Some p
    | p :: rest -> go (p :: acc) rest
  in
  go [] t.pending

let free_slot t =
  let rec go i = if t.slot_free.(i) then i else go (i + 1) in
  go 0

let finalize ~on_event t now r status =
  t.slot_free.(r.r_slot) <- true;
  (* The worker has exited, so the pipe's write end is gone — drain what
     is still buffered before classifying.  Reaping between the worker's
     final write and the next select round must not truncate the payload
     into a spurious protocol crash. *)
  while not r.r_eof do
    read_chunk r
  done;
  let wall = Support.Util.seconds_of_ns (Int64.sub now r.r_started) in
  let make_record = make_record ~threads:t.config.solver_threads in
  (* A final attempt's shard (complete, or partial for a killed worker)
     is merged at drain; a retried attempt's partial shard is stale —
     the retry forks a fresh pid, hence a fresh shard path. *)
  let keep_shard () =
    match r.r_shard with
    | Some path -> t.shards <- (r.r_index, path) :: t.shards
    | None -> ()
  in
  let drop_shard () =
    match r.r_shard with
    | Some path -> ( try Sys.remove path with Sys_error _ -> ())
    | None -> ()
  in
  match classify r status with
  | `Payload { Record.p_status = `Done; p_metrics; p_observed } ->
      keep_shard ();
      let record =
        make_record ~r ~status:Record.Done ~metrics:p_metrics
          ~observed:p_observed ~wall
      in
      on_event (Finished { index = r.r_index; record });
      finish t r.r_index record
  | `Payload { Record.p_status = `Failed msg; p_metrics; p_observed } ->
      keep_shard ();
      let record =
        make_record ~r ~status:(Record.Failed msg) ~metrics:p_metrics
          ~observed:p_observed ~wall
      in
      on_event (Finished { index = r.r_index; record });
      finish t r.r_index record
  | `Timeout budget ->
      keep_shard ();
      let record =
        make_record ~r ~status:(Record.Timed_out budget) ~metrics:[]
          ~observed:None ~wall
      in
      on_event (Finished { index = r.r_index; record });
      finish t r.r_index record
  | `Crash msg ->
      if r.r_attempt <= t.config.retries && not t.stop_forking then begin
        drop_shard ();
        (* Transient-looking death: bounded retry with exponential
           backoff. *)
        let delay =
          t.config.backoff_s *. (2.0 ** float_of_int (r.r_attempt - 1))
        in
        Obs.Counter.incr c_retried;
        on_event
          (Retrying
             { index = r.r_index; job = r.r_job; attempt = r.r_attempt + 1;
               delay_s = delay });
        t.pending <-
          t.pending
          @ [
              {
                p_index = r.r_index;
                p_fp = r.r_fp;
                p_job = r.r_job;
                p_attempt = r.r_attempt + 1;
                p_ready_at = Int64.add now (ns_of_s delay);
              };
            ]
      end
      else begin
        keep_shard ();
        let record =
          make_record ~r ~status:(Record.Crashed msg) ~metrics:[]
            ~observed:None ~wall
        in
        on_event (Finished { index = r.r_index; record });
        finish t r.r_index record
      end

let step ?(on_event = fun (_ : event) -> ()) ?(extra_fds = []) ~timeout t =
  let now = Support.Util.monotonic_ns () in
  (* Fork workers into free slots. *)
  let continue = ref true in
  while
    !continue && List.length t.running < t.slots && not t.stop_forking
  do
    match take_ready t now with
    | None -> continue := false
    | Some p ->
        let slot = free_slot t in
        t.slot_free.(slot) <- false;
        let r = spawn ~config:t.config ~worker:t.worker ~slot p in
        on_event
          (Started
             { index = p.p_index; job = p.p_job; worker = slot;
               attempt = p.p_attempt });
        t.running <- r :: t.running
  done;
  (* Drain status pipes; the select timeout also paces deadline and
     backoff checks, and multiplexes any caller fds (the daemon's
     sockets) into the same wait. *)
  let fds =
    List.filter_map
      (fun r -> if r.r_eof then None else Some r.r_fd)
      t.running
  in
  let readable_extra =
    match Unix.select (fds @ extra_fds) [] [] timeout with
    | readable, _, _ ->
        (* A worker at EOF has closed its pipe, and the fd number may
           already belong to a newer worker's pipe or a caller socket:
           only workers still reading may claim a readable fd. *)
        List.iter
          (fun r ->
            if (not r.r_eof) && List.mem r.r_fd readable then read_chunk r)
          t.running;
        List.filter (fun fd -> List.mem fd readable) extra_fds
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
  in
  (* Enforce deadlines and reap exits. *)
  let now = Support.Util.monotonic_ns () in
  let still = ref [] in
  List.iter
    (fun r ->
      (match r.r_deadline with
      | Some d when (not r.r_killed) && now > d -> (
          r.r_killed <- true;
          try Unix.kill r.r_pid Sys.sigkill
          with Unix.Unix_error (Unix.ESRCH, _, _) -> ())
      | _ -> ());
      match Unix.waitpid [ Unix.WNOHANG ] r.r_pid with
      | 0, _ -> still := r :: !still
      | _, status -> finalize ~on_event t now r status
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> still := r :: !still)
    t.running;
  t.running <- !still;
  let completed = List.rev t.completed in
  t.completed <- [];
  (completed, readable_extra)

let take_shards t =
  let shards =
    List.sort (fun (a, _) (b, _) -> Int.compare a b) t.shards
  in
  t.shards <- [];
  shards

let absorb_shards t =
  (* Absorb worker trace shards in job-index order, so merged span ids
     depend only on the plan — identical for --jobs 1 and --jobs 8.  The
     coordinator's own engine.batch span is still open here, so absorbed
     shard roots re-parent under it. *)
  List.iter
    (fun (_, path) ->
      ignore (Obs.absorb_shard path : int);
      try Sys.remove path with Sys_error _ -> ())
    (take_shards t)

(* No live forked children remain: the drain-test probe.  waitpid(-1)
   with WNOHANG either raises ECHILD (nothing left to reap — the good
   case) or reports a child, which a clean drain must not leave behind. *)
let no_live_children () =
  match Unix.waitpid [ Unix.WNOHANG ] (-1) with
  | 0, _ -> false (* a child is still running *)
  | _, _ -> false (* an unreaped zombie *)
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* ---- the batch entry point ---------------------------------------------- *)

let run ?(on_event = fun (_ : event) -> ()) config ~worker jobs =
  let t = create config ~worker in
  List.iteri
    (fun _ (index, fp, job) -> submit t ~index ~fingerprint:fp job)
    jobs;
  let interrupted = ref false in
  let previous_sigint =
    if config.handle_sigint then
      Some
        (Sys.signal Sys.sigint
           (Sys.Signal_handle (fun _ -> interrupted := true)))
    else None
  in
  let restore_sigint () =
    match previous_sigint with
    | Some b -> Sys.set_signal Sys.sigint b
    | None -> ()
  in
  Fun.protect ~finally:restore_sigint @@ fun () ->
  let results = ref [] in
  let interrupt_announced = ref false in
  while not (idle t) do
    if !interrupted then begin
      if not !interrupt_announced then begin
        interrupt_announced := true;
        t.stop_forking <- true;
        on_event (Interrupted { pending = queued t })
      end;
      ignore
        (skip_queued ~on_event ~reason:"interrupted (SIGINT)" t
          : (int * Record.t) list)
    end;
    let completed, _ = step ~on_event ~timeout:0.05 t in
    results := List.rev_append completed !results
  done;
  absorb_shards t;
  (* Results in input (index) order: callers zip against their job list. *)
  List.map snd
    (List.sort (fun (a, _) (b, _) -> Int.compare a b) !results)
