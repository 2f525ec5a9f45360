(** Worker-side job execution.

    [execute] materializes the instance (load, generate, or experiment
    lookup), runs the work with observability collection on, audits the
    result with the lib/analysis auditors, and packages the outcome as a
    {!Record.payload}.  Deterministic failures (unreadable input,
    infeasible instance, audit violation) come back as [`Failed] — only
    process death is a crash, and only the {!Spec.Crash} drill dies on
    purpose. *)

val execute :
  ?lookup:(string -> Hypergraph.t option) ->
  ?threads:int ->
  Spec.job ->
  Record.payload
(** Run one job in the current process.  Intended to be passed as the
    [worker] of {!Pool.run}; safe to call in-process for tests (except
    on {!Spec.Crash}, which exits).

    [?lookup] resolves an {!Spec.Hmetis_file} path to an already-parsed
    hypergraph before any file I/O — the serve daemon's hot-instance LRU,
    visible to forked workers through copy-on-write.  A [None] falls back
    to loading the file.

    [?threads] (default 1) is the domain count for jobs whose config has
    [parallel = true]; it bounds the run without changing its result —
    the parallel solver's output does not depend on the thread count,
    so the payload is a pure function of the plan.  Sequential jobs
    ignore it. *)

val snapshot_to_json : Obs.snapshot -> Obs.Json.t
(** The ["observed"] rendering of an observability snapshot (counters,
    gauges, histograms, span rollup) shared by result records and the
    bench report. *)
