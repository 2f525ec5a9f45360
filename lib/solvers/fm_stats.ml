(* Batched fm.* emissions for off-main-domain refinement; see the .mli.
   The handles below intern the same metric names Refine's direct path
   uses, so committed batches and direct emissions land in one series. *)

type acc = {
  mutable a_count : int;
  mutable a_sum : float;
  mutable a_min : float;
  mutable a_max : float;
  mutable a_last : float;
}

type t = {
  mutable pops : int;
  mutable stale : int;
  mutable applied : int;
  mutable accepted : int;
  mutable rolled_back : int;
  mutable rebalance : int;
  mutable cache_hits : int;
  mutable cache_misses : int;
  mutable delta_updates : int;
  pass_gain : acc;
  final_cost : acc;
  boundary : acc;
  pass_alloc : acc;
}

let acc () = { a_count = 0; a_sum = 0.0; a_min = 0.0; a_max = 0.0; a_last = 0.0 }

let create () =
  {
    pops = 0;
    stale = 0;
    applied = 0;
    accepted = 0;
    rolled_back = 0;
    rebalance = 0;
    cache_hits = 0;
    cache_misses = 0;
    delta_updates = 0;
    pass_gain = acc ();
    final_cost = acc ();
    boundary = acc ();
    pass_alloc = acc ();
  }

let observe a v =
  if a.a_count = 0 then begin
    a.a_min <- v;
    a.a_max <- v
  end
  else begin
    if v < a.a_min then a.a_min <- v;
    if v > a.a_max then a.a_max <- v
  end;
  a.a_count <- a.a_count + 1;
  a.a_sum <- a.a_sum +. v;
  a.a_last <- v

let observe_int a v = observe a (float_of_int v)

let c_pops = Obs.Counter.make "fm.pops"
let c_stale = Obs.Counter.make "fm.stale_reinserts"
let c_applied = Obs.Counter.make "fm.moves_applied"
let c_accepted = Obs.Counter.make "fm.moves_accepted"
let c_rolled_back = Obs.Counter.make "fm.moves_rolled_back"
let c_rebalance = Obs.Counter.make "fm.rebalance_moves"
let c_cache_hits = Obs.Counter.make "fm.gain_cache.hits"
let c_cache_misses = Obs.Counter.make "fm.gain_cache.misses"
let c_delta_updates = Obs.Counter.make "fm.gain_cache.delta_updates"
let h_pass_gain = Obs.Histogram.make "fm.pass_gain"
let h_final_cost = Obs.Histogram.make "fm.final_cost"
let h_boundary = Obs.Histogram.make "fm.boundary_size"
let h_pass_alloc = Obs.Histogram.make "fm.pass_alloc_words"

let commit_acc h a =
  Obs.Histogram.merge h ~count:a.a_count ~sum:a.a_sum ~min:a.a_min ~max:a.a_max
    ~last:a.a_last

let commit t =
  Obs.Counter.add c_pops t.pops;
  Obs.Counter.add c_stale t.stale;
  Obs.Counter.add c_applied t.applied;
  Obs.Counter.add c_accepted t.accepted;
  Obs.Counter.add c_rolled_back t.rolled_back;
  Obs.Counter.add c_rebalance t.rebalance;
  Obs.Counter.add c_cache_hits t.cache_hits;
  Obs.Counter.add c_cache_misses t.cache_misses;
  Obs.Counter.add c_delta_updates t.delta_updates;
  commit_acc h_pass_gain t.pass_gain;
  commit_acc h_final_cost t.final_cost;
  commit_acc h_boundary t.boundary;
  commit_acc h_pass_alloc t.pass_alloc
