(* Core hypergraph type: immutable CSR representation of a hypergraph
   G(V, E) as in Section 3.1 of the paper.  Nodes are 0..n-1, hyperedges
   0..m-1; [pins] concatenates the (sorted) pin lists of all edges, and
   [incidence] concatenates the incident-edge lists of all nodes. *)

type t = {
  n : int;
  node_weight : int array; (* length n *)
  edge_weight : int array; (* length m *)
  edge_offsets : int array; (* length m+1; edge e pins at [off.(e), off.(e+1)) *)
  pins : int array;
  node_offsets : int array; (* length n+1 *)
  incidence : int array;
}

let num_nodes t = t.n
let num_edges t = Array.length t.edge_weight
let num_pins t = Array.length t.pins

let edge_size t e = t.edge_offsets.(e + 1) - t.edge_offsets.(e)
let node_degree t v = t.node_offsets.(v + 1) - t.node_offsets.(v)
let node_weight t v = t.node_weight.(v)
let edge_weight t e = t.edge_weight.(e)

let iter_pins t e f =
  for i = t.edge_offsets.(e) to t.edge_offsets.(e + 1) - 1 do
    f t.pins.(i)
  done

let iter_incident t v f =
  for i = t.node_offsets.(v) to t.node_offsets.(v + 1) - 1 do
    f t.incidence.(i)
  done

let fold_pins t e f init =
  let acc = ref init in
  iter_pins t e (fun v -> acc := f !acc v);
  !acc

let fold_incident t v f init =
  let acc = ref init in
  iter_incident t v (fun e -> acc := f !acc e);
  !acc

let edge_pins t e =
  Array.sub t.pins t.edge_offsets.(e) (edge_size t e)

let incident_edges t v =
  Array.sub t.incidence t.node_offsets.(v) (node_degree t v)

let exists_pin t e p =
  let rec go i =
    i < t.edge_offsets.(e + 1) && (p t.pins.(i) || go (i + 1))
  in
  go t.edge_offsets.(e)

let edge_mem t e v =
  (* Pins are sorted within each edge: binary search. *)
  let lo = ref t.edge_offsets.(e) and hi = ref (t.edge_offsets.(e + 1) - 1) in
  let found = ref false in
  while (not !found) && !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let u = t.pins.(mid) in
    if u = v then found := true
    else if u < v then lo := mid + 1
    else hi := mid - 1
  done;
  !found

let max_degree t =
  let best = ref 0 in
  for v = 0 to t.n - 1 do
    if node_degree t v > !best then best := node_degree t v
  done;
  !best

let total_node_weight t = Support.Util.sum_array t.node_weight
let total_edge_weight t = Support.Util.sum_array t.edge_weight

let edges t = Array.init (num_edges t) (fun e -> edge_pins t e)

(* Zero-copy CSR views: the refinement and coarsening hot paths iterate
   pins millions of times, and every [iter_pins]/[iter_incident] call site
   whose closure captures per-move state costs one allocation per call.
   Handing out the live arrays lets those loops run allocation-free;
   callers must treat them as read-only. *)
let csr_pins t = t.pins
let csr_edge_offsets t = t.edge_offsets
let csr_incidence t = t.incidence
let csr_node_offsets t = t.node_offsets

(* Construction ----------------------------------------------------------- *)

(* Finish a CSR hypergraph from its sorted pin slices: one linear pass
   checks every pin against [0, n) and for a repeat of its predecessor
   within the edge (messages prefixed by [who]), then the pins are
   transposed into node -> incident edges (in increasing edge order). *)
let of_csr ~who ~n ~node_weight ~edge_weight ~edge_offsets ~pins =
  let m = Array.length edge_weight in
  for e = 0 to m - 1 do
    let base = edge_offsets.(e) in
    for i = base to edge_offsets.(e + 1) - 1 do
      let v = pins.(i) in
      if v < 0 || v >= n then invalid_arg (who ^ ": pin out of range");
      if i > base && pins.(i - 1) = v then
        invalid_arg (who ^ ": duplicate pin within an edge")
    done
  done;
  let rho = Array.length pins in
  let node_offsets = Array.make (n + 1) 0 in
  Array.iter (fun v -> node_offsets.(v + 1) <- node_offsets.(v + 1) + 1) pins;
  for v = 0 to n - 1 do
    node_offsets.(v + 1) <- node_offsets.(v + 1) + node_offsets.(v)
  done;
  let incidence = Array.make rho 0 in
  let cursor = Array.copy node_offsets in
  for e = 0 to m - 1 do
    for i = edge_offsets.(e) to edge_offsets.(e + 1) - 1 do
      let v = pins.(i) in
      incidence.(cursor.(v)) <- e;
      cursor.(v) <- cursor.(v) + 1
    done
  done;
  { n; node_weight; edge_weight; edge_offsets; pins; node_offsets; incidence }

let of_edges ?node_weights ?edge_weights ~n edge_list =
  let m = Array.length edge_list in
  let node_weight =
    match node_weights with
    | Some w ->
        if Array.length w <> n then invalid_arg "Hg.of_edges: node_weights length";
        Array.copy w
    | None -> Array.make n 1
  in
  let edge_weight =
    match edge_weights with
    | Some w ->
        if Array.length w <> m then invalid_arg "Hg.of_edges: edge_weights length";
        Array.copy w
    | None -> Array.make m 1
  in
  let edge_offsets = Array.make (m + 1) 0 in
  for e = 0 to m - 1 do
    edge_offsets.(e + 1) <- edge_offsets.(e) + Array.length edge_list.(e)
  done;
  (* Each edge is copied into its slice of [pins] and sorted there. *)
  let pins = Array.make edge_offsets.(m) 0 in
  for e = 0 to m - 1 do
    let base = edge_offsets.(e) and len = Array.length edge_list.(e) in
    Array.blit edge_list.(e) 0 pins base len;
    Support.Util.sort_int_range pins base len
  done;
  of_csr ~who:"Hg.of_edges" ~n ~node_weight ~edge_weight ~edge_offsets ~pins

let empty n = of_edges ~n [||]

(* Builder ----------------------------------------------------------------- *)

module Builder = struct
  type b = {
    mutable nodes : int; (* next node id *)
    weights : Support.Int_vec.t;
    mutable edges_rev : (int array * int) list; (* pins, weight; reversed *)
    mutable edge_count : int;
  }

  let create () =
    {
      nodes = 0;
      weights = Support.Int_vec.create ();
      edges_rev = [];
      edge_count = 0;
    }

  let add_node ?(weight = 1) b =
    let id = b.nodes in
    b.nodes <- id + 1;
    Support.Int_vec.push b.weights weight;
    id

  let add_nodes ?(weight = 1) b count =
    Array.init count (fun _ -> add_node ~weight b)

  let add_edge ?(weight = 1) b pins =
    if Array.length pins = 0 then invalid_arg "Builder.add_edge: empty edge";
    Array.iter
      (fun v ->
        if v < 0 || v >= b.nodes then
          invalid_arg "Builder.add_edge: unknown node")
      pins;
    let id = b.edge_count in
    b.edge_count <- id + 1;
    b.edges_rev <- (Array.copy pins, weight) :: b.edges_rev;
    id

  let node_count b = b.nodes
  let edge_count b = b.edge_count

  let build b =
    let edges = Array.make b.edge_count ([||], 0) in
    List.iteri
      (fun i ew -> edges.(b.edge_count - 1 - i) <- ew)
      b.edges_rev;
    of_edges ~n:b.nodes
      ~node_weights:(Support.Int_vec.to_array b.weights)
      ~edge_weights:(Array.map snd edges)
      (Array.map fst edges)
end

(* Derived graphs ---------------------------------------------------------- *)

let add_isolated_nodes t count =
  let n = t.n + count in
  let node_weights =
    Array.init n (fun v -> if v < t.n then t.node_weight.(v) else 1)
  in
  of_edges ~n ~node_weights ~edge_weights:t.edge_weight (edges t)

(* Induced subgraph in the paper's sense (Appendix B): keep the nodes of
   [keep] and exactly the hyperedges entirely contained in [keep].  Returns
   the subgraph together with the old ids of its nodes and edges. *)
let induced_subgraph t keep =
  let in_set = Array.make t.n false in
  Array.iter
    (fun v ->
      if v < 0 || v >= t.n then invalid_arg "Hg.induced_subgraph: bad node";
      in_set.(v) <- true)
    keep;
  let old_nodes = Array.of_list (List.filter (fun v -> in_set.(v)) (List.init t.n Fun.id)) in
  let new_id = Array.make t.n (-1) in
  Array.iteri (fun i v -> new_id.(v) <- i) old_nodes;
  let kept_edges = ref [] in
  for e = num_edges t - 1 downto 0 do
    let inside = not (exists_pin t e (fun v -> not in_set.(v))) in
    if inside then kept_edges := e :: !kept_edges
  done;
  let old_edges = Array.of_list !kept_edges in
  let sub =
    of_edges ~n:(Array.length old_nodes)
      ~node_weights:(Array.map (fun v -> t.node_weight.(v)) old_nodes)
      ~edge_weights:(Array.map (fun e -> t.edge_weight.(e)) old_edges)
      (Array.map (fun e -> Array.map (fun v -> new_id.(v)) (edge_pins t e)) old_edges)
  in
  (sub, old_nodes, old_edges)

(* Contraction kernel ------------------------------------------------------ *)

(* The kernel keeps every coarse edge as a slice of one flat label buffer:
   kept edge [i] is [flat.(starts.(i)) .. flat.(starts.(i + 1) - 1)],
   sorted ascending.  Slices order lexicographically, a proper prefix
   first (as Support.Order.int_array); [slice_key] reads depth [d] of a
   slice with -1, below every label, past its end. *)
let slice_key flat starts i d =
  let p = starts.(i) + d in
  if p < starts.(i + 1) then flat.(p) else -1

let equal_slices flat starts a b =
  let sa = starts.(a) and sb = starts.(b) in
  let len = starts.(a + 1) - sa in
  len = starts.(b + 1) - sb
  &&
  let rec go i = i = len || (flat.(sa + i) = flat.(sb + i) && go (i + 1)) in
  go 0

(* The kept slice indices [0, kept) in slice order, then (when
   [by_weight]) by [weight] among equal slices.  Depth 0 is one counting
   sort over the [count] labels; each first-label bucket then gets a
   multikey (3-way radix) quicksort on the key at depth [d] (Bentley and
   Sedgewick), whose equal-key block advances to depth [d + 1] — a block
   whose key is the end marker is a run of identical slices. *)
let sort_slices flat starts weight ~by_weight ~count ~kept =
  let idx = Array.make kept 0 in
  let swap i j =
    let x = idx.(i) in
    idx.(i) <- idx.(j);
    idx.(j) <- x
  in
  let sort_run_by_weight lo hi =
    let run = Array.sub idx lo (hi - lo) in
    Array.sort (fun a b -> Int.compare weight.(a) weight.(b)) run;
    Array.blit run 0 idx lo (hi - lo)
  in
  let rec sort lo hi d =
    let lo = ref lo in
    while hi - !lo > 1 do
      let key i = slice_key flat starts idx.(i) d in
      (* Median-of-three pivot key. *)
      let a = key !lo and b = key ((!lo + hi) / 2) and c = key (hi - 1) in
      let pivot =
        if a < b then (if b < c then b else if a < c then c else a)
        else if a < c then a
        else if b < c then c
        else b
      in
      (* [lo, lt) < pivot, [lt, gt) = pivot, [gt, hi) > pivot. *)
      let lt = ref !lo and i = ref !lo and gt = ref hi in
      while !i < !gt do
        let k = key !i in
        if k < pivot then begin
          swap !lt !i;
          incr lt;
          incr i
        end
        else if k > pivot then begin
          decr gt;
          swap !i !gt
        end
        else incr i
      done;
      sort !lo !lt d;
      if pivot >= 0 then sort !lt !gt (d + 1)
      else if by_weight && !gt - !lt > 1 then sort_run_by_weight !lt !gt;
      lo := !gt
    done
  in
  (* Bucket 0 holds the empty slices, bucket l + 1 those starting with
     label l; after the scatter [bucket.(b)] is the end of bucket b. *)
  let bucket = Array.make (count + 2) 0 in
  for i = 0 to kept - 1 do
    let b = slice_key flat starts i 0 + 2 in
    bucket.(b) <- bucket.(b) + 1
  done;
  for b = 1 to count + 1 do
    bucket.(b) <- bucket.(b) + bucket.(b - 1)
  done;
  for i = 0 to kept - 1 do
    let b = slice_key flat starts i 0 + 1 in
    idx.(bucket.(b)) <- i;
    bucket.(b) <- bucket.(b) + 1
  done;
  if by_weight && bucket.(0) > 1 then sort_run_by_weight 0 bucket.(0);
  for b = 1 to count do
    sort bucket.(b - 1) bucket.(b) 1
  done;
  idx

(* Contract nodes according to [label : node -> 0..count-1].  Hyperedges are
   mapped through the labeling; pins collapse; edges that become singletons
   are dropped when [drop_singletons]; identical edges are merged with
   weights summed when [merge_identical].  Output edges are in slice order
   (pins lexicographic, a proper prefix first), equal pin sets by weight
   when they are not merged. *)
let contract ?(drop_singletons = true) ?(merge_identical = true) t label count =
  if Array.length label <> t.n then invalid_arg "Hg.contract: label length";
  let node_weight = Array.make count 0 in
  for v = 0 to t.n - 1 do
    let l = label.(v) in
    if l < 0 || l >= count then invalid_arg "Hg.contract: label out of range";
    node_weight.(l) <- node_weight.(l) + t.node_weight.(v)
  done;
  (* Map: each edge's distinct labels, sorted, become the next slice of
     [flat]; a dropped edge's slice is rewound, so kept slices abut and
     [starts] alone delimits them. *)
  let m = num_edges t in
  let mark = Array.make count (-1) in
  let flat = Array.make (num_pins t) 0 in
  let starts = Array.make (m + 1) 0 in
  let weight = Array.make m 0 in
  let kept = ref 0 in
  let cursor = ref 0 in
  for e = 0 to m - 1 do
    let start = !cursor in
    for i = t.edge_offsets.(e) to t.edge_offsets.(e + 1) - 1 do
      let l = label.(t.pins.(i)) in
      if mark.(l) <> e then begin
        mark.(l) <- e;
        flat.(!cursor) <- l;
        incr cursor
      end
    done;
    let len = !cursor - start in
    if (not drop_singletons) || len > 1 then begin
      Support.Util.sort_int_range flat start len;
      weight.(!kept) <- t.edge_weight.(e);
      incr kept;
      starts.(!kept) <- !cursor
    end
    else cursor := start
  done;
  let idx =
    sort_slices flat starts weight ~by_weight:(not merge_identical) ~count
      ~kept:!kept
  in
  (* Merge runs of equal slices in place: the run's first slice carries
     the summed weight, and [idx.(0 .. out-1)] become the output edges. *)
  let out = ref 0 in
  let i = ref 0 in
  while !i < !kept do
    let first = idx.(!i) in
    incr i;
    if merge_identical then
      while !i < !kept && equal_slices flat starts first idx.(!i) do
        weight.(first) <- weight.(first) + weight.(idx.(!i));
        incr i
      done;
    idx.(!out) <- first;
    incr out
  done;
  (* Emit the CSR arrays directly. *)
  let out = !out in
  let edge_weight = Array.init out (fun j -> weight.(idx.(j))) in
  let edge_offsets = Array.make (out + 1) 0 in
  for j = 0 to out - 1 do
    let s = idx.(j) in
    edge_offsets.(j + 1) <- edge_offsets.(j) + starts.(s + 1) - starts.(s)
  done;
  let pins = Array.make edge_offsets.(out) 0 in
  for j = 0 to out - 1 do
    let s = idx.(j) in
    Array.blit flat starts.(s) pins edge_offsets.(j) (starts.(s + 1) - starts.(s))
  done;
  of_csr ~who:"Hg.contract" ~n:count ~node_weight ~edge_weight ~edge_offsets
    ~pins

let connected_components t =
  let dsu = Support.Dsu.create t.n in
  for e = 0 to num_edges t - 1 do
    let first = ref (-1) in
    iter_pins t e (fun v ->
        if !first < 0 then first := v
        else ignore (Support.Dsu.union dsu !first v))
  done;
  Support.Dsu.labeling dsu

let disjoint_union a b =
  let n = a.n + b.n in
  let shift e = Array.map (fun v -> v + a.n) e in
  let edges_a = edges a and edges_b = edges b in
  of_edges ~n
    ~node_weights:(Array.append a.node_weight b.node_weight)
    ~edge_weights:(Array.append a.edge_weight b.edge_weight)
    (Array.append edges_a (Array.map shift edges_b))

let degree_sequence t =
  let d = Array.init t.n (fun v -> node_degree t v) in
  Array.sort Int.compare d;
  d

let pp ppf t =
  Fmt.pf ppf "@[<v>hypergraph: n=%d m=%d rho=%d delta=%d@,"
    (num_nodes t) (num_edges t) (num_pins t) (max_degree t);
  for e = 0 to min (num_edges t) 50 - 1 do
    Fmt.pf ppf "  e%d (w=%d): %a@," e t.edge_weight.(e)
      Fmt.(array ~sep:sp int)
      (edge_pins t e)
  done;
  if num_edges t > 50 then Fmt.pf ppf "  ...@,";
  Fmt.pf ppf "@]"
