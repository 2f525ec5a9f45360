(* Tests for the hypergraph substrate: CSR construction, derived graphs,
   gadgets, and the hMETIS format. *)

module H = Hypergraph

let triangle () =
  (* The Figure 2 hypergraph: 3 nodes, 3 edges of size 2. *)
  H.of_edges ~n:3 [| [| 0; 1 |]; [| 1; 2 |]; [| 0; 2 |] |]

let test_basic_accessors () =
  let h = triangle () in
  Alcotest.(check int) "n" 3 (H.num_nodes h);
  Alcotest.(check int) "m" 3 (H.num_edges h);
  Alcotest.(check int) "rho" 6 (H.num_pins h);
  Alcotest.(check int) "delta" 2 (H.max_degree h);
  Alcotest.(check int) "edge size" 2 (H.edge_size h 0);
  Alcotest.(check int) "degree" 2 (H.node_degree h 1);
  Alcotest.(check (array int)) "pins sorted" [| 0; 2 |] (H.edge_pins h 2);
  Alcotest.(check bool) "edge_mem yes" true (H.edge_mem h 1 2);
  Alcotest.(check bool) "edge_mem no" false (H.edge_mem h 1 0);
  Alcotest.(check (array int)) "incident edges" [| 0; 1 |] (H.incident_edges h 1)

let test_weights () =
  let h =
    H.of_edges ~n:3 ~node_weights:[| 2; 3; 4 |] ~edge_weights:[| 5; 7 |]
      [| [| 0; 1 |]; [| 1; 2 |] |]
  in
  Alcotest.(check int) "node weight" 3 (H.node_weight h 1);
  Alcotest.(check int) "edge weight" 7 (H.edge_weight h 1);
  Alcotest.(check int) "total node weight" 9 (H.total_node_weight h);
  Alcotest.(check int) "total edge weight" 12 (H.total_edge_weight h)

let test_validation () =
  Alcotest.check_raises "pin out of range"
    (Invalid_argument "Hg.of_edges: pin out of range") (fun () ->
      ignore (H.of_edges ~n:2 [| [| 0; 2 |] |]));
  Alcotest.check_raises "duplicate pin"
    (Invalid_argument "Hg.of_edges: duplicate pin within an edge") (fun () ->
      ignore (H.of_edges ~n:3 [| [| 1; 1 |] |]))

let test_builder () =
  let b = H.Builder.create () in
  let v0 = H.Builder.add_node b in
  let vs = H.Builder.add_nodes ~weight:2 b 3 in
  let e0 = H.Builder.add_edge b [| v0; vs.(0) |] in
  let _e1 = H.Builder.add_edge ~weight:4 b vs in
  let h = H.Builder.build b in
  Alcotest.(check int) "builder n" 4 (H.num_nodes h);
  Alcotest.(check int) "builder m" 2 (H.num_edges h);
  Alcotest.(check int) "edge ids stable" 0 e0;
  Alcotest.(check int) "node weight default" 1 (H.node_weight h v0);
  Alcotest.(check int) "node weight custom" 2 (H.node_weight h vs.(1));
  Alcotest.(check int) "edge weight" 4 (H.edge_weight h 1);
  Alcotest.(check (array int)) "pins of e1" vs (H.edge_pins h 1)

let test_induced_subgraph () =
  let h = triangle () in
  let sub, old_nodes, old_edges = H.induced_subgraph h [| 0; 1 |] in
  Alcotest.(check int) "sub n" 2 (H.num_nodes sub);
  Alcotest.(check int) "sub m" 1 (H.num_edges sub);
  Alcotest.(check (array int)) "old nodes" [| 0; 1 |] old_nodes;
  Alcotest.(check (array int)) "old edges" [| 0 |] old_edges;
  (* Full set: identity. *)
  let full, _, _ = H.induced_subgraph h [| 0; 1; 2 |] in
  Alcotest.(check int) "full keeps all edges" 3 (H.num_edges full)

let test_contract () =
  let h =
    H.of_edges ~n:4 [| [| 0; 1 |]; [| 1; 2 |]; [| 2; 3 |]; [| 0; 3 |] |]
  in
  (* Merge {0,1} and {2,3}. *)
  let c = H.contract h [| 0; 0; 1; 1 |] 2 in
  Alcotest.(check int) "contracted n" 2 (H.num_nodes c);
  (* Edge {0,1} and {2,3} become singletons (dropped); {1,2} and {0,3}
     both become {0,1} and merge with weight 2. *)
  Alcotest.(check int) "contracted m" 1 (H.num_edges c);
  Alcotest.(check int) "merged weight" 2 (H.edge_weight c 0);
  Alcotest.(check int) "node weight sums" 2 (H.node_weight c 0);
  let c' = H.contract ~drop_singletons:false ~merge_identical:false h
      [| 0; 0; 1; 1 |] 2
  in
  Alcotest.(check int) "no drop, no merge" 4 (H.num_edges c')

let test_connected_components () =
  let h = H.of_edges ~n:6 [| [| 0; 1; 2 |]; [| 3; 4 |] |] in
  let label, count = H.connected_components h in
  Alcotest.(check int) "three components" 3 count;
  Alcotest.(check int) "0 and 2 together" label.(0) label.(2);
  Alcotest.(check bool) "isolated node alone" true (label.(5) <> label.(0));
  Alcotest.(check bool) "two groups differ" true (label.(3) <> label.(0))

let test_disjoint_union () =
  let h = H.disjoint_union (triangle ()) (H.of_edges ~n:2 [| [| 0; 1 |] |]) in
  Alcotest.(check int) "union n" 5 (H.num_nodes h);
  Alcotest.(check int) "union m" 4 (H.num_edges h);
  Alcotest.(check (array int)) "shifted pins" [| 3; 4 |] (H.edge_pins h 3)

let test_add_isolated () =
  let h = H.add_isolated_nodes (triangle ()) 4 in
  Alcotest.(check int) "n grows" 7 (H.num_nodes h);
  Alcotest.(check int) "m unchanged" 3 (H.num_edges h);
  Alcotest.(check int) "isolated degree" 0 (H.node_degree h 6)

let test_degree_sequence () =
  let h = H.of_edges ~n:3 [| [| 0; 1 |]; [| 0; 2 |]; [| 0; 1; 2 |] |] in
  Alcotest.(check (array int)) "sorted degrees" [| 2; 2; 3 |]
    (H.degree_sequence h)

(* Gadgets ------------------------------------------------------------------ *)

let test_block_structure () =
  let h = H.Gadgets.block_hypergraph ~size:5 in
  Alcotest.(check int) "block n" 5 (H.num_nodes h);
  Alcotest.(check int) "block m" 5 (H.num_edges h);
  for e = 0 to 4 do
    Alcotest.(check int) "edge size b-1" 4 (H.edge_size h e)
  done;
  for v = 0 to 4 do
    Alcotest.(check int) "degree b-1" 4 (H.node_degree h v)
  done

let test_grid_structure () =
  let h, g = H.Gadgets.grid_hypergraph ~side:4 ~outsiders:2 () in
  Alcotest.(check int) "grid n" (16 + 2) (H.num_nodes h);
  Alcotest.(check int) "grid m" 8 (H.num_edges h);
  (* Cells have degree exactly 2; outsiders degree 1. *)
  Array.iter
    (fun row ->
      Array.iter
        (fun v -> Alcotest.(check int) "cell degree" 2 (H.node_degree h v))
        row)
    g.H.Gadgets.cells;
  Array.iter
    (fun v -> Alcotest.(check int) "outsider degree" 1 (H.node_degree h v))
    g.H.Gadgets.outsiders;
  Alcotest.(check int) "row 0 extended" 5 (H.edge_size h g.H.Gadgets.row_edges.(0));
  Alcotest.(check int) "row 3 plain" 4 (H.edge_size h g.H.Gadgets.row_edges.(3));
  Alcotest.(check int) "delta is 2" 2 (H.max_degree h);
  Alcotest.(check int) "grid_nodes count" 18
    (Array.length (H.Gadgets.grid_nodes g))

let test_dense_hyperdag_block () =
  let h = H.Gadgets.dense_hyperdag_hypergraph ~size:6 in
  Alcotest.(check int) "dense n" 6 (H.num_nodes h);
  Alcotest.(check int) "dense m" 5 (H.num_edges h);
  Alcotest.(check (array int)) "degree sequence (1,2,...,m-1,m-1)"
    [| 1; 2; 3; 4; 5; 5 |]
    (H.degree_sequence h)

let test_robust_block () =
  let h = Hypergraph.Builder.create () in
  let _ = H.Gadgets.robust_block h ~size:6 ~slack:1 in
  let h = Hypergraph.Builder.build h in
  Alcotest.(check int) "robust n" 6 (H.num_nodes h);
  (* All subsets of size 6-1-2 = 3. *)
  Alcotest.(check int) "robust m = C(6,3)" 20 (H.num_edges h)

(* hMETIS ------------------------------------------------------------------- *)

let test_hmetis_roundtrip_plain () =
  let h = triangle () in
  let h' = H.Hmetis.of_string (H.Hmetis.to_string h) in
  Alcotest.(check int) "n" (H.num_nodes h) (H.num_nodes h');
  Alcotest.(check int) "m" (H.num_edges h) (H.num_edges h');
  for e = 0 to 2 do
    Alcotest.(check (array int)) "pins" (H.edge_pins h e) (H.edge_pins h' e)
  done

let test_hmetis_roundtrip_weighted () =
  let h =
    H.of_edges ~n:4 ~node_weights:[| 1; 2; 3; 4 |] ~edge_weights:[| 9; 1 |]
      [| [| 0; 1; 2 |]; [| 2; 3 |] |]
  in
  let h' = H.Hmetis.of_string (H.Hmetis.to_string h) in
  for v = 0 to 3 do
    Alcotest.(check int) "node weights" (H.node_weight h v) (H.node_weight h' v)
  done;
  for e = 0 to 1 do
    Alcotest.(check int) "edge weights" (H.edge_weight h e) (H.edge_weight h' e);
    Alcotest.(check (array int)) "pins" (H.edge_pins h e) (H.edge_pins h' e)
  done

let test_hmetis_parse_reference () =
  (* Example from the hMETIS manual: 4 hyperedges, 7 nodes. *)
  let text = "% comment\n4 7\n1 2\n1 7 5 6\n5 6 4\n2 3 4\n" in
  let h = H.Hmetis.of_string text in
  Alcotest.(check int) "n" 7 (H.num_nodes h);
  Alcotest.(check int) "m" 4 (H.num_edges h);
  Alcotest.(check (array int)) "0-indexed pins" [| 0; 4; 5; 6 |]
    (H.edge_pins h 1)

let test_hmetis_errors () =
  Alcotest.check_raises "empty" (Failure "Hmetis.of_lines: empty input") (fun () ->
      ignore (H.Hmetis.of_string ""));
  (try
     ignore (H.Hmetis.of_string "2 3\n1 2\n");
     Alcotest.fail "expected failure on truncated file"
   with Failure _ -> ())

(* Malformed input must always surface as a [Failure] whose message names
   the parser ("Hmetis. ..."), never as an escaping [Invalid_argument]
   from a constructor deeper down. *)
let expect_hmetis_failure name text =
  match H.Hmetis.of_string text with
  | _ -> Alcotest.failf "%s: parse unexpectedly succeeded" name
  | exception Failure msg ->
      Alcotest.(check bool)
        (name ^ ": error names the parser")
        true
        (String.length msg >= 7 && String.sub msg 0 7 = "Hmetis.")
  | exception e ->
      Alcotest.failf "%s: expected Failure, got %s" name (Printexc.to_string e)

let test_hmetis_malformed () =
  expect_hmetis_failure "negative header" "-1 3\n";
  expect_hmetis_failure "non-numeric header" "two 3\n";
  expect_hmetis_failure "unsupported fmt" "1 3 7\n1 2\n";
  expect_hmetis_failure "truncated header" "2\n1 2\n";
  expect_hmetis_failure "pin above range" "1 3\n1 4\n";
  expect_hmetis_failure "pin zero (1-indexed format)" "1 3\n0 1\n";
  expect_hmetis_failure "duplicate pin in an edge" "1 3\n2 2\n";
  expect_hmetis_failure "trailing garbage" "1 3\n1 2\n1 3\n";
  expect_hmetis_failure "missing node weights" "1 2 10\n1 2\n";
  expect_hmetis_failure "malformed node weight line" "1 2 10\n1 2\n1 1\n1\n"

let string_contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

let test_dot_export () =
  let h = triangle () in
  let dot = H.Dot.to_string ~parts:[| 0; 1; 0 |] h in
  Alcotest.(check bool) "mentions node" true (string_contains dot "v0");
  Alcotest.(check bool) "mentions edge" true (string_contains dot "e2");
  Alcotest.(check bool) "incidence arc" true (string_contains dot "v1 -- e0")

(* Property tests ----------------------------------------------------------- *)

let random_hypergraph_gen =
  QCheck.Gen.(
    let* n = int_range 1 20 in
    let* m = int_range 0 15 in
    let* edges =
      list_repeat m
        (let* size = int_range 1 (min n 5) in
         let* seed = int_bound 1_000_000 in
         let rng = Support.Rng.create seed in
         return (Support.Rng.sample_distinct rng ~n ~k:size))
    in
    return (H.of_edges ~n (Array.of_list edges)))

let arbitrary_hypergraph =
  QCheck.make ~print:(fun h -> Fmt.str "%a" H.pp h) random_hypergraph_gen

let qcheck_pin_count =
  QCheck.Test.make ~name:"rho equals sum of edge sizes and sum of degrees"
    ~count:100 arbitrary_hypergraph (fun h ->
      let by_edges =
        List.init (H.num_edges h) (H.edge_size h) |> List.fold_left ( + ) 0
      in
      let by_nodes =
        List.init (H.num_nodes h) (H.node_degree h) |> List.fold_left ( + ) 0
      in
      by_edges = H.num_pins h && by_nodes = H.num_pins h)

let qcheck_incidence_consistent =
  QCheck.Test.make ~name:"v in pins(e) iff e in incident(v)" ~count:100
    arbitrary_hypergraph (fun h ->
      let ok = ref true in
      for e = 0 to H.num_edges h - 1 do
        H.iter_pins h e (fun v ->
            if not (Array.mem e (H.incident_edges h v)) then ok := false)
      done;
      for v = 0 to H.num_nodes h - 1 do
        H.iter_incident h v (fun e -> if not (H.edge_mem h e v) then ok := false)
      done;
      !ok)

let qcheck_hmetis_roundtrip =
  QCheck.Test.make ~name:"hMETIS roundtrip preserves structure" ~count:100
    arbitrary_hypergraph (fun h ->
      let h' = H.Hmetis.of_string (H.Hmetis.to_string h) in
      H.num_nodes h = H.num_nodes h'
      && H.num_edges h = H.num_edges h'
      && List.for_all
           (fun e -> H.edge_pins h e = H.edge_pins h' e)
           (List.init (H.num_edges h) Fun.id))

(* The contraction the flat CSR kernel replaced, kept as the
   differential oracle: mapped pin lists collapse into one flat buffer,
   kept edge indices are sorted with a slice-lexicographic closure
   comparator (then weight), equal runs are summed into two reversed
   lists of per-edge [Array.sub] copies, and [of_edges] builds the
   result. *)
let oracle_contract ~drop_singletons ~merge_identical h label count =
  let node_weights = Array.make count 0 in
  Array.iteri
    (fun v l -> node_weights.(l) <- node_weights.(l) + H.node_weight h v)
    label;
  let m = H.num_edges h in
  let mark = Array.make count (-1) in
  let flat = Array.make (H.num_pins h) 0 in
  let starts = Array.make m 0 in
  let lens = Array.make m 0 in
  let kept_weight = Array.make m 0 in
  let kept = ref 0 in
  let cursor = ref 0 in
  for e = 0 to m - 1 do
    let start = !cursor in
    H.iter_pins h e (fun v ->
        let l = label.(v) in
        if mark.(l) <> e then begin
          mark.(l) <- e;
          flat.(!cursor) <- l;
          incr cursor
        end);
    let len = !cursor - start in
    if (not drop_singletons) || len > 1 then begin
      Support.Util.sort_int_range flat start len;
      starts.(!kept) <- start;
      lens.(!kept) <- len;
      kept_weight.(!kept) <- H.edge_weight h e;
      incr kept
    end
    else cursor := start
  done;
  let kept = !kept in
  let compare_kept a b =
    let sa = starts.(a) and sb = starts.(b) in
    let la = lens.(a) and lb = lens.(b) in
    let rec go i =
      if i = Int.min la lb then Int.compare la lb
      else
        let c = Int.compare flat.(sa + i) flat.(sb + i) in
        if c <> 0 then c else go (i + 1)
    in
    let c = go 0 in
    if c <> 0 then c else Int.compare kept_weight.(a) kept_weight.(b)
  in
  let idx = Array.init kept Fun.id in
  Array.sort compare_kept idx;
  let equal_pins a b =
    lens.(a) = lens.(b)
    &&
    let rec go i =
      i = lens.(a) || (flat.(starts.(a) + i) = flat.(starts.(b) + i) && go (i + 1))
    in
    go 0
  in
  let out_pins = ref [] and out_weights = ref [] in
  let emit i w =
    out_pins := Array.sub flat starts.(i) lens.(i) :: !out_pins;
    out_weights := w :: !out_weights
  in
  let i = ref 0 in
  while !i < kept do
    let first = idx.(!i) in
    incr i;
    let w = ref kept_weight.(first) in
    if merge_identical then
      while !i < kept && equal_pins first idx.(!i) do
        w := !w + kept_weight.(idx.(!i));
        incr i
      done;
    emit first !w
  done;
  H.of_edges ~n:count ~node_weights
    ~edge_weights:(Array.of_list (List.rev !out_weights))
    (Array.of_list (List.rev !out_pins))

let csr_arrays h =
  [
    Array.init (H.num_nodes h) (H.node_weight h);
    Array.init (H.num_edges h) (H.edge_weight h);
    H.csr_edge_offsets h;
    H.csr_pins h;
    H.csr_node_offsets h;
    H.csr_incidence h;
  ]

(* Contraction inputs that reach every branch of the kernel: empty
   hypergraphs (n = 0), count = 1, labels no node carries, an identity
   labelling (coarse edges as large as fine ones, past the 16-pin
   insertion-sort cutoff of Support.Util.sort_int_range), repeated pin
   sets with differing weights, and empty edges. *)
let contraction_case_gen =
  QCheck.Gen.(
    let* n = int_range 0 40 in
    let* edge_specs =
      list_size (int_range 0 30)
        (let* size = int_range 0 (min n 24) in
         let* seed = int_bound 1_000_000 in
         let* weight = int_range 1 3 in
         let* copies = frequency [ (3, return 1); (1, int_range 2 4) ] in
         return (size, seed, weight, copies))
    in
    let edges, weights =
      List.concat_map
        (fun (size, seed, weight, copies) ->
          let pins =
            Support.Rng.sample_distinct (Support.Rng.create seed) ~n ~k:size
          in
          List.init copies (fun c -> (pins, weight + c)))
        edge_specs
      |> List.split
    in
    let* node_weights = array_repeat n (int_range 1 5) in
    let* mode = int_range 0 2 in
    let* count =
      match mode with
      | 0 -> return n
      | 1 -> return (if n = 0 then 0 else 1)
      | _ -> int_range (if n = 0 then 0 else 1) (n + 3)
    in
    let* label =
      if mode = 0 then return (Array.init n Fun.id)
      else array_repeat n (int_bound (max 0 (count - 1)))
    in
    let h =
      H.of_edges ~n ~node_weights ~edge_weights:(Array.of_list weights)
        (Array.of_list edges)
    in
    return (h, label, count))

let qcheck_contract_matches_oracle =
  QCheck.Test.make ~name:"contract equals the list-and-of_edges oracle"
    ~count:300
    (QCheck.make
       ~print:(fun (h, label, count) ->
         Fmt.str "%a@.labels (count %d): %a" H.pp h count
           Fmt.(array ~sep:sp int)
           label)
       contraction_case_gen)
    (fun (h, label, count) ->
      List.for_all
        (fun (drop_singletons, merge_identical) ->
          csr_arrays (H.contract ~drop_singletons ~merge_identical h label count)
          = csr_arrays
              (oracle_contract ~drop_singletons ~merge_identical h label count))
        [ (true, true); (true, false); (false, true); (false, false) ])

let suite =
  [
    Alcotest.test_case "basic accessors" `Quick test_basic_accessors;
    Alcotest.test_case "weights" `Quick test_weights;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "builder" `Quick test_builder;
    Alcotest.test_case "induced subgraph" `Quick test_induced_subgraph;
    Alcotest.test_case "contract" `Quick test_contract;
    Alcotest.test_case "connected components" `Quick test_connected_components;
    Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
    Alcotest.test_case "add isolated nodes" `Quick test_add_isolated;
    Alcotest.test_case "degree sequence" `Quick test_degree_sequence;
    Alcotest.test_case "block gadget" `Quick test_block_structure;
    Alcotest.test_case "grid gadget" `Quick test_grid_structure;
    Alcotest.test_case "dense hyperDAG block" `Quick test_dense_hyperdag_block;
    Alcotest.test_case "robust block" `Quick test_robust_block;
    Alcotest.test_case "hMETIS roundtrip" `Quick test_hmetis_roundtrip_plain;
    Alcotest.test_case "hMETIS weighted roundtrip" `Quick
      test_hmetis_roundtrip_weighted;
    Alcotest.test_case "hMETIS reference parse" `Quick
      test_hmetis_parse_reference;
    Alcotest.test_case "hMETIS errors" `Quick test_hmetis_errors;
    Alcotest.test_case "hMETIS malformed input" `Quick test_hmetis_malformed;
    Alcotest.test_case "DOT export" `Quick test_dot_export;
    QCheck_alcotest.to_alcotest qcheck_pin_count;
    QCheck_alcotest.to_alcotest qcheck_incidence_consistent;
    QCheck_alcotest.to_alcotest qcheck_hmetis_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_contract_matches_oracle;
  ]
