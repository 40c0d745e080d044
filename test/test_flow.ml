(* Max-flow substrate tests: hand-built networks, cross-checks between
   Dinic, Edmonds-Karp, the LP encoding and min-cut, plus random-graph
   properties and the exact-rational instantiation. *)

module MF = Ss_flow.Maxflow.Float
module MG = Ss_flow.Maxflow.Make (Ss_numeric.Field.Float)
module MQ = Ss_flow.Maxflow.Exact
module Q = Ss_numeric.Rational

let checkf msg = Alcotest.(check (float 1e-9)) msg

(* The classic CLRS example network, max flow 23. *)
let clrs_edges =
  [ (0, 1, 16.); (0, 2, 13.); (1, 2, 10.); (2, 1, 4.); (1, 3, 12.); (3, 2, 9.);
    (2, 4, 14.); (4, 3, 7.); (3, 5, 20.); (4, 5, 4.) ]

let build edges n =
  let g = MF.create ~n in
  let ids = List.map (fun (s, d, c) -> MF.add_edge g ~src:s ~dst:d ~cap:c) edges in
  (g, ids)

let test_clrs_dinic () =
  let g, _ = build clrs_edges 6 in
  checkf "value" 23. (MF.dinic g ~source:0 ~sink:5);
  Alcotest.(check (list pass)) "audit clean" [] (MF.audit g ~source:0 ~sink:5)

let test_clrs_edmonds_karp () =
  let g, _ = build clrs_edges 6 in
  checkf "value" 23. (MF.edmonds_karp g ~source:0 ~sink:5)

let test_clrs_push_relabel () =
  let g, _ = build clrs_edges 6 in
  checkf "value" 23. (MF.push_relabel g ~source:0 ~sink:5);
  Alcotest.(check (list pass)) "audit clean" [] (MF.audit g ~source:0 ~sink:5)

let test_decompose_clrs () =
  let g, _ = build clrs_edges 6 in
  let v = MF.dinic g ~source:0 ~sink:5 in
  let paths = MF.decompose g ~source:0 ~sink:5 in
  let total = List.fold_left (fun acc (f, _) -> acc +. f) 0. paths in
  checkf "paths sum to flow" v total;
  List.iter
    (fun (f, path) ->
      Alcotest.(check bool) "positive" true (f > 0.);
      Alcotest.(check int) "starts at source" 0 (List.hd path);
      Alcotest.(check int) "ends at sink" 5 (List.nth path (List.length path - 1)))
    paths

let test_clrs_lp () =
  let edges =
    Array.of_list
      (List.map (fun (src, dst, cap) -> { Ss_lp.Maxflow_lp.src; dst; cap }) clrs_edges)
  in
  match Ss_lp.Maxflow_lp.solve ~n:6 ~edges ~source:0 ~sink:5 with
  | Some (v, _) -> checkf "lp value" 23. v
  | None -> Alcotest.fail "LP failed"

let test_mincut_matches () =
  let g, _ = build clrs_edges 6 in
  let v = MF.dinic g ~source:0 ~sink:5 in
  let side = MF.min_cut g ~source:0 in
  Alcotest.(check bool) "source in" true side.(0);
  Alcotest.(check bool) "sink out" false side.(5);
  checkf "maxflow = mincut" v (MF.cut_capacity g side)

let test_disconnected () =
  let g = MF.create ~n:4 in
  ignore (MF.add_edge g ~src:0 ~dst:1 ~cap:5.);
  ignore (MF.add_edge g ~src:2 ~dst:3 ~cap:5.);
  checkf "no path" 0. (MF.dinic g ~source:0 ~sink:3)

let test_parallel_edges () =
  let g = MF.create ~n:2 in
  ignore (MF.add_edge g ~src:0 ~dst:1 ~cap:3.);
  ignore (MF.add_edge g ~src:0 ~dst:1 ~cap:4.);
  checkf "parallel add up" 7. (MF.dinic g ~source:0 ~sink:1)

let test_zero_capacity () =
  let g = MF.create ~n:3 in
  ignore (MF.add_edge g ~src:0 ~dst:1 ~cap:0.);
  ignore (MF.add_edge g ~src:1 ~dst:2 ~cap:5.);
  checkf "zero cap blocks" 0. (MF.dinic g ~source:0 ~sink:2)

let test_bad_edges () =
  let g = MF.create ~n:2 in
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Maxflow.add_edge: negative capacity") (fun () ->
      ignore (MF.add_edge g ~src:0 ~dst:1 ~cap:(-1.)));
  Alcotest.check_raises "bad vertex"
    (Invalid_argument "Maxflow.add_edge: vertex out of range") (fun () ->
      ignore (MF.add_edge g ~src:0 ~dst:7 ~cap:1.))

let test_reset () =
  let g, ids = build clrs_edges 6 in
  ignore (MF.dinic g ~source:0 ~sink:5);
  MF.reset_flows g;
  List.iter (fun e -> checkf "flow cleared" 0. (MF.flow_on g e)) ids;
  checkf "recompute" 23. (MF.dinic g ~source:0 ~sink:5)

let test_flow_value_accessor () =
  let g, _ = build clrs_edges 6 in
  let v = MF.dinic g ~source:0 ~sink:5 in
  checkf "flow_value agrees" v (MF.flow_value g ~source:0)

let test_exact_field () =
  let g = MQ.create ~n:4 in
  let q = Q.of_ints in
  ignore (MQ.add_edge g ~src:0 ~dst:1 ~cap:(q 1 3));
  ignore (MQ.add_edge g ~src:0 ~dst:2 ~cap:(q 1 6));
  ignore (MQ.add_edge g ~src:1 ~dst:3 ~cap:(q 1 4));
  ignore (MQ.add_edge g ~src:2 ~dst:3 ~cap:(q 1 2));
  let v = MQ.dinic g ~source:0 ~sink:3 in
  (* min(1/3,1/4) + min(1/6,1/2) = 1/4 + 1/6 = 5/12 exactly. *)
  Alcotest.(check bool) "exact 5/12" true (Q.equal v (q 5 12));
  Alcotest.(check (list pass)) "exact audit" [] (MQ.audit g ~source:0 ~sink:3)

(* Random bipartite-ish networks: compare the two algorithms, audit flows,
   and verify max-flow = min-cut. *)
let random_network seed =
  let rng = Ss_workload.Rng.create ~seed in
  let n = 4 + Ss_workload.Rng.int rng ~bound:8 in
  let edges = ref [] in
  for s = 0 to n - 1 do
    for d = 0 to n - 1 do
      if s <> d && Ss_workload.Rng.float rng < 0.35 then
        edges := (s, d, Ss_workload.Rng.uniform rng ~lo:0.5 ~hi:10.) :: !edges
    done
  done;
  (n, !edges)

let prop_dinic_equals_push_relabel =
  QCheck.Test.make ~count:100 ~name:"dinic = push-relabel" QCheck.small_nat (fun seed ->
      let n, edges = random_network (seed + 300) in
      let g1, _ = build edges n and g2, _ = build edges n in
      let v1 = MF.dinic g1 ~source:0 ~sink:(n - 1) in
      let v2 = MF.push_relabel g2 ~source:0 ~sink:(n - 1) in
      Float.abs (v1 -. v2) <= 1e-6 *. (1. +. v1))

let prop_push_relabel_flow_feasible =
  QCheck.Test.make ~count:100 ~name:"push-relabel flow is feasible" QCheck.small_nat
    (fun seed ->
      let n, edges = random_network (seed + 2000) in
      let g, _ = build edges n in
      ignore (MF.push_relabel g ~source:0 ~sink:(n - 1));
      MF.audit g ~source:0 ~sink:(n - 1) = [])

let prop_decompose_conserves =
  QCheck.Test.make ~count:100 ~name:"path decomposition sums to flow value"
    QCheck.small_nat
    (fun seed ->
      let n, edges = random_network (seed + 4000) in
      let g, _ = build edges n in
      let v = MF.dinic g ~source:0 ~sink:(n - 1) in
      let paths = MF.decompose g ~source:0 ~sink:(n - 1) in
      let total = List.fold_left (fun acc (f, _) -> acc +. f) 0. paths in
      Float.abs (v -. total) <= 1e-6 *. (1. +. v)
      && List.for_all
           (fun (_, path) -> List.hd path = 0 && List.nth path (List.length path - 1) = n - 1)
           paths)

let prop_dinic_equals_ek =
  QCheck.Test.make ~count:100 ~name:"dinic = edmonds-karp" QCheck.small_nat (fun seed ->
      let n, edges = random_network seed in
      let g1, _ = build edges n and g2, _ = build edges n in
      let v1 = MF.dinic g1 ~source:0 ~sink:(n - 1) in
      let v2 = MF.edmonds_karp g2 ~source:0 ~sink:(n - 1) in
      Float.abs (v1 -. v2) <= 1e-6 *. (1. +. v1))

let prop_flow_audits_clean =
  QCheck.Test.make ~count:100 ~name:"dinic flow is feasible" QCheck.small_nat (fun seed ->
      let n, edges = random_network seed in
      let g, _ = build edges n in
      ignore (MF.dinic g ~source:0 ~sink:(n - 1));
      MF.audit g ~source:0 ~sink:(n - 1) = [])

let prop_maxflow_mincut =
  QCheck.Test.make ~count:100 ~name:"max flow = min cut" QCheck.small_nat (fun seed ->
      let n, edges = random_network (seed + 1000) in
      let g, _ = build edges n in
      let v = MF.dinic g ~source:0 ~sink:(n - 1) in
      let cut = MF.cut_capacity g (MF.min_cut g ~source:0) in
      Float.abs (v -. cut) <= 1e-6 *. (1. +. v))

let prop_integral_capacities_integral_flow =
  QCheck.Test.make ~count:50 ~name:"dinic matches LP oracle" QCheck.small_nat (fun seed ->
      let n, edges = random_network (seed + 500) in
      (* Keep LP sizes small. *)
      let edges = List.filteri (fun i _ -> i < 18) edges in
      let g, _ = build edges n in
      let v = MF.dinic g ~source:0 ~sink:(n - 1) in
      let arr =
        Array.of_list
          (List.map (fun (src, dst, cap) -> { Ss_lp.Maxflow_lp.src; dst; cap }) edges)
      in
      match Ss_lp.Maxflow_lp.solve ~n ~edges:arr ~source:0 ~sink:(n - 1) with
      | Some (lp, _) -> Float.abs (v -. lp) <= 1e-6 *. (1. +. v)
      | None -> false)

(* The float-monomorphic substrate mirrors the generic one on the float
   field operation for operation: the same max flow, bit for bit, on every
   edge, the same work counters, and the same boolean flow reads — first
   from zero, then augmenting the installed flow after some capacities
   grow.  Capacities below 1 are zeroed so that empty edges occur too. *)
let prop_float_mirrors_generic =
  QCheck.Test.make ~count:200 ~name:"Float.dinic = generic dinic, bitwise" QCheck.small_nat
    (fun seed ->
      let n, edges = random_network (seed + 6000) in
      let edges = List.map (fun (s, d, c) -> (s, d, if c < 1. then 0. else c)) edges in
      let gf = MF.create ~n and gg = MG.create ~n in
      let ids =
        List.map
          (fun (src, dst, cap) ->
            let e = MF.add_edge gf ~src ~dst ~cap in
            assert (e = MG.add_edge gg ~src ~dst ~cap);
            e)
          edges
      in
      let same x y = Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y) in
      let agree vf vg =
        same vf vg
        && List.for_all
             (fun e ->
               same (MF.flow_on gf e) (MG.flow_on gg e)
               && Bool.equal (MF.saturated gf e) (MG.saturated gg e)
               && Bool.equal (MF.flowing gf e) (MG.flowing gg e))
             ids
        && MF.count_flowing gf = MG.count_flowing gg
        && (MF.counters gf).pushes = (MG.counters gg).pushes
        && (MF.counters gf).bfs_waves = (MG.counters gg).bfs_waves
      in
      let first = agree (MF.dinic gf ~source:0 ~sink:(n - 1)) (MG.dinic gg ~source:0 ~sink:(n - 1)) in
      List.iteri
        (fun idx (e, (_, _, cap)) ->
          if idx mod 3 = 0 then begin
            MF.set_capacity gf e ~cap:(cap +. 2.5);
            MG.set_capacity gg e ~cap:(cap +. 2.5)
          end)
        (List.combine ids edges);
      first && agree (MF.dinic gf ~source:0 ~sink:(n - 1)) (MG.dinic gg ~source:0 ~sink:(n - 1)))

(* The float reads at the tolerance floor: near-full edges below 1 (where
   [Field.Float]'s tolerance is the absolute 1e-9) and flows at or below
   it, on both substrates. *)
let test_float_reads_at_floor () =
  let edges =
    [ (0, 1, 0.5); (1, 2, 0.5 -. 8e-10); (0, 2, 5e-10); (0, 3, 0.25); (3, 2, 0.25 -. 2e-9);
      (0, 4, 3.); (4, 2, 3. -. 4e-9) ]
  in
  let gf = MF.create ~n:5 and gg = MG.create ~n:5 in
  let ids =
    List.map
      (fun (src, dst, cap) ->
        ignore (MG.add_edge gg ~src ~dst ~cap);
        MF.add_edge gf ~src ~dst ~cap)
      edges
  in
  ignore (MF.dinic gf ~source:0 ~sink:2);
  ignore (MG.dinic gg ~source:0 ~sink:2);
  let reads sat flowing g = List.map (fun e -> (sat g e, flowing g e)) ids in
  Alcotest.(check (list (pair bool bool)))
    "float reads = generic reads"
    (reads MG.saturated MG.flowing gg)
    (reads MF.saturated MF.flowing gf);
  Alcotest.(check (list (pair bool bool)))
    "expected reads"
    [ (true, true); (true, true); (true, false); (false, true); (true, true); (false, true); (true, true) ]
    (reads MF.saturated MF.flowing gf);
  Alcotest.(check int) "count_flowing" (MG.count_flowing gg) (MF.count_flowing gf)

let () =
  Alcotest.run "flow"
    [
      ( "unit",
        [
          Alcotest.test_case "CLRS dinic" `Quick test_clrs_dinic;
          Alcotest.test_case "CLRS edmonds-karp" `Quick test_clrs_edmonds_karp;
          Alcotest.test_case "CLRS push-relabel" `Quick test_clrs_push_relabel;
          Alcotest.test_case "CLRS decompose" `Quick test_decompose_clrs;
          Alcotest.test_case "CLRS lp" `Quick test_clrs_lp;
          Alcotest.test_case "min cut" `Quick test_mincut_matches;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "parallel edges" `Quick test_parallel_edges;
          Alcotest.test_case "zero capacity" `Quick test_zero_capacity;
          Alcotest.test_case "bad edges" `Quick test_bad_edges;
          Alcotest.test_case "reset" `Quick test_reset;
          Alcotest.test_case "flow value" `Quick test_flow_value_accessor;
          Alcotest.test_case "exact field" `Quick test_exact_field;
          Alcotest.test_case "float reads at the tolerance floor" `Quick test_float_reads_at_floor;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_dinic_equals_ek;
            prop_dinic_equals_push_relabel;
            prop_push_relabel_flow_feasible;
            prop_decompose_conserves;
            prop_flow_audits_clean;
            prop_maxflow_mincut;
            prop_integral_capacities_integral_flow;
            prop_float_mirrors_generic;
          ] );
    ]
