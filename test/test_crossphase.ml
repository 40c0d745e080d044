(* One persistent network across phases (the dense path of
   lib/core/offline.ml on the CSR flow core of lib/flow/maxflow.ml).

   (a) Bitwise agreement with the paper-literal reference, which rebuilds
       the network every round: members, speeds, procs, allocations and
       breakpoints on random, clustered and heavy instances, through
       multi-component solves and sessions.  Compressed solves agree on the
       partition bitwise and on per-member totals.
   (b) The parametric invariant, as a QCheck property: phase speeds
       strictly decrease, and after every phase boundary's drain and
       rewind the persistent flow passes a full audit (capacity +
       conservation at every vertex) on the reused arena.
   (c) Counters: [phase_resumes] = phases - 1 on one-component
       multi-phase solves, per-phase arrays have one entry per phase, their BFS-wave
       sum reproduces [net_bfs_waves], and [net_edges] is the maximum
       per-phase peak.
   (d) Exact-rational replay: the exact field's run certifies the float
       run's partition, speeds and reservations. *)

module Offline = Ss_core.Offline
module Job = Ss_model.Job
module Rational = Ss_numeric.Rational
module G = Ss_workload.Generators

let float_jobs (inst : Job.instance) =
  Array.map
    (fun (j : Job.t) -> { Offline.F.release = j.release; deadline = j.deadline; work = j.work })
    inst.jobs

(* Full bitwise equality of two float runs, allocations included when
   [alloc] (dense runs: every accepted flow is a from-zero Dinic run of the
   same network); otherwise each member's total allocated time must agree
   (the compressed oracle splits t_kj differently). *)
let check_bitwise ?(alloc = true) name (a : Offline.F.run) (b : Offline.F.run) =
  Alcotest.(check bool) (name ^ ": breakpoints") true (a.breakpoints = b.breakpoints);
  Alcotest.(check int)
    (name ^ ": phase count")
    (List.length a.schedule_phases)
    (List.length b.schedule_phases);
  List.iteri
    (fun idx ((p : Offline.F.phase), (q : Offline.F.phase)) ->
      let tag = Printf.sprintf "%s: phase %d" name idx in
      Alcotest.(check (list int)) (tag ^ " members") p.members q.members;
      Alcotest.(check bool) (tag ^ " speed bitwise") true (p.speed = q.speed);
      Alcotest.(check (array int)) (tag ^ " procs") p.procs q.procs;
      if alloc then Alcotest.(check bool) (tag ^ " alloc bitwise") true (p.alloc = q.alloc)
      else
        List.iter
          (fun i ->
            let total (r : Offline.F.phase) =
              List.fold_left (fun acc (i', _, t) -> if i' = i then acc +. t else acc) 0. r.alloc
            in
            let a = total p and b = total q in
            Alcotest.(check bool)
              (Printf.sprintf "%s member %d total" tag i)
              true
              (Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs a)))
          p.members)
    (List.combine a.schedule_phases b.schedule_phases)

let instance_mix seed machines =
  [
    ( Printf.sprintf "uniform s=%d m=%d" seed machines,
      G.uniform ~seed ~machines ~jobs:16 ~horizon:20. ~max_work:4. () );
    ( Printf.sprintf "clustered s=%d m=%d" seed machines,
      G.clustered ~seed:(seed + 300) ~machines ~clusters:3 ~jobs_per_cluster:6
        ~cluster_span:10. ~gap:3. ~max_work:4. () );
    ( Printf.sprintf "heavy s=%d m=%d" seed machines,
      G.heavy ~seed:(seed + 900) ~machines ~jobs:18 ~horizon:14. () );
  ]

(* --- (a) bitwise agreement -------------------------------------------- *)

let test_agreement_matrix () =
  List.iter
    (fun machines ->
      List.iter
        (fun seed ->
          List.iter
            (fun (name, inst) ->
              let jobs = float_jobs inst in
              let m = inst.machines in
              let reference = Offline.F.Reference.solve ~machines:m jobs in
              Alcotest.(check int)
                (name ^ " reference never phase-resumes")
                0 reference.stats.phase_resumes;
              List.iter
                (fun compress ->
                  let tag = Printf.sprintf "%s compress=%b" name compress in
                  let run = Offline.F.solve ~compress ~machines:m jobs in
                  check_bitwise ~alloc:(not compress) (tag ^ " solve==reference") run
                    reference)
                [ false; true ])
            (instance_mix seed machines))
        [ 21; 22 ])
    [ 2; 4; 8 ]

let test_session_and_split () =
  let machines = 4 in
  let session = Offline.F.Session.create ~machines in
  List.iter
    (fun seed ->
      let inst =
        G.clustered ~seed ~machines ~clusters:4 ~jobs_per_cluster:8
          ~cluster_span:12. ~gap:3. ~max_work:4. ()
      in
      let jobs = float_jobs inst in
      let tag = Printf.sprintf "split s=%d" seed in
      (* Each component rebuilds the network on the one workspace. *)
      let split = Offline.F.solve ~machines jobs in
      check_bitwise tag split (Offline.F.Reference.solve ~machines jobs);
      Alcotest.(check int)
        (tag ^ " per-phase entries cover all phases")
        split.stats.phases
        (Array.length split.stats.phase_edges);
      (* A session reusing its workspace matches a fresh solve bitwise. *)
      check_bitwise (tag ^ " session") split (Offline.F.Session.solve session jobs))
    [ 41; 42; 43 ]

(* --- (b) the parametric invariant as a QCheck property ---------------- *)

let prop_invariant =
  QCheck.Test.make ~count:40
    ~name:"phase speeds strictly decrease; persistent flow audits clean"
    QCheck.(pair (int_range 1 4) small_nat)
    (fun (machines, seed) ->
      let inst =
        G.uniform ~seed:(seed + 7) ~machines ~jobs:(8 + (seed mod 9))
          ~horizon:16. ~max_work:4. ()
      in
      let jobs = float_jobs inst in
      let boundary_speeds = ref [] in
      let audits = ref 0 in
      let on_phase _idx speed g =
        boundary_speeds := speed :: !boundary_speeds;
        (match Offline.F.Flow.audit g ~source:0 ~sink:1 with
        | [] -> ()
        | vs ->
          QCheck.Test.fail_reportf
            "flow violates feasibility after the phase-boundary rewind: %d problems"
            (List.length vs));
        incr audits
      in
      let run =
        Offline.F.solve ~on_phase ~machines:inst.machines jobs
      in
      (* The hook fired once per phase, with the phase's *initial*
         conjectured speed — which only bounds the accepted speed from
         below; the accepted speeds themselves must strictly decrease. *)
      if !audits <> run.stats.phases then
        QCheck.Test.fail_reportf "on_phase fired %d times for %d phases" !audits
          run.stats.phases;
      let rec strictly_decreasing = function
        | a :: (b :: _ as rest) -> a > b && strictly_decreasing rest
        | _ -> true
      in
      let accepted = List.map (fun (p : Offline.F.phase) -> p.speed) run.schedule_phases in
      if not (strictly_decreasing accepted) then
        QCheck.Test.fail_reportf "accepted phase speeds not strictly decreasing";
      (* Source capacities w/s grow monotonically across boundaries iff the
         boundary conjectures decrease; the drain leaves zero flow, so
         feasibility under the rescale is exactly what the audit above
         checked.  Boundary conjectures need not be monotone round-to-round
         (victim removals move them), but phase-initial conjectures are
         bounded by the previous accepted speed. *)
      List.length !boundary_speeds = run.stats.phases)

(* --- (c) counters ------------------------------------------------------ *)

let test_counters () =
  let inst = G.heavy ~seed:55 ~machines:4 ~jobs:40 ~horizon:20. () in
  Alcotest.(check int) "one component" 1 (Offline.component_count inst);
  let r = Offline.F.solve ~compress:false ~machines:4 (float_jobs inst) in
  Alcotest.(check int) "phase_resumes = phases - 1" (r.stats.phases - 1) r.stats.phase_resumes;
  Alcotest.(check int) "one phase_edges entry per phase" r.stats.phases
    (Array.length r.stats.phase_edges);
  Alcotest.(check int) "one phase_bfs_waves entry per phase" r.stats.phases
    (Array.length r.stats.phase_bfs_waves);
  Alcotest.(check int) "net_bfs_waves = sum of per-phase waves" r.stats.net_bfs_waves
    (Array.fold_left ( + ) 0 r.stats.phase_bfs_waves);
  Alcotest.(check int) "net_edges = max per-phase peak" r.stats.net_edges
    (Array.fold_left max 0 r.stats.phase_edges);
  if r.stats.phases > 1 then
    Alcotest.(check bool) "boundaries drained flow-carrying edges" true
      (r.stats.phase_drain_edges > 0)

(* --- (d) exact-rational replay certifies a float run ------------------- *)

let test_exact_replay () =
  let inst = G.heavy ~seed:17 ~machines:4 ~jobs:14 ~horizon:12. () in
  let float_run = Offline.run inst in
  let exact_run = Offline.solve_exact inst in
  Alcotest.(check int) "exact replay: phase count"
    (List.length float_run.schedule_phases)
    (List.length exact_run.schedule_phases);
  Alcotest.(check bool) "exact replay: phase resumes ran in both" true
    (float_run.stats.phases <= 1
    || float_run.stats.phase_resumes > 0 && exact_run.stats.phase_resumes > 0);
  List.iter2
    (fun (p : Offline.F.phase) (q : Offline.Exact.phase) ->
      Alcotest.(check (list int)) "exact replay: members" p.members q.members;
      Alcotest.(check (array int)) "exact replay: procs" p.procs q.procs;
      let close a b = Float.abs (a -. b) <= 1e-9 *. (1. +. Float.abs a) in
      Alcotest.(check bool) "exact replay: speed" true
        (close p.speed (Rational.to_float q.speed)))
    float_run.schedule_phases exact_run.schedule_phases

let () =
  Alcotest.run "crossphase"
    [
      ( "bitwise agreement",
        [
          Alcotest.test_case "generator x seed x machines x substrate" `Quick
            test_agreement_matrix;
          Alcotest.test_case "solve_split + sessions" `Quick test_session_and_split;
        ] );
      ( "parametric invariant",
        [ QCheck_alcotest.to_alcotest prop_invariant ] );
      ("counters", [ Alcotest.test_case "phase counters" `Quick test_counters ]);
      ( "exact replay",
        [ Alcotest.test_case "rational certification" `Quick test_exact_replay ] );
    ]
