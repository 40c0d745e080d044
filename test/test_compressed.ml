(* The compressed substrate (the [compress] path of lib/core/offline.ml):
   no round network, an exact sweep oracle for every accept test, Lemma 4
   certificate and accepted t_kj.

   (a) Solver: runs with [compress:true] agree with the dense path —
       members, speeds, procs and energy bitwise, per-member allocated
       totals — across generators, seeds, machine counts, multi-component
       solves, the paper-literal reference and the exact rational field;
       one session workspace serves components and both substrates; OA(m)
       replans above the size threshold agree with a dense-planner
       replay.
   (b) Counters: the dense run counts its flow work; a compressed run
       builds no network, so its flow counters read 0. *)

module Offline = Ss_core.Offline
module Job = Ss_model.Job
module Power = Ss_model.Power
module Rational = Ss_numeric.Rational
module G = Ss_workload.Generators

let close ?(tol = 1e-9) msg expected actual =
  let t = tol *. (1. +. Float.abs expected) in
  if Float.abs (expected -. actual) > t then
    Alcotest.failf "%s: expected %.15g, got %.15g" msg expected actual

let float_jobs (inst : Job.instance) =
  Array.map
    (fun (j : Job.t) -> { Offline.F.release = j.release; deadline = j.deadline; work = j.work })
    inst.jobs

let exact_jobs (inst : Job.instance) =
  Array.map
    (fun (j : Job.t) ->
      {
        Offline.Exact.release = Rational.of_float j.release;
        deadline = Rational.of_float j.deadline;
        work = Rational.of_float j.work;
      })
    inst.jobs

(* --- (a) solver agreement -------------------------------------------- *)

(* Phase-for-phase agreement of two float runs.  The partition itself —
   members, speeds, procs — must match bitwise; energies (functions of
   speed, procs and breakpoints only) must match bitwise too.  The t_kj
   allocations are NOT compared entry-wise: the compressed path extracts
   them from the sweep oracle's maximum flow while the dense path uses
   Dinic's, and a phase's maximum flow is not unique in how it splits
   time among equal-speed members.  What is well-defined — each member's
   total allocated time (its demand w_k / s_i) and feasibility of every
   entry — is checked instead. *)
let check_float_agree ?jobs name (dense : Offline.F.run) (comp : Offline.F.run) =
  Alcotest.(check int)
    (name ^ ": phase count")
    (List.length dense.schedule_phases)
    (List.length comp.schedule_phases);
  List.iteri
    (fun idx ((a : Offline.F.phase), (b : Offline.F.phase)) ->
      let tag = Printf.sprintf "%s: phase %d" name idx in
      Alcotest.(check (list int)) (tag ^ " members") a.members b.members;
      close (tag ^ " speed") ~tol:0. a.speed b.speed;
      Alcotest.(check (array int)) (tag ^ " procs") a.procs b.procs;
      let job_totals (p : Offline.F.phase) =
        let h = Hashtbl.create 16 in
        List.iter
          (fun (i, j, t) ->
            let w = comp.breakpoints.(j + 1) -. comp.breakpoints.(j) in
            if t < -.1e-9 || t > w +. 1e-9 then
              Alcotest.failf "%s: alloc (%d, %d, %g) outside [0, %g]" tag i j t w;
            Hashtbl.replace h i (t +. (try Hashtbl.find h i with Not_found -> 0.)))
          p.alloc;
        h
      in
      let ta = job_totals a and tb = job_totals b in
      List.iter
        (fun i ->
          let get h = try Hashtbl.find h i with Not_found -> 0. in
          close (Printf.sprintf "%s job %d total time" tag i) (get ta) (get tb))
        a.members)
    (List.combine dense.schedule_phases comp.schedule_phases);
  let energy r = Offline.energy_of_run (Power.alpha 3.) r in
  close (name ^ ": energy") ~tol:0. (energy dense) (energy comp);
  (* The compressed run's allocation materializes into a schedule that
     passes the (tolerance-aware on floats) feasibility audit. *)
  match jobs with
  | None -> ()
  | Some (machines, js) ->
    (match
       Offline.F.check_segments ~machines js (Offline.F.schedule_segments comp)
     with
    | [] -> ()
    | vs -> Alcotest.failf "%s: %d segment violations" name (List.length vs))

let instance_mix seed machines =
  [
    ( Printf.sprintf "uniform s=%d m=%d" seed machines,
      G.uniform ~seed ~machines ~jobs:14 ~horizon:20. ~max_work:4. () );
    ( Printf.sprintf "poisson s=%d m=%d" seed machines,
      G.poisson ~seed:(seed + 500) ~machines ~jobs:12 ~rate:1.2 ~mean_work:2.5
        ~slack:2.2 () );
    ( Printf.sprintf "heavy s=%d m=%d" seed machines,
      G.heavy ~seed:(seed + 900) ~machines ~jobs:16 ~horizon:14. () );
  ]

let test_solver_matrix () =
  List.iter
    (fun machines ->
      List.iter
        (fun seed ->
          List.iter
            (fun (name, inst) ->
              let jobs = float_jobs inst in
              let dense = Offline.F.solve ~compress:false ~machines:inst.machines jobs in
              let comp = Offline.F.solve ~compress:true ~machines:inst.machines jobs in
              check_float_agree ~jobs:(inst.machines, jobs) name dense comp;
              (* The paper-literal reference reaches the same phases. *)
              let reference = Offline.F.Reference.solve ~machines:inst.machines jobs in
              check_float_agree (name ^ " reference") reference comp)
            (instance_mix seed machines))
        [ 11; 12; 13 ])
    [ 1; 2; 4; 8 ]

let test_clustered_split () =
  List.iter
    (fun seed ->
      let inst =
        G.clustered ~seed ~machines:4 ~clusters:4 ~jobs_per_cluster:10
          ~cluster_span:12. ~gap:3. ~max_work:4. ()
      in
      let jobs = float_jobs inst in
      let dense = Offline.F.solve ~compress:false ~machines:4 jobs in
      let comp = Offline.F.solve ~compress:true ~machines:4 jobs in
      check_float_agree (Printf.sprintf "clustered s=%d" seed) dense comp)
    [ 61; 62 ]

(* One session workspace across components and substrates: a
   multi-component clustered instance, a heavy one above the compression
   threshold and a small dense one, solved in sequence and then again —
   every run equals a fresh solve bitwise, stats included. *)
let test_session_agrees () =
  let machines = 4 in
  let session = Offline.F.Session.create ~machines in
  let heavy = G.heavy ~integral:false ~seed:71 ~machines ~jobs:150 ~horizon:75. () in
  let cases =
    [
      ( "clustered",
        G.clustered ~seed:72 ~machines ~clusters:4 ~jobs_per_cluster:10 ~cluster_span:12.
          ~gap:3. ~max_work:4. () );
      ("heavy", heavy);
      ("small", G.uniform ~seed:73 ~machines ~jobs:10 ~horizon:16. ~max_work:4. ());
    ]
  in
  Alcotest.(check bool) "clustered instance splits" true
    (Offline.component_count (List.assoc "clustered" cases) > 1);
  let bp = (Offline.F.solve ~machines (float_jobs heavy)).breakpoints in
  Alcotest.(check bool) "heavy instance is compressed" true
    (Array.length heavy.jobs * (Array.length bp - 1) >= Offline.F.compress_threshold);
  List.iter
    (fun pass ->
      List.iter
        (fun (name, inst) ->
          let jobs = float_jobs inst in
          let fresh = Offline.F.solve ~machines jobs in
          let via_session = Offline.F.Session.solve session jobs in
          let tag = Printf.sprintf "%s pass %d" name pass in
          Alcotest.(check bool) (tag ^ " breakpoints") true
            (fresh.breakpoints = via_session.breakpoints);
          Alcotest.(check bool) (tag ^ " phases") true
            (fresh.schedule_phases = via_session.schedule_phases);
          Alcotest.(check bool) (tag ^ " stats") true (fresh.stats = via_session.stats))
        cases)
    [ 1; 2 ]

(* OA(m) whose first replan is above the compression threshold: 150 jobs
   released together, then a later batch after every first-batch
   deadline.  The plans agree bitwise with the replay on a dense planner
   (speeds are substrate-independent); the schedule energy sums over
   segments whose packing follows the (non-unique) t_kj split, so it is
   approximately equal, not bitwise. *)
let test_oa_agrees () =
  let p3 = Power.alpha 3. in
  let rng = Ss_workload.Rng.create ~seed:81 in
  let job release span =
    Job.make ~release
      ~deadline:(release +. Ss_workload.Rng.uniform rng ~lo:1. ~hi:span)
      ~work:(Ss_workload.Rng.uniform rng ~lo:0.5 ~hi:4.)
  in
  let first = List.init 150 (fun _ -> job 0. 20.) in
  let later = List.init 12 (fun i -> job (21. +. float_of_int (i / 4)) 6.) in
  let inst = Job.instance ~machines:4 (first @ later) in
  let first_jobs = float_jobs (Job.instance ~machines:4 first) in
  let first_k = Array.length (Offline.F.solve ~machines:4 first_jobs).breakpoints - 1 in
  Alcotest.(check bool) "first replan is compressed" true
    (150 * first_k >= Offline.F.compress_threshold);
  let s_comp, _, plans = Ss_online.Oa.run_detailed inst in
  let s_dense, plans_dense, _ = Oa_scratch.run_detailed inst in
  Alcotest.(check int) "OA replans" (List.length plans_dense) (List.length plans);
  List.iter2
    (fun (a : Ss_online.Oa.plan) (b : Ss_online.Oa.plan) ->
      Alcotest.(check bool) (Printf.sprintf "plan at %g" a.at) true (a = b))
    plans_dense plans;
  close "OA energy"
    (Ss_model.Schedule.energy p3 s_dense)
    (Ss_model.Schedule.energy p3 s_comp)

let test_exact_agrees () =
  List.iter
    (fun (machines, seed) ->
      let inst = G.uniform ~seed ~machines ~jobs:8 ~horizon:12. ~max_work:4. () in
      let jobs = exact_jobs inst in
      let dense = Offline.Exact.solve ~compress:false ~machines jobs in
      let comp = Offline.Exact.solve ~compress:true ~machines jobs in
      Alcotest.(check int) "exact: phase count"
        (List.length dense.schedule_phases)
        (List.length comp.schedule_phases);
      List.iter2
        (fun (a : Offline.Exact.phase) (b : Offline.Exact.phase) ->
          Alcotest.(check (list int)) "exact: members" a.members b.members;
          Alcotest.(check bool) "exact: speed (exact equality)" true
            (Rational.Field.equal a.speed b.speed);
          Alcotest.(check (array int)) "exact: procs" a.procs b.procs;
          (* Exact-rational per-member totals: both allocations are maximum
             flows of the same network, so each member's total time is
             exactly its demand — compare totals, not the non-unique
             split. *)
          let totals (p : Offline.Exact.phase) =
            let h = Hashtbl.create 16 in
            List.iter
              (fun (i, _, t) ->
                let prev =
                  try Hashtbl.find h i with Not_found -> Rational.Field.zero
                in
                Hashtbl.replace h i (Rational.Field.add prev t))
              p.alloc;
            h
          in
          let ta = totals a and tb = totals b in
          List.iter
            (fun i ->
              let get h =
                try Hashtbl.find h i with Not_found -> Rational.Field.zero
              in
              Alcotest.(check bool)
                (Printf.sprintf "exact: job %d total (exact equality)" i)
                true
                (Rational.Field.equal (get ta) (get tb)))
            a.members)
        dense.schedule_phases comp.schedule_phases)
    [ (1, 31); (2, 32); (4, 34) ]

(* --- (b) counters ------------------------------------------------------ *)

let test_counters () =
  let inst = G.heavy ~seed:91 ~machines:8 ~jobs:150 ~horizon:60. () in
  let jobs = float_jobs inst in
  let dense = Offline.F.solve ~compress:false ~machines:8 jobs in
  let comp = Offline.F.solve ~compress:true ~machines:8 jobs in
  check_float_agree "counter instance" dense comp;
  Alcotest.(check bool) "dense work was counted" true
    (dense.stats.net_edges > 0 && dense.stats.net_pushes > 0 && dense.stats.net_bfs_waves > 0);
  Alcotest.(check (list int)) "compressed flow counters read 0" [ 0; 0; 0; 0; 0 ]
    [
      comp.stats.net_edges;
      comp.stats.net_pushes;
      comp.stats.net_bfs_waves;
      comp.stats.phase_resumes;
      comp.stats.phase_drain_edges;
    ]

let () =
  Alcotest.run "compressed"
    [
      ( "solver agreement",
        [
          Alcotest.test_case "generator x seed x machines matrix" `Quick test_solver_matrix;
          Alcotest.test_case "clustered + solve_split" `Quick test_clustered_split;
          Alcotest.test_case "session solves" `Quick test_session_agrees;
          Alcotest.test_case "OA(m) replanning" `Quick test_oa_agrees;
          Alcotest.test_case "exact-rational replay" `Slow test_exact_agrees;
        ] );
      ("counters", [ Alcotest.test_case "network size" `Quick test_counters ]);
    ]
