(* The production round loop against the paper-literal reference.

   [Offline.F.solve] removes every certified Lemma 4 victim of a failed
   round at once and rewinds one network in place; [Offline.F.Reference]
   rebuilds the dense Fig. 1 network every round, computes a maximum flow
   from zero and removes one victim.  The accepted classes are the unique
   fixed point of certified removals, so the two agree on phase members,
   speeds, procs and energy — and, on the dense substrate, where both read
   t_kj off a from-zero Dinic run of the same accepting network, on the
   alloc bit for bit — across generators, seeds, machine counts, the
   decomposition layer every solve runs, the compressed substrate (per-member totals,
   since its oracle splits t_kj differently), the reference's
   flow-algorithm × victim-rule ablation grid and the exact field. *)

module Offline = Ss_core.Offline
module Job = Ss_model.Job
module Power = Ss_model.Power
module Rational = Ss_numeric.Rational

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

(* Each member's total allocated time in a phase, in member order. *)
let member_totals (p : Offline.F.phase) =
  List.map
    (fun i -> List.fold_left (fun acc (i', _, t) -> if i' = i then acc +. t else acc) 0. p.alloc)
    p.members

(* Phase-for-phase agreement of a reference run and another run: members,
   speeds, procs and energy bitwise; the alloc bitwise when [bitwise_alloc],
   per-member totals otherwise. *)
let check_float_agree ~bitwise_alloc name (ref_ : Offline.F.run) (run : Offline.F.run) =
  Alcotest.(check int)
    (name ^ ": phase count")
    (List.length ref_.schedule_phases)
    (List.length run.schedule_phases);
  List.iteri
    (fun idx ((a : Offline.F.phase), (b : Offline.F.phase)) ->
      let tag = Printf.sprintf "%s: phase %d" name idx in
      Alcotest.(check (list int)) (tag ^ " members") a.members b.members;
      close (tag ^ " speed") ~tol:0. a.speed b.speed;
      Alcotest.(check (array int)) (tag ^ " procs") a.procs b.procs;
      if bitwise_alloc then
        Alcotest.(check (list (triple int int (float 0.)))) (tag ^ " alloc") a.alloc b.alloc
      else
        List.iter2
          (fun x y -> close (tag ^ " member total") x y)
          (member_totals a) (member_totals b))
    (List.combine ref_.schedule_phases run.schedule_phases);
  let energy r = Offline.energy_of_run (Power.alpha 3.) r in
  close (name ^ ": energy") ~tol:0. (energy ref_) (energy run);
  Alcotest.(check int) (name ^ ": reference never resumes") 0 ref_.stats.resumes

let instance_mix seed machines =
  [
    ( Printf.sprintf "uniform s=%d m=%d" seed machines,
      Ss_workload.Generators.uniform ~seed ~machines ~jobs:12 ~horizon:18. ~max_work:4. () );
    ( Printf.sprintf "poisson s=%d m=%d" seed machines,
      Ss_workload.Generators.poisson ~seed:(seed + 500) ~machines ~jobs:12 ~rate:1.1
        ~mean_work:2.5 ~slack:2.2 () );
  ]

(* Production on both substrates against the reference. *)
let test_float_matrix () =
  List.iter
    (fun machines ->
      List.iter
        (fun seed ->
          List.iter
            (fun (name, inst) ->
              let jobs = float_jobs inst in
              let ref_ = Offline.F.Reference.solve ~machines:inst.machines jobs in
              List.iter
                (fun compress ->
                  let run = Offline.F.solve ~compress ~machines:inst.machines jobs in
                  check_float_agree ~bitwise_alloc:(not compress)
                    (Printf.sprintf "%s compress=%b" name compress)
                    ref_ run)
                [ false; true ])
            (instance_mix seed machines))
        [ 11; 12; 13 ])
    [ 1; 2; 4; 8 ]

(* The reference's ablation knobs.  Every backend and victim rule reaches
   the production partition; a Dinic reference reads the same accepting
   flow bit for bit, and within one backend the victim rule never changes
   the accepted flow. *)
let test_float_ablation_grid () =
  let inst =
    Ss_workload.Generators.uniform ~seed:21 ~machines:4 ~jobs:14 ~horizon:20. ~max_work:4. ()
  in
  let jobs = float_jobs inst in
  let run = Offline.F.solve ~machines:inst.machines jobs in
  List.iter
    (fun flow_algorithm ->
      let by_rule =
        List.map
          (fun victim_rule ->
            let name =
              Printf.sprintf "algo=%s rule=%s"
                (match flow_algorithm with
                | Offline.F.Reference.Dinic -> "dinic"
                | Edmonds_karp -> "ek"
                | Push_relabel -> "pr")
                (match victim_rule with
                | Offline.F.Reference.Least_flow -> "least"
                | First_found -> "first")
            in
            let ref_ =
              Offline.F.Reference.solve ~flow_algorithm ~victim_rule ~machines:inst.machines jobs
            in
            check_float_agree
              ~bitwise_alloc:(flow_algorithm = Offline.F.Reference.Dinic)
              name ref_ run;
            (name, ref_))
          [ Offline.F.Reference.Least_flow; First_found ]
      in
      match by_rule with
      | [ (name, least); (_, first) ] ->
        check_float_agree ~bitwise_alloc:true (name ^ " vs first-found") least first
      | _ -> assert false)
    [ Offline.F.Reference.Dinic; Edmonds_karp; Push_relabel ]

(* Exact-rational replay: the same agreement with zero tolerance, plus
   certification that the float run found the right speeds. *)
let test_exact_agree () =
  List.iter
    (fun (machines, seed) ->
      let inst =
        Ss_workload.Generators.uniform ~seed ~machines ~jobs:8 ~horizon:12. ~max_work:4. ()
      in
      let jobs = exact_jobs inst in
      let ref_ = Offline.Exact.Reference.solve ~machines jobs in
      let run = Offline.Exact.solve ~compress:false ~machines jobs in
      Alcotest.(check int) "exact: phase count"
        (List.length ref_.schedule_phases)
        (List.length run.schedule_phases);
      List.iter2
        (fun (a : Offline.Exact.phase) (b : Offline.Exact.phase) ->
          Alcotest.(check (list int)) "exact: members" a.members b.members;
          Alcotest.(check bool) "exact: speed (exact equality)" true
            (Rational.Field.equal a.speed b.speed);
          Alcotest.(check (array int)) "exact: procs" a.procs b.procs;
          Alcotest.(check int) "exact: alloc length" (List.length a.alloc)
            (List.length b.alloc);
          List.iter2
            (fun (i, j, t) (i', j', t') ->
              Alcotest.(check (pair int int)) "exact: alloc cell" (i, j) (i', j');
              Alcotest.(check bool) "exact: alloc time (exact equality)" true
                (Rational.Field.equal t t'))
            a.alloc b.alloc)
        ref_.schedule_phases run.schedule_phases;
      (* Certify the float run against the exact one. *)
      let f = Offline.F.solve ~machines (float_jobs inst) in
      List.iter2
        (fun (a : Offline.F.phase) (b : Offline.Exact.phase) ->
          close "float-vs-exact speed" a.speed (Rational.to_float b.speed))
        f.schedule_phases ref_.schedule_phases)
    [ (1, 31); (2, 32); (2, 33); (4, 34) ]

(* The top-level pipeline agrees too (schedule energy is what users see). *)
let test_pipeline_energy_agrees () =
  let p3 = Power.alpha 3. in
  List.iter
    (fun seed ->
      let inst =
        Ss_workload.Generators.uniform ~seed ~machines:4 ~jobs:15 ~horizon:22. ~max_work:4. ()
      in
      let s_run, info = Offline.solve inst in
      let ref_ = Offline.F.Reference.solve ~machines:inst.machines (float_jobs inst) in
      let s_ref = Offline.schedule_of_run ~machines:inst.machines ref_ in
      close "pipeline energy" ~tol:0.
        (Ss_model.Schedule.energy p3 s_ref)
        (Ss_model.Schedule.energy p3 s_run);
      Alcotest.(check int) "pipeline phases" ref_.stats.phases info.phases;
      (* Every failed round of a dense solve is answered by one rewind. *)
      Alcotest.(check int) "pipeline resumes = failed rounds" (info.rounds - info.phases)
        info.resumes)
    [ 51; 52; 53 ]

let () =
  Alcotest.run "reference"
    [
      ( "agreement",
        [
          Alcotest.test_case "float matrix (generators x seeds x m)" `Quick test_float_matrix;
          Alcotest.test_case "flow-algorithm x victim-rule grid" `Quick test_float_ablation_grid;
          Alcotest.test_case "exact-rational replay" `Slow test_exact_agree;
          Alcotest.test_case "pipeline energy" `Quick test_pipeline_energy_agrees;
        ] );
    ]
