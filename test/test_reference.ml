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

(* --- the residual-closure certification ---------------------------------
   A replay of every phase of a reference run, round by round, on a Fig. 1
   network of its own, with a chosen max-flow algorithm (each picks a
   different maximum flow).  At every failed round the closure's victims
   must contain the Lemma 4 victims (computed here directly: candidates
   with a non-full edge into an unsaturated interval, which must exist)
   and contain no member of the class the phase accepts; removing the
   closure must lead to exactly that class.  Returns the replay's round
   count. *)
module Replay (F : Ss_numeric.Field.S) (Flow : module type of Ss_flow.Maxflow.Make (F)) =
struct
  type algo = Dinic | Edmonds_karp | Push_relabel

  (* [jobs] as (release, deadline, work); [classes] the reference's phase
     members in phase order. *)
  let run ~algo ~machines (jobs : (F.t * F.t * F.t) array) (classes : int list list) =
    let n = Array.length jobs in
    let bp =
      Array.of_list
        (List.sort_uniq F.compare
           (List.concat_map (fun (r, d, _) -> [ r; d ]) (Array.to_list jobs)))
    in
    let k = Array.length bp - 1 in
    let index t =
      let j = ref 0 in
      while F.compare bp.(!j) t < 0 do incr j done;
      !j
    in
    let first_ivl = Array.map (fun (r, _, _) -> index r) jobs in
    let last_ivl = Array.map (fun (_, d, _) -> index d - 1) jobs in
    let width j = F.sub bp.(j + 1) bp.(j) in
    let used = Array.make k 0 and remaining = Array.make n true in
    let closure = Ss_core.Residual_closure.create () in
    let rounds = ref 0 and ok = ref true in
    List.iter
      (fun members ->
        let candidate = Array.copy remaining in
        let accepted = ref false in
        while not !accepted do
          incr rounds;
          let nj = Array.make k 0 in
          Array.iteri
            (fun i c ->
              if c then
                for j = first_ivl.(i) to last_ivl.(i) do nj.(j) <- nj.(j) + 1 done)
            candidate;
          let procs = Array.init k (fun j -> Int.min nj.(j) (machines - used.(j))) in
          let cap j = F.mul (F.of_int procs.(j)) (width j) in
          let time = ref F.zero and work = ref F.zero in
          for j = 0 to k - 1 do time := F.add !time (cap j) done;
          Array.iteri
            (fun i (_, _, w) -> if candidate.(i) then work := F.add !work w)
            jobs;
          let speed = F.div !work !time in
          (* 0 = source, 1 = sink, 2 + i = job i, 2 + n + j = interval j. *)
          let g = Flow.create ~n:(n + k + 2) in
          let pair = Array.make (n * k) (-1) and sink = Array.make k (-1) in
          Array.iteri
            (fun i (_, _, w) ->
              if candidate.(i) then begin
                ignore (Flow.add_edge g ~src:0 ~dst:(2 + i) ~cap:(F.div w speed));
                for j = first_ivl.(i) to last_ivl.(i) do
                  if procs.(j) > 0 then
                    pair.((i * k) + j) <-
                      Flow.add_edge g ~src:(2 + i) ~dst:(2 + n + j) ~cap:(width j)
                done
              end)
            jobs;
          for j = 0 to k - 1 do
            if procs.(j) > 0 then sink.(j) <- Flow.add_edge g ~src:(2 + n + j) ~dst:1 ~cap:(cap j)
          done;
          let value =
            match algo with
            | Dinic -> Flow.dinic g ~source:0 ~sink:1
            | Edmonds_karp -> Flow.edmonds_karp g ~source:0 ~sink:1
            | Push_relabel -> Flow.push_relabel g ~source:0 ~sink:1
          in
          let in_class i = List.mem i members in
          if F.equal_approx value !time then begin
            accepted := true;
            let cands = List.filter (fun i -> candidate.(i)) (List.init n Fun.id) in
            if not (List.equal Int.equal cands members) then ok := false
          end
          else begin
            let pair_flow i j =
              let e = pair.((i * k) + j) in
              if e >= 0 then Flow.flow_on g e else F.zero
            in
            let sink_open j =
              procs.(j) > 0 && not (F.equal_approx (Flow.flow_on g sink.(j)) (cap j))
            in
            let pair_open i j = not (F.equal_approx (pair_flow i j) (width j)) in
            let lemma4 =
              List.filter
                (fun i ->
                  candidate.(i)
                  && List.exists
                       (fun j -> sink_open j && pair_open i j)
                       (List.init (last_ivl.(i) - first_ivl.(i) + 1) (fun d -> first_ivl.(i) + d)))
                (List.init n Fun.id)
            in
            let victims =
              Ss_core.Residual_closure.victims closure ~n ~k ~candidate ~first_ivl ~last_ivl
                ~sink_open ~pair_open
                ~pair_flowing:(fun i j -> F.sign (pair_flow i j) > 0)
            in
            if
              lemma4 = []
              || not (List.for_all (fun i -> List.mem i victims) lemma4)
              || List.exists in_class victims
            then begin
              ok := false;
              accepted := true
            end
            else List.iter (fun i -> candidate.(i) <- false) victims
          end
        done;
        List.iter (fun i -> remaining.(i) <- false) members;
        let procs = Array.make k 0 in
        List.iter
          (fun i -> for j = first_ivl.(i) to last_ivl.(i) do procs.(j) <- procs.(j) + 1 done)
          members;
        Array.iteri (fun j c -> used.(j) <- used.(j) + Int.min c (machines - used.(j))) procs)
      classes;
    if !ok then Some !rounds else None
end

module Replay_float = Replay (Ss_numeric.Field.Float) (Ss_flow.Maxflow.Float)
module Replay_exact = Replay (Rational.Field) (Ss_flow.Maxflow.Exact)

let random_instance seed ~jobs =
  let machines = 1 + (seed mod 4) in
  if seed mod 2 = 0 then
    Ss_workload.Generators.uniform ~seed ~machines ~jobs ~horizon:15. ~max_work:4. ()
  else
    Ss_workload.Generators.poisson ~seed ~machines ~jobs ~rate:1.2 ~mean_work:2.5 ~slack:2. ()

let prop_closure_float =
  QCheck.Test.make ~count:60
    ~name:"float: closure victims contain Lemma 4's, none in the class, any max flow"
    QCheck.small_nat (fun seed ->
      let inst = random_instance (seed + 700) ~jobs:(6 + (seed mod 7)) in
      let ref_ = Offline.F.Reference.solve ~machines:inst.machines (float_jobs inst) in
      let classes = List.map (fun (p : Offline.F.phase) -> p.members) ref_.schedule_phases in
      let jobs = Array.map (fun (j : Job.t) -> (j.release, j.deadline, j.work)) inst.jobs in
      List.for_all
        (fun algo ->
          match Replay_float.run ~algo ~machines:inst.machines jobs classes with
          | Some rounds -> rounds <= ref_.stats.rounds
          | None -> false)
        [ Replay_float.Dinic; Edmonds_karp; Push_relabel ])

let prop_closure_exact =
  QCheck.Test.make ~count:25
    ~name:"exact: closure victims contain Lemma 4's, none in the class, any max flow"
    QCheck.small_nat (fun seed ->
      let inst = random_instance (seed + 900) ~jobs:(4 + (seed mod 4)) in
      let ref_ = Offline.Exact.Reference.solve ~machines:inst.machines (exact_jobs inst) in
      let classes = List.map (fun (p : Offline.Exact.phase) -> p.members) ref_.schedule_phases in
      let q = Rational.of_float in
      let jobs = Array.map (fun (j : Job.t) -> (q j.release, q j.deadline, q j.work)) inst.jobs in
      List.for_all
        (fun algo ->
          match Replay_exact.run ~algo ~machines:inst.machines jobs classes with
          | Some rounds -> rounds <= ref_.stats.rounds
          | None -> false)
        [ Replay_exact.Dinic; Edmonds_karp ])

(* The production loop, on both substrates and both fields, certifies by
   the closure: it reaches the reference's classes (so no victim belonged
   to its phase's class) in no more rounds than the single-victim
   reference. *)
let prop_production_rounds =
  QCheck.Test.make ~count:40 ~name:"production rounds <= reference rounds (float, exact; dense, compressed)"
    QCheck.small_nat (fun seed ->
      let inst = random_instance (seed + 1100) ~jobs:(4 + (seed mod 5)) in
      let machines = inst.machines in
      let members_f (r : Offline.F.run) =
        List.map (fun (p : Offline.F.phase) -> p.members) r.schedule_phases
      in
      let members_q (r : Offline.Exact.run) =
        List.map (fun (p : Offline.Exact.phase) -> p.members) r.schedule_phases
      in
      let ref_f = Offline.F.Reference.solve ~machines (float_jobs inst) in
      let ref_q = Offline.Exact.Reference.solve ~machines (exact_jobs inst) in
      List.for_all
        (fun compress ->
          let f = Offline.F.solve ~compress ~machines (float_jobs inst) in
          let q = Offline.Exact.solve ~compress ~machines (exact_jobs inst) in
          members_f f = members_f ref_f
          && f.stats.rounds <= ref_f.stats.rounds
          && members_q q = members_q ref_q
          && q.stats.rounds <= ref_q.stats.rounds)
        [ false; true ])

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
      ( "closure",
        List.map QCheck_alcotest.to_alcotest
          [ prop_closure_float; prop_closure_exact; prop_production_rounds ] );
    ]
