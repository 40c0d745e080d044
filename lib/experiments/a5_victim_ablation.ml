(* A5 — ablation: the Lemma 4 removal choice.

   When a round's flow falls short, *any* job with a non-full edge into an
   unsaturated interval may be removed (the Lemma 4 proof never uses which
   one).  This table compares two rules — the least-filled edge vs. the
   first found — on round counts and runtime.  The computed optimum must
   be identical either way (it is unique in energy).  It runs on the
   paper-literal reference solver ([Offline.F.Reference]), which removes
   one victim per failed round; the production loop removes every
   certified victim at once. *)

module Table = Ss_numeric.Table
module Power = Ss_model.Power
module Offline = Ss_core.Offline

let run_with rule inst =
  let jobs =
    Array.map
      (fun (j : Ss_model.Job.t) ->
        { Offline.F.release = j.release; deadline = j.deadline; work = j.work })
      inst.Ss_model.Job.jobs
  in
  Offline.F.Reference.solve ~victim_rule:rule ~machines:inst.Ss_model.Job.machines jobs

let run () =
  let power = Power.cube in
  let rows =
    List.map
      (fun n ->
        let inst =
          Ss_workload.Generators.uniform ~seed:(n * 29) ~machines:4 ~jobs:n
            ~horizon:(float_of_int (2 * n)) ~max_work:5. ()
        in
        let rl = run_with Offline.F.Reference.Least_flow inst in
        let rf = run_with Offline.F.Reference.First_found inst in
        let agree =
          Float.abs (Offline.energy_of_run power rl -. Offline.energy_of_run power rf)
          <= 1e-6 *. Offline.energy_of_run power rl
        in
        [
          Table.cell_int n;
          Table.cell_int rl.stats.rounds;
          Table.cell_int rf.stats.rounds;
          Table.cell_int rl.stats.phases;
          Table.cell_int rf.stats.phases;
          Table.cell_bool agree;
        ])
      [ 16; 32; 64 ]
  in
  let table =
    Table.make
      ~title:
        "A5 (ablation): Lemma 4 victim-selection rule (m=4)\n\
         expected: same optimal energy under both rules; round counts may differ"
      ~headers:
        [ "n"; "rounds (least-flow)"; "rounds (first)"; "phases (lf)"; "phases (ff)"; "same energy" ]
      rows
  in
  Common.outcome
    ~notes:
      [
        "Lemma 4 licenses removing any job with an unsaturated edge into an \
         unsaturated interval; the choice is purely an implementation detail.";
      ]
    [ table ]

let exp : Common.t =
  {
    id = "a5";
    title = "victim rule ablation";
    validates = "Lemma 4 (any unsaturated job removal is sound)";
    run;
  }
