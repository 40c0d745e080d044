(* A4 — ablation: max-flow backend inside the offline algorithm.

   The paper only needs *a* max-flow routine; this table compares the
   three independent implementations in the repository (Dinic, Edmonds-
   Karp, FIFO push-relabel with gap heuristic) as the engine of the
   Theorem 1 algorithm.  All three must produce identical energies (the
   feasibility answers coincide); only the runtime differs.  It runs on
   the paper-literal reference solver ([Offline.F.Reference]), which
   rebuilds the network and recomputes the flow from zero every round, so
   each backend does the whole max-flow work. *)

module Table = Ss_numeric.Table
module Power = Ss_model.Power
module Offline = Ss_core.Offline

let run_with algo inst =
  let jobs =
    Array.map
      (fun (j : Ss_model.Job.t) ->
        { Offline.F.release = j.release; deadline = j.deadline; work = j.work })
      inst.Ss_model.Job.jobs
  in
  Offline.F.Reference.solve ~flow_algorithm:algo ~machines:inst.Ss_model.Job.machines jobs

let run () =
  let power = Power.cube in
  let rows =
    List.map
      (fun n ->
        let inst =
          Ss_workload.Generators.uniform ~seed:(n * 13) ~machines:4 ~jobs:n
            ~horizon:(float_of_int (2 * n)) ~max_work:5. ()
        in
        let time algo =
          let result = ref None in
          let ms = Common.time_median (fun () -> result := Some (run_with algo inst)) in
          (Option.get !result, ms)
        in
        let rd, td = time Offline.F.Reference.Dinic in
        let re, te = time Offline.F.Reference.Edmonds_karp in
        let rp, tp = time Offline.F.Reference.Push_relabel in
        let energy r = Offline.energy_of_run power r in
        let agree =
          Float.abs (energy rd -. energy re) <= 1e-6 *. energy rd
          && Float.abs (energy rd -. energy rp) <= 1e-6 *. energy rd
        in
        [
          Table.cell_int n;
          Table.cell_fixed ~digits:2 td;
          Table.cell_fixed ~digits:2 te;
          Table.cell_fixed ~digits:2 tp;
          Table.cell_bool agree;
        ])
      [ 16; 32; 64 ]
  in
  let table =
    Table.make
      ~title:
        "A4 (ablation): max-flow backend of the Theorem 1 algorithm (m=4)\n\
         expected: identical optimal energies; runtimes differ by backend"
      ~headers:[ "n"; "dinic ms"; "edmonds-karp ms"; "push-relabel ms"; "same energy" ]
      rows
  in
  Common.outcome [ table ]

let exp : Common.t =
  {
    id = "a4";
    title = "flow backend ablation";
    validates = "Theorem 1 (algorithm needs only *some* max-flow routine)";
    run;
  }
