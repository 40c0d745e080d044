(* Golden regression tests.

   Frozen expected values for fixed generator seeds: any behavioural drift
   in the generators, the offline algorithm, the online algorithms or the
   energy accounting shows up here as an exact-value mismatch.  The values
   were recorded from the implementation after it was validated against
   the independent oracles (YDS, Frank-Wolfe band, exact rationals), so
   they encode a certified baseline.

   Tolerances are tight (1e-9 relative): these are determinism checks, not
   accuracy checks. *)

module Job = Ss_model.Job
module Power = Ss_model.Power

let close msg expected actual =
  let tol = 1e-9 *. (1. +. Float.abs expected) in
  if Float.abs (expected -. actual) > tol then
    Alcotest.failf "%s: expected %.15g, got %.15g" msg expected actual

let p2 = Power.alpha 2.
let p3 = Power.alpha 3.

let golden_instance () =
  Ss_workload.Generators.uniform ~seed:12345 ~machines:3 ~jobs:12 ~horizon:20. ~max_work:5. ()

let test_generator_fingerprint () =
  let inst = golden_instance () in
  Alcotest.(check int) "jobs" 12 (Job.num_jobs inst);
  close "total work" 25.5433586163644 (Job.total_work inst);
  close "load factor" 2.14577928383595 (Job.load_factor inst)

let test_offline_fingerprint () =
  let inst = golden_instance () in
  let sched, info = Ss_core.Offline.solve inst in
  close "optimal energy alpha=2" 18.1389727232439 (Ss_model.Schedule.energy p2 sched);
  close "optimal energy alpha=3" 13.2319658994329 (Ss_model.Schedule.energy p3 sched);
  Alcotest.(check int) "phases" 6 info.phases;
  (* Rounds summed over the instance's two components; each failed round
     removes the residual closure of its victims. *)
  Alcotest.(check int) "rounds" 11 info.rounds;
  Alcotest.(check int) "components" 2 (Ss_core.Offline.component_count inst);
  close "peak speed" 0.835800461016282 info.speeds.(0)

let test_online_fingerprint () =
  let inst = golden_instance () in
  close "OA energy" 13.7966509516412 (Ss_online.Oa.energy p3 inst);
  close "AVR energy" 14.757838105981 (Ss_online.Avr.energy p3 inst);
  close "round-robin energy" 19.2766274545286
    (Ss_online.Nonmigratory.energy Ss_online.Nonmigratory.Round_robin p3 inst)

let test_yds_fingerprint () =
  let inst = golden_instance () in
  close "YDS single-processor energy" 85.15547717738
    (Ss_core.Yds.energy p3 (Ss_core.Yds.solve inst))

let test_staircase_fingerprint () =
  (* The staircase is fully deterministic (no RNG), so these values are
     also analytically meaningful: OPT = 976.746..., OA = 2628 at m=2,
     levels=6, copies=2, alpha=3. *)
  let st = Ss_workload.Generators.staircase ~machines:2 ~levels:6 ~copies:2 () in
  close "staircase OPT" 976.74609375 (Ss_core.Offline.optimal_energy p3 st);
  close "staircase OA" 2628. (Ss_online.Oa.energy p3 st)

let test_video_fingerprint () =
  let v = Ss_workload.Generators.video ~seed:99 ~machines:2 ~frames:10 ~period:2. ~base_work:3. () in
  close "video OPT" 386.352877824286 (Ss_core.Offline.optimal_energy p3 v)

(* The ultimate invariant behind all fingerprints: exact-rational replay of
   the golden instance yields bit-compatible phase speeds. *)
let test_exact_replay_fingerprint () =
  let inst = golden_instance () in
  let run = Ss_core.Offline.run inst in
  let exact = Ss_core.Offline.solve_exact inst in
  List.iter2
    (fun (a : Ss_core.Offline.F.phase) (b : Ss_core.Offline.Exact.phase) ->
      close "phase speed float-vs-exact" (Ss_numeric.Rational.to_float b.speed) a.speed)
    run.schedule_phases exact.schedule_phases

let () =
  Alcotest.run "golden"
    [
      ( "fingerprints",
        [
          Alcotest.test_case "generator" `Quick test_generator_fingerprint;
          Alcotest.test_case "offline" `Quick test_offline_fingerprint;
          Alcotest.test_case "online" `Quick test_online_fingerprint;
          Alcotest.test_case "yds" `Quick test_yds_fingerprint;
          Alcotest.test_case "staircase" `Quick test_staircase_fingerprint;
          Alcotest.test_case "video" `Quick test_video_fingerprint;
          Alcotest.test_case "exact replay" `Quick test_exact_replay_fingerprint;
        ] );
    ]
