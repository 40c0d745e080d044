(* Workload generator, RNG and trace-format tests. *)

module Job = Ss_model.Job
module G = Ss_workload.Generators
module Rng = Ss_workload.Rng
module Trace = Ss_workload.Trace

let check_bool = Alcotest.(check bool)
let checkf msg = Alcotest.(check (float 1e-9)) msg

(* --- rng ---------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next_int64 a) (Rng.next_int64 b)
  done

let test_rng_ranges () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 1000 do
    let f = Rng.float rng in
    check_bool "float in [0,1)" true (f >= 0. && f < 1.);
    let u = Rng.uniform rng ~lo:2. ~hi:5. in
    check_bool "uniform range" true (u >= 2. && u <= 5.);
    let i = Rng.int rng ~bound:10 in
    check_bool "int range" true (i >= 0 && i < 10)
  done

let test_rng_distributions () =
  let rng = Rng.create ~seed:11 in
  let n = 20000 in
  let exp_mean =
    Ss_numeric.Kahan.sum_f n (fun _ -> Rng.exponential rng ~mean:2.) /. float_of_int n
  in
  Alcotest.(check (float 0.1)) "exponential mean" 2. exp_mean;
  let par_min = ref infinity in
  for _ = 1 to 1000 do
    par_min := Float.min !par_min (Rng.pareto rng ~xm:1.5 ~shape:2.)
  done;
  check_bool "pareto above scale" true (!par_min >= 1.5)

let test_rng_normal_lognormal () =
  let rng = Rng.create ~seed:21 in
  let n = 20000 in
  let mean =
    Ss_numeric.Kahan.sum_f n (fun _ -> Rng.normal rng ~mean:5. ~stddev:2.) /. float_of_int n
  in
  Alcotest.(check (float 0.1)) "normal mean" 5. mean;
  let samples = Array.init 5000 (fun _ -> Rng.normal rng ~mean:0. ~stddev:1.) in
  Alcotest.(check (float 0.1)) "normal stddev" 1. (Ss_numeric.Stats.stddev samples);
  for _ = 1 to 1000 do
    check_bool "lognormal positive" true (Rng.lognormal rng ~mu:0. ~sigma:1. > 0.)
  done

let test_rng_split_independent () =
  let base = Rng.create ~seed:5 in
  let s1 = Rng.split base in
  let s2 = Rng.split base in
  check_bool "split streams differ" true (Rng.next_int64 s1 <> Rng.next_int64 s2)

let test_rng_guards () =
  let rng = Rng.create ~seed:1 in
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound <= 0") (fun () ->
      ignore (Rng.int rng ~bound:0));
  Alcotest.check_raises "bad mean" (Invalid_argument "Rng.exponential: mean <= 0")
    (fun () -> ignore (Rng.exponential rng ~mean:0.))

(* --- generators --------------------------------------------------------- *)

let generators =
  [
    ("uniform", fun seed -> G.uniform ~seed ~machines:3 ~jobs:12 ~horizon:20. ~max_work:6. ());
    ("poisson", fun seed -> G.poisson ~seed ~machines:2 ~jobs:10 ~rate:1. ~mean_work:3. ~slack:2. ());
    ( "bursty",
      fun seed -> G.bursty ~seed ~machines:2 ~bursts:3 ~jobs_per_burst:4 ~gap:8. ~max_work:5. () );
    ("heavy", fun seed -> G.heavy_tailed ~seed ~machines:2 ~jobs:10 ~horizon:15. ~shape:1.5 ());
    ( "long_short",
      fun seed -> G.long_short ~seed ~machines:2 ~long_jobs:3 ~short_jobs:8 ~horizon:20. () );
    ("video", fun seed -> G.video ~seed ~machines:2 ~frames:16 ~period:2. ~base_work:3. ());
    ( "diurnal",
      fun seed ->
        G.diurnal ~seed ~machines:2 ~jobs:12 ~days:2 ~day_length:24. ~mean_work:2. ~slack:2. () );
  ]

let test_generators_valid () =
  List.iter
    (fun (name, gen) ->
      List.iter
        (fun seed ->
          let inst = gen seed in
          check_bool (Printf.sprintf "%s seed %d valid" name seed) true (Job.is_valid inst);
          check_bool
            (Printf.sprintf "%s seed %d integral" name seed)
            true (Job.integral_times inst))
        [ 1; 42; 777 ])
    generators

let test_generators_deterministic () =
  List.iter
    (fun (name, gen) ->
      let a = gen 9 and b = gen 9 in
      check_bool (name ^ " deterministic") true (a = b))
    generators

let test_generators_distinct_seeds () =
  let a = G.uniform ~seed:1 ~machines:2 ~jobs:10 ~horizon:20. ~max_work:6. () in
  let b = G.uniform ~seed:2 ~machines:2 ~jobs:10 ~horizon:20. ~max_work:6. () in
  check_bool "different seeds differ" true (a <> b)

let test_staircase_structure () =
  let inst = G.staircase ~machines:2 ~levels:4 ~copies:2 () in
  check_bool "valid" true (Job.is_valid inst);
  Alcotest.(check int) "job count" 8 (Array.length inst.jobs);
  (* All jobs share the final deadline and have density 1. *)
  Array.iter
    (fun (j : Job.t) ->
      checkf "common deadline" 16. j.deadline;
      checkf "unit density" 1. (Job.density j))
    inst.jobs

let test_integralize () =
  let jobs = [ Job.make ~release:0.3 ~deadline:0.9 ~work:1. ] in
  match G.integralize jobs with
  | [ j ] ->
    checkf "release floored" 0. j.release;
    checkf "deadline pushed" 1. j.deadline
  | _ -> Alcotest.fail "shape"

let test_with_load_factor () =
  let inst = G.uniform ~seed:4 ~machines:2 ~jobs:8 ~horizon:12. ~max_work:3. () in
  let scaled = G.with_load_factor 2.5 inst in
  Alcotest.(check (float 1e-9)) "load factor hit" 2.5 (Job.load_factor scaled)

let test_generator_guards () =
  Alcotest.check_raises "uniform jobs" (Invalid_argument "Generators.uniform: jobs <= 0")
    (fun () -> ignore (G.uniform ~seed:1 ~machines:1 ~jobs:0 ~horizon:5. ~max_work:1. ()));
  Alcotest.check_raises "staircase levels"
    (Invalid_argument "Generators.staircase: levels out of range") (fun () ->
      ignore (G.staircase ~machines:1 ~levels:40 ~copies:1 ()))

(* --- describe ------------------------------------------------------------ *)

let test_describe_basic () =
  let inst =
    Job.instance ~machines:2
      [
        Job.make ~release:0. ~deadline:4. ~work:8.;
        Job.make ~release:1. ~deadline:3. ~work:2.;
      ]
  in
  let d = Ss_workload.Describe.analyze inst in
  Alcotest.(check int) "jobs" 2 d.jobs;
  checkf "total work" 10. d.total_work;
  Alcotest.(check int) "max concurrency" 2 d.max_concurrency;
  (* 1 active on [0,1), 2 on [1,3), 1 on [3,4): avg = (1+4+1)/4. *)
  checkf "avg concurrency" 1.5 d.avg_concurrency;
  Alcotest.(check int) "arrivals" 2 d.distinct_arrivals;
  check_bool "integral" true d.integral_times;
  check_bool "printable" true (String.length (Ss_workload.Describe.to_string d) > 40)

let test_describe_generators () =
  List.iter
    (fun (name, gen) ->
      let d = Ss_workload.Describe.analyze (gen 3) in
      check_bool (name ^ " concurrency sane") true (d.max_concurrency <= d.jobs);
      check_bool (name ^ " load positive") true (d.load_factor > 0.))
    generators

(* --- traces ------------------------------------------------------------- *)

let test_trace_roundtrip_exact () =
  let inst =
    G.poisson ~integral:false ~seed:13 ~machines:3 ~jobs:9 ~rate:1.3 ~mean_work:2.7
      ~slack:1.9 ()
  in
  let back = Trace.of_string (Trace.to_string inst) in
  check_bool "bit-exact roundtrip" true (inst = back)

let test_trace_file_roundtrip () =
  let inst = G.uniform ~seed:21 ~machines:2 ~jobs:6 ~horizon:10. ~max_work:4. () in
  let path = Filename.temp_file "ss_trace" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Trace.save path inst;
      check_bool "file roundtrip" true (Trace.load path = inst))

let test_trace_parse_errors () =
  let expect_error text =
    match Trace.of_string text with
    | exception Trace.Parse_error _ -> ()
    | _ -> Alcotest.failf "accepted %S" text
  in
  expect_error "job 1 2 3\n";                  (* missing machines *)
  expect_error "machines 0\njob 0 1 1\n";      (* bad machine count *)
  expect_error "machines 2\njob 0 1\n";        (* missing field *)
  expect_error "machines 2\nnonsense\n"

let test_trace_comments_and_blanks () =
  let text = "# a comment\n\nmachines 2\n# another\njob 0x0p+0 0x1p+1 0x1p+0\n" in
  let inst = Trace.of_string text in
  Alcotest.(check int) "machines" 2 inst.machines;
  checkf "work parsed" 1. inst.jobs.(0).work

let test_trace_batch_errors_name_instance () =
  let raises text expected =
    match Trace.batch_of_string text with
    | exception Trace.Parse_error (line, msg) ->
      Alcotest.(check string) "parse error" expected (Printf.sprintf "%d: %s" line msg)
    | exception Invalid_argument msg ->
      Alcotest.(check string) "invalid instance" expected msg
    | _ -> Alcotest.failf "accepted %S" text
  in
  (* An empty chunk is no instance; the second instance starts on file
     line 6. *)
  raises "\n---\nmachines 2\njob 0 1 1\n---\n# third\nmachines 2\njob 0 2 1\njob 3 1 1\n"
    "instance 2 (line 6): Job.instance: job 1: release >= deadline";
  raises "machines 2\njob 0 1 1\n---\nmachines 2\njob 0 1\n" "5: instance 2: unrecognized line: job 0 1";
  raises "machines 1\njob 0 1 1\n---\njob 0 1 1\n" "4: instance 2: missing 'machines' line"

let prop_trace_fuzz_never_crashes =
  QCheck.Test.make ~count:300 ~name:"parser rejects garbage gracefully"
    QCheck.(string_of_size (QCheck.Gen.int_range 0 80))
    (fun text ->
      match Trace.of_string text with
      | _ -> true
      | exception Trace.Parse_error _ -> true
      | exception Invalid_argument _ -> true (* valid syntax, bad instance *)
      | exception _ -> false)

let prop_trace_roundtrip =
  QCheck.Test.make ~count:50 ~name:"trace roundtrip on random instances" QCheck.small_nat
    (fun seed ->
      let inst =
        G.uniform ~integral:false ~seed:(seed + 1) ~machines:2 ~jobs:5 ~horizon:9.
          ~max_work:3. ()
      in
      Trace.of_string (Trace.to_string inst) = inst)

let () =
  Alcotest.run "workload"
    [
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "ranges" `Quick test_rng_ranges;
          Alcotest.test_case "distributions" `Quick test_rng_distributions;
          Alcotest.test_case "normal/lognormal" `Quick test_rng_normal_lognormal;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "guards" `Quick test_rng_guards;
        ] );
      ( "generators",
        [
          Alcotest.test_case "valid" `Quick test_generators_valid;
          Alcotest.test_case "deterministic" `Quick test_generators_deterministic;
          Alcotest.test_case "distinct seeds" `Quick test_generators_distinct_seeds;
          Alcotest.test_case "staircase" `Quick test_staircase_structure;
          Alcotest.test_case "integralize" `Quick test_integralize;
          Alcotest.test_case "load factor" `Quick test_with_load_factor;
          Alcotest.test_case "guards" `Quick test_generator_guards;
        ] );
      ( "describe",
        [
          Alcotest.test_case "basic" `Quick test_describe_basic;
          Alcotest.test_case "generators" `Quick test_describe_generators;
        ] );
      ( "trace",
        [
          Alcotest.test_case "roundtrip exact" `Quick test_trace_roundtrip_exact;
          Alcotest.test_case "file roundtrip" `Quick test_trace_file_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_trace_parse_errors;
          Alcotest.test_case "comments and blanks" `Quick test_trace_comments_and_blanks;
          Alcotest.test_case "batch errors name the instance" `Quick
            test_trace_batch_errors_name_instance;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_trace_roundtrip; prop_trace_fuzz_never_crashes ] );
    ]
