(* The benchmark's entry point.

     perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
     perfbench --self-test

   One process, one client, closed loop: the next op starts when the
   previous one and its correctness gate are done.  An untraced run
   (--trace 0) prints the end-to-end metrics; a traced run (--trace 1)
   alternates untraced and traced ops and prints the per-layer metrics.
   The last line of standard output is the result object; a readable
   summary goes to standard error. *)

open Workloads

let end_to_end = [ ("setup_s", "s"); ("op_ms.ref_p50", "ms"); ("top_heap_mb", "MB") ]

(* Set-ups after each reference run: at least this many, for at least
   this many ms. *)
let setup_reps_min = 5
let setup_ms_per_ref = 25.

let per_layer =
  [
    ("op.traced_ms", "ms");
    ("op.samples", "count");
    ("obs.overhead_frac", "ratio");
    ("obs.uncovered_frac", "ratio");
    ("gc.major_collections", "count");
    ("trace.parse_ms", "ms");
    ("crew.spawn_ms", "ms");
    ("canon.key_ms", "ms");
    ("validate.self_frac", "ratio");
    ("offline.run.self_frac", "ratio");
    ("wrap.self_frac", "ratio");
    ("offline.rounds", "count");
    ("offline.removals", "count");
    ("offline.phases", "count");
    ("offline.phase_resumes", "count");
    ("offline.accept_ratio", "ratio");
    ("offline.alloc_mwords", "Mwords");
    ("flow.pushes", "count");
    ("flow.bfs_waves", "count");
    ("flow.peak_edges", "count");
    ("wrap.segments", "count");
    ("oa.run.self_frac", "ratio");
    ("avr.run.self_frac", "ratio");
    ("oa.replans", "count");
    ("oa.rounds", "count");
    ("oa.grouped_rounds", "count");
    ("oa.resumes", "count");
    ("oa.rounds_per_replan", "ratio");
    ("oa.alloc_mwords", "Mwords");
    ("engine.events", "count");
    ("engine.set_ops", "count");
    ("engine.segments", "count");
    ("engine.arena_high_water", "count");
    ("engine.events_per_s", "1/s");
    ("dispatch.batch.self_frac", "ratio");
    ("dispatch.hits", "count");
    ("dispatch.misses", "count");
    ("dispatch.near_hits", "count");
    ("dispatch.hit_rate", "ratio");
    ("dispatch.evictions", "count");
    ("dispatch.solve_qps", "1/s");
    ("dispatch.oa_qps", "1/s");
    ("dispatch.avr_qps", "1/s");
    ("crew.steals", "count");
    ("crew.scaling", "ratio");
  ]

(* Spans whose self time is reported as a share of their op's span. *)
let self_frac_spans =
  [ "validate"; "offline.run"; "wrap"; "oa.run"; "avr.run"; "dispatch.batch" ]

(* Spans whose duration is reported as a median in milliseconds. *)
let duration_spans =
  [
    ("trace.parse", "trace.parse_ms");
    ("crew.spawn", "crew.spawn_ms");
    ("canon.key", "canon.key_ms");
  ]

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

let median_or_zero = function [] -> 0. | l -> Ss_numeric.Stats.median (Array.of_list l)

(* Highest percentile of [samples] with at least ten samples beyond it. *)
let tail samples =
  let n = float_of_int (List.length samples) in
  List.find_map
    (fun p ->
      if n *. (1. -. p) >= 10. then
        Some (p, Ss_numeric.Stats.quantile (Array.of_list samples) p)
      else None)
    [ 0.99; 0.95; 0.9; 0.8; 0.75 ]

let layer_metrics r samples ~plain =
  let spans = Span.spans r in
  let self = Span.self_ms r in
  let ops = List.filter (fun (s : Span.span) -> s.name = "op") spans in
  let op_ms = Hashtbl.create 64 in
  List.iter (fun (s : Span.span) -> Hashtbl.replace op_ms s.op (Span.duration_ms s)) ops;
  let traced = median_or_zero (List.map Span.duration_ms ops) in
  let durations name =
    List.filter_map
      (fun (s : Span.span) -> if s.name = name then Some (Span.duration_ms s) else None)
      spans
  in
  let frac name =
    median_or_zero
      (List.filter_map
         (fun (s : Span.span) ->
           if s.name = name && s.op >= 0 then Some (self s /. Hashtbl.find op_ms s.op) else None)
         spans)
  in
  let computed =
    [
      ("op.traced_ms", traced);
      ("op.samples", float_of_int (List.length ops));
      ("obs.overhead_frac", (traced /. median_or_zero plain) -. 1.);
      ( "obs.uncovered_frac",
        median_or_zero (List.map (fun s -> self s /. Span.duration_ms s) ops) );
    ]
    @ List.map (fun n -> (n ^ ".self_frac", frac n)) self_frac_spans
    @ List.map (fun (n, m) -> (m, median_or_zero (durations n))) duration_spans
  in
  List.map
    (fun (name, unit) ->
      let v =
        match List.assoc_opt name computed with
        | Some v -> v
        | None -> Option.value ~default:0. (Samples.median samples name)
      in
      (name, v, unit))
    per_layer

let measure ?(tamper = false) ?(quiet = false) ?spans_file ~(setup : Workloads.t) ~seconds
    ~trace ~min_ops () =
  let r = Span.create ~enabled:trace in
  (* The set-up that serves the ops.  [close] runs outside the timed
     region and leaves the ops' inputs usable. *)
  let set_up () =
    let p, ms = Span.time_ms (fun () -> setup r) in
    let (Prepared q) = p in
    q.close ();
    (p, ms)
  in
  let (Prepared p), first_setup_ms = set_up () in
  let problems = ref [] in
  let samples = Samples.create () in
  let plain = ref [] in
  let attempted = ref 0 and failed = ref 0 in
  let expected = ref p.golden in
  (* Gate verdicts by answer fingerprint: each distinct answer is checked
     once, and a repeat of it inherits the verdict. *)
  let verdicts = Hashtbl.create 4 in
  (* The peak major heap through input generation, set-up and the first
     op, read before any gate or cross-check runs, so the benchmark's own
     checking does not count. *)
  let top_heap_words = ref 0 in
  (* The loop runs until its timed regions add up to [seconds]; gates and
     the untimed parts of ops come on top. *)
  let timed_ms = ref 0. in
  (* Op 0 is a warm-up, left out of the scaled times.  The reference runs
     start after it, so the heap peak above does not include theirs. *)
  let calib = ref None in
  let stopwatch f =
    let x, t = Span.time_ms f in
    timed_ms := !timed_ms +. t;
    (x, t)
  in
  while !attempted < min_ops || !timed_ms < seconds *. 1000. do
    let op = !attempted in
    incr attempted;
    let fresh =
      if op = 1 then begin
        calib := Some (Calib.create ());
        true
      end
      else Option.fold ~none:false ~some:Calib.before_op !calib
    in
    (* Set-up again next to each reference run, so that setup_s is a
       median of scaled times like the ops'. *)
    if fresh then
      Option.iter
        (fun c ->
          let n = ref 0 and spent = ref 0. in
          while !n < setup_reps_min || !spent < setup_ms_per_ref do
            let ms = snd (set_up ()) in
            Calib.add c Setup ms;
            incr n;
            spent := !spent +. ms
          done)
        !calib;
    let answer =
      try
        if trace && op mod 2 = 1 then begin
          let g0 = (Gc.quick_stat ()).major_collections in
          let timed f = fst (stopwatch (fun () -> Span.with_op r op f)) in
          let a = p.traced { timed } r samples in
          Samples.addi samples "gc.major_collections"
            ((Gc.quick_stat ()).major_collections - g0);
          Ok a
        end
        else begin
          let ms = ref 0. in
          let a =
            p.plain
              {
                timed =
                  (fun f ->
                    let x, t = stopwatch f in
                    ms := t;
                    x);
              }
          in
          plain := !ms :: !plain;
          Option.iter (fun c -> Calib.add c Op !ms) !calib;
          if !top_heap_words = 0 then top_heap_words := (Gc.quick_stat ()).top_heap_words;
          Ok a
        end
      with e -> Error (Printexc.to_string e)
    in
    let violations =
      match answer with
      | Error e -> [ "raised " ^ e ]
      | Ok a ->
        let a = if tamper then p.tamper a else a in
        let fp = p.fingerprint a in
        let gate =
          match Hashtbl.find_opt verdicts fp with
          | Some v -> v
          | None ->
            let v = p.gate a in
            Hashtbl.replace verdicts fp v;
            v
        in
        let d = p.digest a in
        gate
        @
        match !expected with
        | None ->
          expected := Some d;
          []
        | Some e when String.equal e d -> []
        | Some e -> [ Printf.sprintf "answer digest %s, expected %s" d e ]
    in
    if violations <> [] then begin
      incr failed;
      if List.length !problems < 5 then
        problems := !problems @ [ Printf.sprintf "op %d: %s" op (String.concat "; " violations) ]
    end
  done;
  let scaled k = Option.fold ~none:[] ~some:(fun c -> Calib.finish c k) !calib in
  let op_scaled = scaled Op and setup_scaled = scaled Setup in
  problems := !problems @ p.once ();
  let metrics =
    if trace then begin
      problems := !problems @ p.extras r samples ~plain_ms:(median_or_zero !plain);
      crew_spawn r;
      Option.iter (Span.write r) spans_file;
      layer_metrics r samples ~plain:!plain
    end
    else
      [
        ("setup_s", median_or_zero setup_scaled /. 1000., "s");
        ("op_ms.ref_p50", median_or_zero op_scaled, "ms");
        ("top_heap_mb", float_of_int (!top_heap_words * (Sys.word_size / 8)) /. 1048576., "MB");
      ]
  in
  if not quiet then begin
    Printf.eprintf
      "perfbench: %d ops, %d failed; wall op_ms over %d untraced samples: min %.3f, p50 %.3f%s; \
       op_ms.ref_p50 %.3f over %d; first set-up %.4f ms, scaled set-up p50 %.4f ms over %d; \
       digest %s\n%!"
      !attempted !failed (List.length !plain)
      (List.fold_left Float.min Float.infinity !plain)
      (median_or_zero !plain)
      (match tail !plain with
      | Some (p, v) -> Printf.sprintf ", p%.0f %.3f" (100. *. p) v
      | None -> ", too few for a tail percentile")
      (median_or_zero op_scaled) (List.length op_scaled) first_setup_ms
      (median_or_zero setup_scaled) (List.length setup_scaled)
      (Option.value ~default:"-" !expected);
    List.iter (Printf.eprintf "perfbench: FAILED %s\n%!") !problems
  end;
  { correct = !problems = [] && !failed = 0; attempted = !attempted; failed = !failed; metrics }

let result_json o =
  let open Ss_numeric.Json in
  to_string
    (Obj
       [
         ("correct", Bool o.correct);
         ("attempted", Num (float_of_int o.attempted));
         ("failed", Num (float_of_int o.failed));
         ( "metrics",
           Obj
             (List.map
                (fun (name, v, unit) ->
                  let v = if Float.is_finite v then v else 0. in
                  (name, Obj [ ("value", Num v); ("unit", Str unit) ]))
                o.metrics) );
       ])

(* Each workload at reduced size with the gate and the traced run on, then
   the negative case: an answer with one segment's speed changed must be
   counted as failed. *)
let self_test () =
  let ok = ref true in
  let expect what cond =
    if not cond then begin
      ok := false;
      Printf.eprintf "self-test FAILED: %s\n%!" what
    end
  in
  let busy =
    [
      ("offline-heavy", "offline.rounds");
      ("online-stream", "engine.events");
      ("batch-mixed", "dispatch.misses");
    ]
  in
  List.iter
    (fun (name, (make, seed)) ->
      let setup = make ~size:Small ~seed in
      let run ?tamper ~trace ~min_ops () =
        measure ?tamper ~quiet:true ~setup ~seconds:0. ~trace ~min_ops ()
      in
      let untraced = run ~trace:false ~min_ops:2 () in
      expect (name ^ ": untraced ops pass the gate") (untraced.correct && untraced.failed = 0);
      expect (name ^ ": end-to-end metrics")
        (List.map (fun (n, _, _) -> n) untraced.metrics = List.map fst end_to_end
        && List.for_all (fun (_, v, _) -> v > 0.) untraced.metrics);
      let traced = run ~trace:true ~min_ops:4 () in
      expect (name ^ ": traced ops pass the gate") (traced.correct && traced.failed = 0);
      let value m =
        List.find_map (fun (n, v, _) -> if n = m then Some v else None) traced.metrics
      in
      expect (name ^ ": per-layer metrics") (List.length traced.metrics = List.length per_layer);
      expect (name ^ ": two traced ops") (value "op.samples" = Some 2.);
      expect (name ^ ": layer counter")
        (Option.fold ~none:false ~some:(fun v -> v > 0.) (value (List.assoc name busy)));
      let tampered = run ~tamper:true ~trace:true ~min_ops:4 () in
      expect (name ^ ": a changed segment speed is counted as failed")
        ((not tampered.correct) && tampered.failed = tampered.attempted))
    Workloads.all;
  if !ok then print_endline "perfbench self-test: ok" else exit 1

let () =
  let workload = ref "" and seed = ref None and seconds = ref 22. and trace = ref 0 in
  let self = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME offline-heavy | online-stream | batch-mixed");
      ("--seed", Arg.Int (fun s -> seed := Some s), "N input seed (default: the workload's)");
      ("--seconds", Arg.Set_float seconds, "S timed seconds of the op loop (default 22)");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run (default 0)");
      ("--self-test", Arg.Set self, " run the reduced-size self-test");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  if !self then self_test ()
  else
    match List.assoc_opt !workload Workloads.all with
    | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
    | Some (make, default_seed) ->
      let seed = Option.value ~default:default_seed !seed in
      let trace = !trace = 1 in
      let spans_file =
        if trace then begin
          if not (Sys.file_exists "perfbench/out") then Sys.mkdir "perfbench/out" 0o755;
          Some (Printf.sprintf "perfbench/out/%s-seed%d.spans.jsonl" !workload seed)
        end
        else None
      in
      let o =
        measure ?spans_file ~setup:(make ~size:Full ~seed) ~seconds:!seconds ~trace
          ~min_ops:(if trace then 4 else 3)
          ()
      in
      print_endline (result_json o)
