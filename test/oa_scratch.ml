(* OA(m) replayed the plain way, as an agreement oracle for Oa.run_detailed:
   a whole-array rescan at every distinct release time, a fresh offline
   solve of the live jobs on the dense Fig. 1 network, a full
   materialization of its plan, clipped to the window followed until the
   next arrival.

   Oa itself walks the event calendar with an incremental live set, replans
   on one persistent session and materializes only the followed slice.
   This replay shares none of that: its loop rescans every job per arrival
   and accumulates slices in a plain list.  At every replan it also
   computes [Offline.slice_of_run] over the same window and counts the
   replans where it differs from the clipped full schedule — segment for
   segment and in order. *)

module Job = Ss_model.Job
module Schedule = Ss_model.Schedule
module Engine = Ss_online.Engine
module Oa = Ss_online.Oa
module O = Ss_core.Offline

(* Oa's default completion tolerance. *)
let tol = 1e-9

(* Clip segments to the window [lo, hi); drops what lies outside. *)
let clip_segments ~lo ~hi segments =
  List.filter_map
    (fun (s : Schedule.segment) ->
      let t0 = Float.max s.t0 lo and t1 = Float.min s.t1 hi in
      if t1 > t0 then Some { s with t0; t1 } else None)
    segments

(* The replan-at-arrivals loop by whole-array rescans: at each distinct
   release time, every released job with work left is live (ascending
   ids); the planner's slice is charged and prepended as one block. *)
let replan_fold ~plan (inst : Job.instance) =
  let n = Array.length inst.jobs in
  let done_work = Array.make n 0. in
  let events =
    Array.of_list
      (List.sort_uniq Float.compare
         (Array.to_list (Array.map (fun (j : Job.t) -> j.release) inst.jobs)))
  in
  let horizon_end = snd (Job.horizon inst) in
  let slices = ref [] in
  Array.iteri
    (fun e now ->
      let upto = if e + 1 < Array.length events then events.(e + 1) else horizon_end in
      let live = ref [] in
      for i = n - 1 downto 0 do
        let j = inst.jobs.(i) in
        if j.release <= now && not (Engine.finished ~tol ~work:j.work ~done_:done_work.(i))
        then begin
          if j.deadline <= now then failwith "Oa_scratch: job past deadline";
          live := { Engine.id = i; remaining = j.work -. done_work.(i); deadline = j.deadline }
                  :: !live
        end
      done;
      if !live <> [] then begin
        let slice = plan ~now ~upto (Array.of_list !live) in
        Engine.charge_work done_work slice;
        slices := slice :: !slices
      end)
    events;
  Schedule.make ~machines:inst.machines (List.concat !slices)

(* Returns the schedule, the replanning history (as Oa.run_detailed
   records it) and the number of replans whose slice disagreed with the
   clipped materialization.  [replan_fold] swaps in another simulation
   loop (Engine's calendar loop) under the same fresh-solver planner. *)
let run_detailed ?(replan_fold = replan_fold) (inst : Job.instance) =
  let plans = ref [] and mismatches = ref 0 in
  let planner ~now ~upto (live : Engine.live array) =
    let jobs =
      Array.map
        (fun (l : Engine.live) -> { O.F.release = now; deadline = l.deadline; work = l.remaining })
        live
    in
    let ids = Array.map (fun (l : Engine.live) -> l.id) live in
    let run = O.F.solve ~compress:false ~machines:inst.machines jobs in
    let job_speeds =
      List.concat_map
        (fun (ph : O.F.phase) -> List.map (fun local -> (ids.(local), ph.speed)) ph.members)
        run.schedule_phases
      |> List.sort (fun (i1, s1) (i2, s2) ->
             match Int.compare i1 i2 with 0 -> Float.compare s1 s2 | c -> c)
    in
    plans := { Oa.at = now; upto; job_speeds } :: !plans;
    let full = Schedule.segments (O.schedule_of_run ~machines:inst.machines run) in
    let clipped = clip_segments ~lo:now ~hi:upto (Array.to_list full) in
    if O.slice_of_run ~machines:inst.machines run ~lo:now ~hi:upto <> clipped then
      incr mismatches;
    List.map (fun (s : Schedule.segment) -> { s with job = ids.(s.job) }) clipped
  in
  let schedule = replan_fold ~plan:planner inst in
  (schedule, List.rev !plans, !mismatches)
