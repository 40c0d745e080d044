(* OA(m) replayed the plain way, as an agreement oracle for Oa.run_detailed:
   a fresh offline solve at every arrival, a full materialization of its
   plan, clipped to the window followed until the next arrival.

   Oa itself replans on one persistent session and materializes only the
   followed slice.  This replay checks that slicing directly: at every
   replan it also computes [Offline.slice_of_run] over the same window and
   counts the replans where it differs from the clipped full schedule —
   segment for segment and in order. *)

module Job = Ss_model.Job
module Schedule = Ss_model.Schedule
module Engine = Ss_online.Engine
module Oa = Ss_online.Oa
module O = Ss_core.Offline

(* Oa's default completion tolerance. *)
let tol = 1e-9

(* Returns the schedule, the replanning history (as Oa.run_detailed
   records it) and the number of replans whose slice disagreed with the
   clipped materialization. *)
let run_detailed ?streaming (inst : Job.instance) =
  let plans = ref [] and mismatches = ref 0 in
  let planner ~now ~upto (live : Engine.live array) =
    let jobs =
      Array.map
        (fun (l : Engine.live) -> { O.F.release = now; deadline = l.deadline; work = l.remaining })
        live
    in
    let ids = Array.map (fun (l : Engine.live) -> l.id) live in
    let run = O.F.solve ~machines:inst.machines jobs in
    let job_speeds =
      List.concat_map
        (fun (ph : O.F.phase) -> List.map (fun local -> (ids.(local), ph.speed)) ph.members)
        run.schedule_phases
      |> List.sort (fun (i1, s1) (i2, s2) ->
             match Int.compare i1 i2 with 0 -> Float.compare s1 s2 | c -> c)
    in
    plans := { Oa.at = now; upto; job_speeds } :: !plans;
    let full = Schedule.segments (O.schedule_of_run ~machines:inst.machines run) in
    let clipped = Engine.clip_segments ~lo:now ~hi:upto (Array.to_list full) in
    if O.slice_of_run ~machines:inst.machines run ~lo:now ~hi:upto <> clipped then
      incr mismatches;
    List.map (fun (s : Schedule.segment) -> { s with job = ids.(s.job) }) clipped
  in
  let schedule = Engine.replan_fold ?streaming ~tol ~plan:planner inst in
  (schedule, List.rev !plans, !mismatches)
