(* Correctness gate, run outside the timed region after every op.  A
   non-empty result marks the op failed; it never aborts the workload. *)

module Schedule = Ss_model.Schedule
module Offline = Ss_core.Offline

let cube = Ss_model.Power.cube

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let schedule (inst : Ss_model.Job.instance) sched =
  match Schedule.check inst sched with
  | [] -> []
  | v :: rest ->
    [
      Format.asprintf "infeasible schedule: %a (%d more)" Schedule.pp_infeasibility v
        (List.length rest);
    ]

let strictly_decreasing speeds =
  let ok = ref true in
  for i = 1 to Array.length speeds - 1 do
    if not (speeds.(i) < speeds.(i - 1)) then ok := false
  done;
  if !ok then [] else [ "phase speeds are not strictly decreasing" ]

(* An offline answer: strictly decreasing phase speeds, a feasible
   schedule, and a schedule energy that agrees with the phase structure's
   [energy_of_run] at alpha = 3 (relative 1e-9; bitwise on the default
   instance). *)
let offline inst ~speeds ~run_energy sched =
  let e = Schedule.energy cube sched in
  strictly_decreasing speeds @ schedule inst sched
  @
  if Float.abs (e -. run_energy) <= 1e-9 *. Float.max (Float.abs e) (Float.abs run_energy)
  then []
  else [ Printf.sprintf "schedule energy %h disagrees with energy_of_run %h" e run_energy ]

let run_speeds (run : Offline.F.run) =
  Array.of_list (List.map (fun (p : Offline.F.phase) -> p.speed) run.schedule_phases)

(* A batch [Run] answer materializes to a feasible schedule. *)
let run inst (r : Offline.F.run) =
  strictly_decreasing (run_speeds r)
  @ schedule inst (Offline.schedule_of_run ~machines:inst.Ss_model.Job.machines r)

(* The negative case of the self-test: the segment doing the most work
   runs 1.5x faster, so its job receives the wrong amount of work. *)
let tamper sched =
  let segs = Schedule.segments sched in
  let work (s : Schedule.segment) = s.speed *. (s.t1 -. s.t0) in
  let k = ref 0 in
  Array.iteri (fun i s -> if work s > work segs.(!k) then k := i) segs;
  Schedule.make ~machines:(Schedule.machines sched)
    (List.mapi
       (fun i (s : Schedule.segment) -> if i = !k then { s with speed = 1.5 *. s.speed } else s)
       (Array.to_list segs))

(* Exact-bits fingerprints of whole answers.  Two answers with the same
   fingerprint are the same answer, so the gate's verdict on one holds for
   the other; the op loop checks each distinct answer once. *)
let add_int b i = Buffer.add_int64_le b (Int64.of_int i)
let add_float b x = Buffer.add_int64_le b (Int64.bits_of_float x)

let add_schedule b sched =
  Array.iter
    (fun (s : Schedule.segment) ->
      add_int b s.job;
      add_int b s.proc;
      add_float b s.t0;
      add_float b s.t1;
      add_float b s.speed)
    (Schedule.segments sched)

let add_run b (r : Offline.F.run) =
  Array.iter (add_float b) r.breakpoints;
  List.iter
    (fun (p : Offline.F.phase) ->
      List.iter (add_int b) p.members;
      add_float b p.speed;
      Array.iter (add_int b) p.procs;
      List.iter
        (fun (j, i, t) ->
          add_int b j;
          add_int b i;
          add_float b t)
        p.alloc)
    r.schedule_phases

let fingerprint add x =
  let b = Buffer.create 4096 in
  add b x;
  Digest.string (Buffer.contents b)

(* Hex digest of the exact bits of a float sequence. *)
let digest floats =
  let buf = Buffer.create 256 in
  List.iter (fun x -> Printf.bprintf buf "%Lx;" (Int64.bits_of_float x)) floats;
  Digest.to_hex (Digest.string (Buffer.contents buf))
