(** Single-processor BKP (Bansal–Kimbrel–Pruhs) — the algorithm whose
    multi-processor extension the paper's conclusion leaves open.
    Discretized simulation; extension material, not part of the headline
    experiments. *)

type outcome = {
  schedule : Ss_model.Schedule.t;
  max_residue : float;
      (** largest unfinished work fraction at a deadline caused by
          discretization; shrinks as [steps_per_event] grows *)
}

val run :
  ?stats:Engine.counters ->
  ?steps_per_event:int ->
  Ss_model.Job.instance ->
  outcome
(** Interns the distinct deadlines once, so each speed sample
    binary-searches its candidate suffix instead of re-sorting the job
    array, and executes the speed profile with {!Edf.run}.
    @raise Invalid_argument unless [machines = 1]. *)

val energy : ?steps_per_event:int -> Ss_model.Power.t -> Ss_model.Job.instance -> float

val competitive_bound : alpha:float -> float
(** [2 (α/(α−1))^α e^α]. *)
