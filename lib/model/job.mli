(** Jobs and problem instances of the speed-scaling scheduling model.

    A job must receive [work] units of processing inside
    [[release, deadline)); an instance is a job array plus the number of
    parallel processors [machines].  Job ids are array positions. *)

type t = {
  release : float;
  deadline : float;
  work : float;
}

type instance = {
  jobs : t array;
  machines : int;
}

val make : release:float -> deadline:float -> work:float -> t

val density : t -> float
(** [work / (deadline - release)] — the δ_i of the paper. *)

val span : t -> float

type error =
  | Empty_instance
  | No_machines
  | Bad_window of int
  | Bad_work of int
  | Not_finite of int
  | Bad_density of int
      (** [density] is not a positive normal float: it underflowed to a
          subnormal or zero, or overflowed to infinity *)
  | Total_overflow of int
      (** the running total of work or of densities first becomes
          non-finite at this job *)

val validate : instance -> error list
(** Every error of the instance, in job order.  A valid instance has
    finite fields, [release < deadline], [work > 0], a positive normal
    density per job, and finite total work and total density — the
    numeric domain the solvers are defined on. *)

val is_valid : instance -> bool

val instance : machines:int -> t list -> instance
(** Validating constructor. @raise Invalid_argument on the first error. *)

val num_jobs : instance -> int

val horizon : instance -> float * float
(** Earliest release and latest deadline. *)

val total_work : instance -> float

val integral_times : instance -> bool
(** All releases/deadlines integral — precondition of AVR(m). *)

val load_factor : instance -> float
(** Total density divided by [machines]; descriptive only. *)

val scale_work : float -> t -> t
val scale_time : float -> t -> t
val shift_time : float -> t -> t
val pp : Format.formatter -> t -> unit
val pp_instance : Format.formatter -> instance -> unit
