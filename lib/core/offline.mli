(** The paper's combinatorial offline algorithm (Section 2, Fig. 2).

    Computes an energy-optimal multi-processor schedule with migration for
    any convex non-decreasing power function, in polynomial time, using
    repeated maximum-flow computations — no linear programming.

    The core is a functor over an ordered field; {!solve} runs it on floats
    and materializes a {!Ss_model.Schedule.t}, {!solve_exact} replays it on
    exact rationals for certification. *)

module MakeWith
    (F : Ss_numeric.Field.S)
    (_ : module type of Ss_flow.Maxflow.Make (F)) : sig
  module Flow : module type of Ss_flow.Maxflow.Make (F)
  (** The flow substrate this instantiation runs on; exposed so tests can
      audit the persistent network via [on_phase]. *)

  type job = { release : F.t; deadline : F.t; work : F.t }

  type phase = {
    members : int list;  (** job ids of this equal-speed class [J_i] *)
    speed : F.t;  (** the class speed [s_i]; strictly decreasing over phases *)
    procs : int array;  (** [m_ij] reserved processors per grid interval *)
    alloc : (int * int * F.t) list;
        (** [(job, interval, time)] execution times [t_kj] from the
            accepting flow *)
  }

  type stats = {
    phases : int;
    rounds : int;  (** max-flow computations performed *)
    resumes : int;
        (** failed rounds answered by an in-place rewind of the dense
            network instead of a rebuild; 0 on compressed solves and in
            {!Reference} runs *)
    removals : int;
        (** certified job removals: Lemma 4 victims and the rest of their
            residual closure (see {!solve}) *)
    grouped : int;
        (** failed rounds that removed more than one certified victim at
            once (always 0 in {!Reference} runs) *)
    net_edges : int;
        (** peak forward-edge count of the round network (max across
            components) *)
    net_pushes : int;
        (** total edge-flow updates across the solve's max-flow work *)
    net_bfs_waves : int;
        (** total BFS passes (Dinic level builds / Edmonds–Karp path
            searches) across the solve's max-flow work *)
    phase_resumes : int;
        (** phase boundaries answered by draining and rewinding the
            persistent network instead of a rebuild; 0 on single-phase
            solves and in {!Reference} runs *)
    phase_drain_edges : int;
        (** flow-carrying forward edges drained across those boundaries —
            the accepted jobs' flow support, counted before each drain *)
    phase_edges : int array;
        (** per phase, in phase order: the peak forward-edge count of its
            round networks (concatenated in component order);
            {!stats.net_edges} is the maximum entry *)
    phase_bfs_waves : int array;
        (** per phase, in phase order: BFS passes spent in its rounds *)
  }

  type run = {
    breakpoints : F.t array;
    schedule_phases : phase list;
    stats : stats;
  }

  exception Stranded_job of int

  val components : job array -> int array list
  (** Split the jobs at zero-coverage grid points — points crossed by no
      job window — into independent sub-instances (the Fig. 1 network has
      no edge across such a cut, so Lemmas 1–4 apply per component).
      Components are returned in time order, each an ascending array of
      indices into the input. *)

  val compress_threshold : int
  (** Dense edge-table size ([n * k], per component) at or above which a
      solve runs on the compressed substrate. *)

  val solve :
    ?compress:bool ->
    ?on_phase:(int -> F.t -> Flow.t -> unit) ->
    machines:int ->
    job array ->
    run
  (** The round loop (Fig. 2), one for every solve.  A phase conjectures
      that all remaining jobs form the next class; a failed round removes
      {e every} job its maximum flow certifies at once: the candidates
      that reach an unsaturated interval in the flow's residual graph
      ({!Residual_closure}), which include every Lemma 4 victim.  The
      accepted class is the unique fixed point of certified removals, so
      the phases, speeds, reservations and energy equal {!Reference}'s;
      only the round and removal counters differ.  On the dense substrate
      one Fig. 1 network serves the whole solve: failed rounds and phase
      boundaries rewind it in place (dead edges keep capacity 0) and rerun
      Dinic from zero, so the accepted flows, and with them the [t_kj],
      are bit-identical to {!Reference}'s rebuilt networks.

      Every solve first splits the instance at zero-coverage grid points
      (see {!components}), solves the independent components in time order
      on one workspace and merges the phase lists back onto the global
      grid in decreasing-speed order.  The merged run is bit-identical to
      {!Reference}'s whole-instance run — same breakpoints, speeds,
      members, reservations and allocations — except in the measure-zero
      case of a bitwise speed tie across components (the merge then
      coalesces the tied classes, whose mathematically equal merged speed
      a whole-instance solve would re-derive with a differently-ordered
      float sum).

      The substrate is picked per component by size: the compressed one
      when [n * k >= compress_threshold], the dense Fig. 1 network below.
      [compress] overrides that choice; it is the seam the
      dense-vs-compressed agreement tests and benchmark rows use, and no
      production caller sets it.  The compressed substrate builds no
      network at all: an exact oracle — an
      earliest-deadline sweep finished by blocking flows on the implicit
      dense residual — computes a maximum flow of the dense network
      without materializing its O(n k) edges, and answers every accept
      test, every Lemma 4 certificate and the accepted [t_kj].  Phase
      partitions, speeds, reservations, busy times and energies are
      bit-identical to the dense path; the [t_kj] split among a phase's
      equal-speed members may differ (the oracle's and Dinic's flows are
      different maximum flows of the same accepting network — every
      member's total is its demand either way).  The flow counters
      ([net_edges], [net_pushes], [net_bfs_waves], [phase_resumes],
      [phase_drain_edges] and the [phase_*] arrays' entries) read 0 on
      compressed solves.  See DESIGN.md, "Compressed solves: the sweep
      oracle".

      [on_phase phase_idx speed g] fires once per phase (1-based index,
      the phase's initial conjectured speed) right after the phase's
      starting flow is installed — after the drain and rewind at a phase
      boundary — a test hook for auditing the persistent network's flow
      (an empty network on compressed solves).
      @raise Invalid_argument on malformed jobs, including (on floats) a
      work the field reads as zero, e.g. [1e-10].
      @raise Stranded_job when a remaining job finds no reservable
      processor time in its window.  On an exact field that never happens
      to valid jobs; on floats it does below the tolerance floor of
      {!Ss_numeric.Field.float_rel_tolerance}, e.g. for a window of width
      [1e-10]. *)

  (** The paper-literal reference solver: every round rebuilds the dense
      Fig. 1 network for the current candidates, computes a maximum flow
      from zero and removes a single Lemma 4 victim.  The agreement tests
      hold {!solve} to it; experiments A4 and A5 run its ablation knobs.
      No decomposition, no compression, no reuse. *)
  module Reference : sig
    type flow_algorithm = Dinic | Edmonds_karp | Push_relabel
    (** Which max-flow routine answers the per-round feasibility question
        (identical answers; ablation experiment A4 compares speed). *)

    type victim_rule = Least_flow | First_found
    (** Which provably-removable job a failed round discards; Lemma 4
        makes any unsaturated choice sound (ablation experiment A5). *)

    val solve :
      ?flow_algorithm:flow_algorithm ->
      ?victim_rule:victim_rule ->
      machines:int ->
      job array ->
      run
    (** Defaults: [Dinic], [Least_flow].  With [Dinic], the run equals a
        dense {!solve}'s in every phase, speed, reservation and allocation,
        bit for bit (barring the cross-component speed tie noted there).
        @raise Invalid_argument on malformed jobs. *)
  end

  (** Cross-arrival solver sessions (Section 3.1, Lemmas 6–9).

      A session owns one persistent workspace — flow arena, breakpoint-grid
      scratch, reservation arrays and sweep-oracle state — reused across
      successive solves, their components and both substrates: the natural
      shape for OA(m) replanning, which re-solves a slightly different
      instance at every arrival.  Session solves run {!solve} and return
      identical runs.

      The Lemma 6–9 monotonicity across OA replans is tracked as a ledger:
      tag jobs with stable [keys] and the session counts how many carried
      jobs kept a non-decreasing planned speed (Lemma 7 predicts all of
      them at arrival-driven replans). *)
  module Session : sig
    type t

    type stats = {
      solves : int;
      rounds : int;  (** cumulative max-flow computations *)
      resumes : int;
          (** cumulative in-place arena rewinds (failed rounds answered
              without rebuilding the network topology) *)
      removals : int;  (** cumulative certified removals *)
      grouped_rounds : int;  (** failed rounds that removed > 1 victim *)
      carried_jobs : int;  (** keys also planned by an earlier solve *)
      monotone_carried : int;
          (** carried keys whose planned speed did not drop (within the
              field's approximate order) *)
      arena_grows : int;  (** solves that had to grow the workspace *)
    }

    val create : machines:int -> t
    (** @raise Invalid_argument if [machines <= 0]. *)

    val machines : t -> int

    val solve : ?keys:int array -> t -> job array -> run
    (** Solve one instance on the session's machines, reusing the
        workspace.  [keys.(i)] is a caller-stable identity for job [i]
        (e.g. the original job id across OA replans), used only for the
        monotonicity ledger.
        @raise Invalid_argument if [keys] disagrees with [jobs] in length,
        or on malformed jobs. *)

    val stats : t -> stats
  end

  val phase_busy_time : run -> phase -> F.t
  val speeds : run -> F.t list

  type segment = { seg_job : int; seg_proc : int; seg_t0 : F.t; seg_t1 : F.t; seg_speed : F.t }

  val schedule_segments : run -> segment list
  (** Field-generic Lemma 2 wrap-packing: on the rational instance the
      materialized schedule is exact.  Segments come grouped by grid
      interval, last interval first. *)

  type violation =
    | Wrong_work of int
    | Outside_window of int
    | Processor_overlap of int
    | Self_parallel of int

  val check_segments : machines:int -> job array -> segment list -> violation list
  (** Zero-tolerance feasibility audit of materialized segments (exact
      when [F] is the rational field); empty = feasible. *)
end

module Make (F : Ss_numeric.Field.S) :
  module type of MakeWith (F) (Ss_flow.Maxflow.Make (F))
(** The default pairing: field [F] with the generic flow substrate. *)

module F : module type of MakeWith (Ss_numeric.Field.Float) (Ss_flow.Maxflow.Float)
(** The float instance runs on {!Ss_flow.Maxflow.Float}, whose hot path is
    float-monomorphic (unboxed array access) but bit-identical to the
    generic substrate. *)

module Exact : module type of Make (Ss_numeric.Rational.Field)

type info = {
  phases : int;
  rounds : int;
  resumes : int;
  removals : int;
  phase_resumes : int;
      (** dense phase boundaries answered by draining and rewinding the
          persistent network *)
  speeds : float array;
}

val component_count : Ss_model.Job.instance -> int
(** Number of independent sub-instances every solve splits the instance
    into (see {!MakeWith.components}). *)

val solve : Ss_model.Job.instance -> Ss_model.Schedule.t * info
(** Full pipeline: run the algorithm and materialize the schedule via the
    Lemma 2 wrap-packing.  The result is feasible and optimal for every
    convex non-decreasing power function.
    @raise Invalid_argument on an instance {!Ss_model.Job.validate}
    rejects. *)

val optimal_schedule : Ss_model.Job.instance -> Ss_model.Schedule.t
val optimal_energy : Ss_model.Power.t -> Ss_model.Job.instance -> float

val run : Ss_model.Job.instance -> F.run
(** The raw phase structure (no schedule materialization). *)

val energy_of_run : Ss_model.Power.t -> F.run -> float
(** Energy from the phase structure alone; equals the schedule energy. *)

val schedule_of_run : machines:int -> F.run -> Ss_model.Schedule.t

val slice_of_run :
  machines:int -> F.run -> lo:float -> hi:float -> Ss_model.Schedule.segment list
(** Materialize only the part of a run overlapping [\[lo, hi)]: wrap-packs
    just the grid intervals meeting the window and clips the result.
    Equals clipping the full {!schedule_of_run} segments to the window,
    in the same (proc, t0) order, but skips packing everything outside —
    the hot path of online replanning, where each plan is only followed
    until the next arrival. *)

val solve_exact : Ss_model.Job.instance -> Exact.run
(** Exact-rational replay of the entire algorithm (floats embed exactly). *)
