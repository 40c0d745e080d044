(* The paper's main contribution (Section 2, Fig. 2): a combinatorial
   polynomial-time algorithm for energy-optimal multi-processor schedules
   with migration, built on repeated maximum-flow computations.

   The algorithm constructs the optimal schedule speed level by speed
   level.  Phase i conjectures that all remaining jobs form the next
   equal-speed class J_i, reserves m_j = min(n_j, m - used_j) processors
   per grid interval (Lemma 3; note the paper's Fig. 2 line 6 omits the
   "m -" by an obvious typo), sets the uniform speed s = W / P, and asks a
   max-flow feasibility question on the network of Fig. 1:

       source --(w_k / s)--> job k --(|I_j|)--> interval j --(m_j |I_j|)--> sink.

   If the flow saturates the source (equivalently the sink, both sides
   total P), the conjecture is correct and the flow values on job->interval
   edges are the execution times t_kj.  Otherwise some sink edge is
   unsaturated; any job with a non-full edge into such an interval provably
   does not belong to J_i (Lemma 4), nor does any job that reaches such an
   interval in the residual graph (see Residual_closure); all of them are
   removed for the next round.

   The module is a functor over an ordered field: instantiated at floats
   for speed and at exact rationals to certify the float run. *)

(* The solver is functorized over the field AND the flow substrate: the
   float instance below plugs in [Maxflow.Float], whose hot path is
   monomorphized (unboxed float arrays), while [Make] keeps the generic
   pairing for exact-rational certification. *)
module MakeWith
    (F : Ss_numeric.Field.S)
    (Flow_impl : module type of Ss_flow.Maxflow.Make (F)) =
struct
  module Flow = Flow_impl

  type job = { release : F.t; deadline : F.t; work : F.t }

  type phase = {
    members : int list;             (* job ids of this speed class *)
    speed : F.t;
    procs : int array;              (* m_ij, indexed by grid interval *)
    alloc : (int * int * F.t) list; (* (job, interval, execution time) *)
  }

  type stats = {
    phases : int;
    rounds : int;                   (* max-flow computations *)
    resumes : int;                  (* failed rounds answered by an in-place rewind *)
    removals : int;
    grouped : int;                  (* failed rounds that removed > 1 victim *)
    net_edges : int;                (* peak forward-edge count of the round network *)
    net_pushes : int;               (* edge-flow updates across the whole solve *)
    net_bfs_waves : int;            (* max-flow BFS passes across the whole solve *)
    phase_resumes : int;            (* phase boundaries answered by drain and rewind *)
    phase_drain_edges : int;        (* flow-carrying edges drained at those boundaries *)
    phase_edges : int array;        (* per phase: peak forward-edge count of its network *)
    phase_bfs_waves : int array;    (* per phase: BFS passes spent in its rounds *)
  }

  type run = {
    breakpoints : F.t array;        (* sorted grid times, length k+1 *)
    schedule_phases : phase list;   (* in decreasing speed order *)
    stats : stats;
  }

  exception Stranded_job of int
  (* Raised when a remaining job has no reservable processor time anywhere
     in its window.  Cannot happen for valid instances in exact arithmetic
     (speeds are unbounded); on floats it does when a window is too narrow
     for the field's absolute tolerance floor. *)

  let sort_uniq_times jobs =
    let all =
      Array.to_list jobs
      |> List.concat_map (fun j -> [ j.release; j.deadline ])
      |> List.sort_uniq F.compare
    in
    Array.of_list all

  (* Position of grid time [t] in the sorted [breakpoints]. *)
  let index_of breakpoints t =
    let lo = ref 0 and hi = ref (Array.length breakpoints - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if F.compare breakpoints.(mid) t < 0 then lo := mid + 1 else hi := mid
    done;
    !lo

  let check_jobs ~machines (jobs : job array) =
    if machines <= 0 then invalid_arg "Offline.solve: machines <= 0";
    Array.iter
      (fun j ->
        if F.compare j.release j.deadline >= 0 then
          invalid_arg "Offline.solve: release >= deadline";
        if F.sign j.work <= 0 then invalid_arg "Offline.solve: work <= 0")
      jobs

  (* --- reusable solver workspace ---------------------------------------
     Everything a solve allocates per call — the Lemma 3 reservation state,
     the vertex/edge id tables and the flow arena — hoisted into a grow-only
     workspace so cross-arrival sessions reuse one backing store across
     successive solves.  All arrays are addressed on prefixes [0..n-1] /
     [0..k-1] and re-initialized by each solve, so reuse never leaks state
     between solves (and a fresh workspace per call reproduces the
     non-session behaviour exactly). *)
  type workspace = {
    g : Flow.t;
    mutable nslots : int;           (* job-indexed array capacity *)
    mutable kslots : int;           (* interval-indexed array capacity *)
    mutable widths : F.t array;
    mutable first_ivl : int array;
    mutable last_ivl : int array;
    mutable used : int array;
    mutable remaining : bool array;
    mutable candidate : bool array;
    mutable nj : int array;
    mutable procs : int array;
    mutable job_vertex : int array;
    mutable ivl_vertex : int array;
    mutable source_edge : int array;
    mutable sink_edge : int array;
    mutable job_edge : int array;   (* flat [i * k + j] edge ids, -1 = absent *)
    closure : Residual_closure.t;   (* certification marks and worklist *)
    mutable grows : int;            (* solves that had to grow the arena *)
    (* The EDF-sweep oracle's scratch arrays (the [compress] path); the
       dense path never reads them. *)
    mutable sweep_order : int array;(* jobs sorted by (first_ivl, index) *)
    mutable sweep_bucket : int array;(* counting-sort scratch, k+1 *)
    mutable sweep_rem : F.t array;  (* per job: unrouted demand *)
    mutable sweep_sink : F.t array; (* per interval: routed time *)
    mutable sweep_flow : F.t array; (* flat [i * k + j] sweep allocations *)
    mutable sweep_touch : int array;(* flat indices written by the last sweep *)
    mutable sweep_touched : int;    (* live prefix of sweep_touch *)
    mutable sweep_heap : int array; (* active-job min-heap on (deadline, id) *)
    mutable sweep_tmp : int array;  (* jobs to re-push after an interval *)
    mutable sup_head : int array;   (* per interval: head of supporter list, -1 *)
    mutable sup_next : int array;   (* next links over sweep_touch entries *)
    mutable aug_parent : int array; (* BFS tree over n job + k interval nodes *)
    mutable aug_visited : bool array;
    mutable aug_queue : int array;
    mutable aug_next : int array;   (* jump pointers: next unvisited interval *)
  }

  let make_workspace () =
    {
      g = Flow.create ~n:2;
      nslots = 0;
      kslots = 0;
      widths = [||];
      first_ivl = [||];
      last_ivl = [||];
      used = [||];
      remaining = [||];
      candidate = [||];
      nj = [||];
      procs = [||];
      job_vertex = [||];
      ivl_vertex = [||];
      source_edge = [||];
      sink_edge = [||];
      job_edge = [||];
      closure = Residual_closure.create ();
      grows = 0;
      sweep_order = [||];
      sweep_bucket = [||];
      sweep_rem = [||];
      sweep_sink = [||];
      sweep_flow = [||];
      sweep_touch = [||];
      sweep_touched = 0;
      sweep_heap = [||];
      sweep_tmp = [||];
      sup_head = [||];
      sup_next = [||];
      aug_parent = [||];
      aug_visited = [||];
      aug_queue = [||];
      aug_next = [||];
    }

  (* Grow (never shrink) the workspace to fit an [n]-job, [k]-interval
     solve, pre-sizing the flow arena for the worst-case Fig. 1 network so
     the round loop triggers no allocation.  Compressed solves skip the
     two O(n k) dense tables (the job-edge ids and the dense arena
     reservation): they build no network, and the sweep oracle's state is
     sized by [fit_sweep] instead. *)
  let ws_fit ws ~n ~k ~dense =
    let grew = ref false in
    if n > ws.nslots then begin
      let n' = max n (2 * ws.nslots) in
      ws.first_ivl <- Array.make n' 0;
      ws.last_ivl <- Array.make n' 0;
      ws.remaining <- Array.make n' false;
      ws.candidate <- Array.make n' false;
      ws.job_vertex <- Array.make n' (-1);
      ws.source_edge <- Array.make n' (-1);
      ws.nslots <- n';
      grew := true
    end;
    if k > ws.kslots then begin
      let k' = max k (2 * ws.kslots) in
      ws.widths <- Array.make k' F.zero;
      ws.used <- Array.make k' 0;
      ws.nj <- Array.make k' 0;
      ws.procs <- Array.make k' 0;
      ws.ivl_vertex <- Array.make k' (-1);
      ws.sink_edge <- Array.make k' (-1);
      ws.kslots <- k';
      grew := true
    end;
    if dense then begin
      if n * k > Array.length ws.job_edge then begin
        ws.job_edge <- Array.make (max (n * k) (2 * Array.length ws.job_edge)) (-1);
        grew := true
      end;
      if Flow.reserve ws.g ~vertices:(n + k + 2) ~edges:(n + k + (n * k)) then
        grew := true
    end;
    if !grew then ws.grows <- ws.grows + 1

  (* At or above this dense edge-table size (n * k, per component) a solve
     runs on the compressed substrate; below it the dense Fig. 1 network
     is faster.  Only [solve]'s [compress] seam overrides the choice. *)
  let compress_threshold = 20_000

  (* The round loop.

     Every solve runs one loop.  A phase conjectures that all remaining
     jobs form the next class and takes a maximum flow of the Fig. 1
     network.  A failed round removes *every* job that flow certifies —
     every candidate that reaches an unsaturated interval in the flow's
     residual graph, Lemma 4's victims included (soundness: see
     Residual_closure) — and tries again.  Each removal is sound on its
     own, and the accepted class is the unique fixed point of certified
     removals: grouping them changes the round count, never the phase
     partition, speeds or reservations.

     Dense substrate: one network serves the whole solve.  It is built
     for the first phase; after that, a failed round and a phase boundary
     alike are answered by an in-place rewind ([rewind]): refresh every
     source capacity (w/s for candidates, 0 otherwise) and sink capacity
     (m_ij |I_j|), reset all flows and rerun Dinic from zero.  A
     zero-capacity edge has zero residual both ways, so no traversal ever
     takes it: BFS levels, the DFS augmenting order and every edge flow
     are bit-for-bit those of a network rebuilt for the current
     candidates, which is what [Reference] does.  Reservations only
     shrink (n_j drops within a phase; used_j grows across phases), so
     the first phase's topology contains every later network.  The
     accepted flow is therefore canonical, and its t_kj are bit-identical
     to the reference's.

     Compressed substrate (from [compress_threshold] up): no network at
     all.  The sweep oracle below computes a maximum flow of the dense
     network — value plus sparse allocation — without materializing its
     O(n k) edges, and answers every accept test, every Lemma 4
     certificate and the accepted t_kj.
     Partitions, speeds, procs, busy times and energies are bit-identical
     to the dense path; the split of t_kj among equal-speed members may
     differ (both are maximum flows of the same accepting network).  The
     flow counters ([net_*], [phase_*]) read 0 on compressed solves. *)

  (* Validate, lay out the breakpoint grid and fit the workspace.  Every
     release and deadline is a breakpoint, so job i is active on the
     contiguous interval range [first_ivl.(i), last_ivl.(i)]. *)
  let prepare ?compress ~ws ~machines (jobs : job array) =
    check_jobs ~machines jobs;
    let n = Array.length jobs in
    let breakpoints = sort_uniq_times jobs in
    let k = Array.length breakpoints - 1 in
    let use_compress =
      n > 0 && k > 0
      && (match compress with Some b -> b | None -> n * k >= compress_threshold)
    in
    ws_fit ws ~n ~k ~dense:(not use_compress);
    for j = 0 to k - 1 do
      ws.widths.(j) <- F.sub breakpoints.(j + 1) breakpoints.(j)
    done;
    for i = 0 to n - 1 do
      ws.first_ivl.(i) <- index_of breakpoints jobs.(i).release;
      ws.last_ivl.(i) <- index_of breakpoints jobs.(i).deadline - 1
    done;
    (breakpoints, use_compress)

  (* Open a phase: every remaining job is a candidate, with the Lemma 3
     reservations m_ij = min(n_j, m - used_j). *)
  let open_phase ws ~machines ~n ~k =
    Array.blit ws.remaining 0 ws.candidate 0 n;
    Array.fill ws.nj 0 k 0;
    for i = 0 to n - 1 do
      if ws.candidate.(i) then
        for j = ws.first_ivl.(i) to ws.last_ivl.(i) do
          ws.nj.(j) <- ws.nj.(j) + 1
        done
    done;
    for j = 0 to k - 1 do
      ws.procs.(j) <- min ws.nj.(j) (machines - ws.used.(j))
    done

  (* Remove a certified victim: n_j and m_ij change only on its window. *)
  let drop ws ~machines i =
    ws.candidate.(i) <- false;
    for j = ws.first_ivl.(i) to ws.last_ivl.(i) do
      ws.nj.(j) <- ws.nj.(j) - 1;
      ws.procs.(j) <- min ws.nj.(j) (machines - ws.used.(j))
    done

  let sink_cap ws j = F.mul (F.of_int ws.procs.(j)) ws.widths.(j)

  (* The conjecture (total reserved time P, speed W / P).  Full
     resummation, not delta updates, keeps the rounding independent of
     the order in which victims left. *)
  let conjecture ws (jobs : job array) ~n ~k =
    let time = ref F.zero in
    for j = 0 to k - 1 do
      time := F.add !time (sink_cap ws j)
    done;
    let work = ref F.zero in
    for i = 0 to n - 1 do
      if ws.candidate.(i) then work := F.add !work jobs.(i).work
    done;
    if F.sign !time <= 0 then begin
      (* Some candidate job has zero reservable time everywhere. *)
      let offender = ref (-1) in
      for i = n - 1 downto 0 do
        if ws.candidate.(i) then offender := i
      done;
      if !offender < 0 then failwith "Offline.solve: candidate set exhausted";
      raise (Stranded_job !offender)
    end;
    (!time, F.div !work !time)

  (* Build the Fig. 1 network for the current candidates: 0 = source,
     1 = sink, then candidate jobs, then intervals with procs > 0, edges
     in that order.  [job_edge] is a flat [i * k + j] edge-id table
     (-1 = absent): no hashing in the inner loop, and extraction walks it
     in deterministic index order. *)
  let build ws (jobs : job array) ~n ~k ~speed =
    let g = ws.g and candidate = ws.candidate and procs = ws.procs in
    Array.fill ws.job_vertex 0 n (-1);
    Array.fill ws.ivl_vertex 0 k (-1);
    Array.fill ws.source_edge 0 n (-1);
    Array.fill ws.sink_edge 0 k (-1);
    (* Only candidate rows of the flat edge table are ever read (and only
       on the job's active span), so only those need resetting. *)
    for i = 0 to n - 1 do
      if candidate.(i) then
        Array.fill ws.job_edge ((i * k) + ws.first_ivl.(i))
          (ws.last_ivl.(i) - ws.first_ivl.(i) + 1)
          (-1)
    done;
    let next = ref 2 in
    for i = 0 to n - 1 do
      if candidate.(i) then begin
        ws.job_vertex.(i) <- !next;
        incr next
      end
    done;
    for j = 0 to k - 1 do
      if procs.(j) > 0 then begin
        ws.ivl_vertex.(j) <- !next;
        incr next
      end
    done;
    Flow.clear g ~n:!next;
    for i = 0 to n - 1 do
      if candidate.(i) then
        ws.source_edge.(i) <-
          Flow.add_edge g ~src:0 ~dst:ws.job_vertex.(i) ~cap:(F.div jobs.(i).work speed)
    done;
    for i = 0 to n - 1 do
      if candidate.(i) then
        for j = ws.first_ivl.(i) to ws.last_ivl.(i) do
          if procs.(j) > 0 then
            ws.job_edge.((i * k) + j) <-
              Flow.add_edge g ~src:ws.job_vertex.(i) ~dst:ws.ivl_vertex.(j)
                ~cap:ws.widths.(j)
        done
    done;
    for j = 0 to k - 1 do
      if procs.(j) > 0 then
        ws.sink_edge.(j) <- Flow.add_edge g ~src:ws.ivl_vertex.(j) ~dst:1 ~cap:(sink_cap ws j)
    done

  (* In-place rewind of the network built by [build] to the current
     candidates, reservations and speed, then a maximum flow from zero. *)
  let rewind ws (jobs : job array) ~n ~k ~speed =
    let g = ws.g in
    Flow.reset_flows g;
    for i = 0 to n - 1 do
      if ws.source_edge.(i) >= 0 then
        Flow.set_capacity g ws.source_edge.(i)
          ~cap:(if ws.candidate.(i) then F.div jobs.(i).work speed else F.zero)
    done;
    for j = 0 to k - 1 do
      if ws.sink_edge.(j) >= 0 then Flow.set_capacity g ws.sink_edge.(j) ~cap:(sink_cap ws j)
    done;
    ignore (Flow.dinic g ~source:0 ~sink:1)

  (* Flow reads of the installed dense network. *)
  let dense_pair ws ~k i j =
    let e = ws.job_edge.((i * k) + j) in
    if e >= 0 then Flow.flow_on ws.g e else F.zero

  let dense_sink ws j = Flow.flow_on ws.g ws.sink_edge.(j)

  (* The accepted class: the candidates, their speed and reservations, and
     the t_kj read off the accepting maximum flow. *)
  let class_of ws ~n ~k ~speed pair_flow =
    let members = ref [] and alloc = ref [] in
    for i = n - 1 downto 0 do
      if ws.candidate.(i) then begin
        members := i :: !members;
        for j = ws.last_ivl.(i) downto ws.first_ivl.(i) do
          let t = pair_flow i j in
          if F.sign t > 0 then alloc := (i, j, t) :: !alloc
        done
      end
    done;
    { members = !members; speed; procs = Array.sub ws.procs 0 k; alloc = !alloc }

  (* The certified victims of a failed round: every candidate that reaches
     an unsaturated interval in the residual graph of the round's maximum
     flow (Lemma 4 across the residual graph, see [Residual_closure]), in
     index order.  The substrate supplies the three boolean flow reads. *)
  let certified ws ~n ~k (sink_open, pair_open, pair_flowing) =
    match
      Residual_closure.victims ws.closure ~n ~k ~candidate:ws.candidate
        ~first_ivl:ws.first_ivl ~last_ivl:ws.last_ivl ~sink_open ~pair_open ~pair_flowing
    with
    | [] -> failwith "Offline.solve: flow deficit without a certified victim"
    | victims -> victims

  (* The certification reads of the installed dense network.  Job and
     sink edges keep capacities |I_j| and m_ij |I_j| (the rewind sets the
     latter before each flow), so [Flow.saturated] is the same test as
     comparing the flow with those capacities, without boxing it.  An
     absent job edge reads as an empty one. *)
  let dense_reads ws ~k =
    let g = ws.g in
    ( (fun j -> ws.procs.(j) > 0 && not (Flow.saturated g ws.sink_edge.(j))),
      (fun i j ->
        let e = ws.job_edge.((i * k) + j) in
        if e >= 0 then not (Flow.saturated g e)
        else not (F.equal_approx F.zero ws.widths.(j))),
      fun i j ->
        let e = ws.job_edge.((i * k) + j) in
        e >= 0 && Flow.flowing g e )

  (* The same reads of the sweep oracle's flow. *)
  let sweep_reads ws ~k =
    ( (fun j ->
        ws.procs.(j) > 0 && not (F.equal_approx ws.sweep_sink.(j) (sink_cap ws j))),
      (fun i j -> not (F.equal_approx ws.sweep_flow.((i * k) + j) ws.widths.(j))),
      fun i j -> F.sign ws.sweep_flow.((i * k) + j) > 0 )

  (* Size the sweep oracle's scratch for an [n]-job, [k]-interval solve
     and order the jobs by first interval: a counting sort, stable, so
     ties stay in index order and the sweep is deterministic. *)
  let fit_sweep ws ~n ~k ~machines =
    if Array.length ws.sweep_order < n then ws.sweep_order <- Array.make n 0;
    if Array.length ws.sweep_bucket < k + 1 then ws.sweep_bucket <- Array.make (k + 1) 0;
    if Array.length ws.sweep_rem < n then ws.sweep_rem <- Array.make n F.zero;
    if Array.length ws.sweep_sink < k then ws.sweep_sink <- Array.make k F.zero;
    if Array.length ws.sweep_flow < n * k then begin
      ws.sweep_flow <- Array.make (n * k) F.zero;
      ws.sweep_touched <- 0
    end;
    let touch_cap = n + ((machines + 1) * k) + 8 in
    if Array.length ws.sweep_touch < touch_cap then begin
      ws.sweep_touch <- Array.make touch_cap 0;
      ws.sup_next <- Array.make touch_cap (-1)
    end;
    if Array.length ws.sweep_heap < n then ws.sweep_heap <- Array.make n 0;
    if Array.length ws.sweep_tmp < n then ws.sweep_tmp <- Array.make n 0;
    if Array.length ws.sup_head < k then ws.sup_head <- Array.make k (-1);
    if Array.length ws.aug_parent < n + k then begin
      ws.aug_parent <- Array.make (n + k) (-1);
      ws.aug_visited <- Array.make (n + k) false;
      ws.aug_queue <- Array.make (n + k) 0
    end;
    if Array.length ws.aug_next < k + 1 then ws.aug_next <- Array.make (k + 1) 0;
    let bucket = ws.sweep_bucket in
    Array.fill bucket 0 (k + 1) 0;
    for i = 0 to n - 1 do
      bucket.(ws.first_ivl.(i) + 1) <- bucket.(ws.first_ivl.(i) + 1) + 1
    done;
    for b = 1 to k do
      bucket.(b) <- bucket.(b) + bucket.(b - 1)
    done;
    for i = 0 to n - 1 do
      let b = ws.first_ivl.(i) in
      ws.sweep_order.(bucket.(b)) <- i;
      bucket.(b) <- bucket.(b) + 1
    done

  (* Exact dense max-flow oracle for the compressed path, in two
     stages, neither of which materializes the O(n k) graph.

     Stage 1 — earliest-deadline sweep: per interval, serve active
     candidates in (deadline, index) order, each taking min(pair cap
     |I_j|, remaining demand, remaining sink capacity).  This yields
     a feasible dense flow that is usually maximum but provably not
     always: interval capacities admit procs_j *distinct* jobs (each
     pair-capped at |I_j|), so a far-deadline job can be the only
     admissible supplier of a late interval yet have its demand spent
     on early leftovers — EDF has no lookahead to reserve it.
     Allocations per interval are bounded by procs_j + exhausted + 1,
     so a sweep costs O((n + m k) log n).

     Stage 2 — shortest augmenting paths on the *implicit* dense
     residual graph: BFS alternates job and interval nodes, where a
     job's forward arcs are the unvisited intervals of its contiguous
     window with pair slack (enumerated through path-compressed jump
     pointers, so each BFS costs O((n + k + live pairs) alpha)) and
     an interval's backward arcs come from its supporter list (jobs
     with positive sweep flow, threaded through the touch entries).
     Augmenting along shortest paths until the sink is unreachable
     makes the flow maximum — Edmonds–Karp termination needs no
     integrality — so the oracle's value answers the accept test
     exactly and its sparse (job, interval) allocation is a valid
     Lemma 4 certificate.  The sweep leaves few mistakes to repair:
     across the test matrix the completion averages under one
     augmentation per round.

     [sweep_flow] entries are zeroed lazily via the touch list, so
     consecutive rounds (and solves sharing a workspace) never pay
     O(n k) clears. *)
  let sweep ws (jobs : job array) ~n ~k ~speed =
    let candidate = ws.candidate
    and first_ivl = ws.first_ivl
    and last_ivl = ws.last_ivl
    and procs = ws.procs
    and widths = ws.widths in
    let order = ws.sweep_order
    and rem = ws.sweep_rem
    and sflow = ws.sweep_flow
    and ssink = ws.sweep_sink
    and heap = ws.sweep_heap
    and tmp = ws.sweep_tmp in
    for t = 0 to ws.sweep_touched - 1 do
      sflow.(ws.sweep_touch.(t)) <- F.zero
    done;
    ws.sweep_touched <- 0;
    Array.fill ws.sup_head 0 k (-1);
    (* Record a (job, interval) pair going positive: lazy-clear list
       entry plus supporter-list link for the interval's backward
       arcs.  Grows the shared arrays when stage 2 activates more
       pairs than the sweep bound. *)
    let touch_pair idx j =
      if ws.sweep_touched >= Array.length ws.sweep_touch then begin
        let cap' = 2 * Array.length ws.sweep_touch in
        let touch' = Array.make cap' 0 in
        Array.blit ws.sweep_touch 0 touch' 0 ws.sweep_touched;
        ws.sweep_touch <- touch';
        let next' = Array.make cap' (-1) in
        Array.blit ws.sup_next 0 next' 0 ws.sweep_touched;
        ws.sup_next <- next'
      end;
      let t = ws.sweep_touched in
      ws.sweep_touch.(t) <- idx;
      ws.sup_next.(t) <- ws.sup_head.(j);
      ws.sup_head.(j) <- t;
      ws.sweep_touched <- t + 1
    in
    Array.fill ssink 0 k F.zero;
    for i = 0 to n - 1 do
      if candidate.(i) then rem.(i) <- F.div jobs.(i).work speed
    done;
    let hsize = ref 0 in
    let before a b =
      last_ivl.(a) < last_ivl.(b) || (last_ivl.(a) = last_ivl.(b) && a < b)
    in
    let hpush i =
      let c = ref !hsize in
      incr hsize;
      heap.(!c) <- i;
      let sifting = ref true in
      while !sifting && !c > 0 do
        let p = (!c - 1) / 2 in
        if before heap.(!c) heap.(p) then begin
          let t = heap.(!c) in
          heap.(!c) <- heap.(p);
          heap.(p) <- t;
          c := p
        end
        else sifting := false
      done
    in
    let hpop () =
      let top = heap.(0) in
      decr hsize;
      heap.(0) <- heap.(!hsize);
      let c = ref 0 in
      let sifting = ref true in
      while !sifting do
        let l = (2 * !c) + 1 in
        if l >= !hsize then sifting := false
        else begin
          let r = l + 1 in
          let s = if r < !hsize && before heap.(r) heap.(l) then r else l in
          if before heap.(s) heap.(!c) then begin
            let t = heap.(!c) in
            heap.(!c) <- heap.(s);
            heap.(s) <- t;
            c := s
          end
          else sifting := false
        end
      done;
      top
    in
    let ptr = ref 0 in
    let value = ref F.zero in
    for j = 0 to k - 1 do
      while !ptr < n && first_ivl.(order.(!ptr)) <= j do
        let i = order.(!ptr) in
        incr ptr;
        if candidate.(i) then hpush i
      done;
      while !hsize > 0 && last_ivl.(heap.(0)) < j do
        ignore (hpop ())
      done;
      if procs.(j) > 0 && !hsize > 0 then begin
        let residual = ref (F.mul (F.of_int procs.(j)) widths.(j)) in
        let parked = ref 0 in
        let serving = ref true in
        while !serving && !hsize > 0 do
          if F.sign !residual <= 0 then serving := false
          else begin
            let i = hpop () in
            let x = F.min (F.min widths.(j) rem.(i)) !residual in
            sflow.((i * k) + j) <- x;
            touch_pair ((i * k) + j) j;
            ssink.(j) <- F.add ssink.(j) x;
            rem.(i) <- F.sub rem.(i) x;
            residual := F.sub !residual x;
            value := F.add !value x;
            if F.sign rem.(i) > 0 then begin
              tmp.(!parked) <- i;
              incr parked
            end
          end
        done;
        for t = 0 to !parked - 1 do
          hpush tmp.(t)
        done
      end
    done;
    (* Stage 2: finish to a maximum flow with Dinic-style blocking
       flows on the implicit residual graph.  Node ids: job i -> i,
       interval j -> n + j.  Each pass levels the residual by BFS
       (path-compressed jump pointers enumerate a job's unvisited
       window intervals, supporter lists give an interval's backward
       arcs), then a depth-first blocking flow with current-arc
       pointers sends every shortest augmenting path of that length
       at once.  The loop exits only when BFS proves the sink
       unreachable, so the result is maximum whatever the pass
       count; tolerance-gated arcs make every bottleneck positive
       beyond tolerance, so passes terminate. *)
    let level = ws.aug_parent
    and visited = ws.aug_visited
    and queue = ws.aug_queue
    and nextiv = ws.aug_next
    and cur_job = ws.sweep_heap (* free after the sweep: current arc *)
    and cur_sup = ws.sweep_bucket (* free after the sort: current arc *) in
    let iv j = n + j in
    (* Path-compressed "next possibly-unvisited interval >= j". *)
    let rec find_next j =
      if j >= k || not visited.(iv j) then j
      else begin
        let r = find_next nextiv.(j) in
        nextiv.(j) <- r;
        r
      end
    in
    let exhausted = ref false in
    while not !exhausted do
      Array.fill visited 0 (n + k) false;
      for j = 0 to k - 1 do
        (* A procs-free interval carries no arc at all. *)
        if procs.(j) = 0 then visited.(iv j) <- true;
        nextiv.(j) <- j + 1
      done;
      nextiv.(k) <- k;
      let head = ref 0 and tail = ref 0 in
      for i = 0 to n - 1 do
        if candidate.(i) && F.sign rem.(i) > 0 then begin
          visited.(i) <- true;
          level.(i) <- 0;
          queue.(!tail) <- i;
          incr tail
        end
      done;
      (* [dist] = length of a shortest augmenting path: the level of
         the nearest interval with sink slack, plus its sink arc.
         BFS discovers in level order, so the first exit found fixes
         it; deeper nodes are not expanded. *)
      let dist = ref max_int in
      while !head < !tail do
        let u = queue.(!head) in
        incr head;
        if level.(u) + 1 < !dist then
          if u < n then begin
            let j = ref (find_next first_ivl.(u)) in
            while !j <= last_ivl.(u) do
              let jj = !j in
              if F.sign (F.sub widths.(jj) sflow.((u * k) + jj)) > 0 then begin
                visited.(iv jj) <- true;
                level.(iv jj) <- level.(u) + 1;
                let cap = F.mul (F.of_int procs.(jj)) widths.(jj) in
                if F.sign (F.sub cap ssink.(jj)) > 0 then begin
                  if level.(iv jj) + 1 < !dist then dist := level.(iv jj) + 1
                end
                else begin
                  queue.(!tail) <- iv jj;
                  incr tail
                end
              end;
              j := find_next (jj + 1)
            done
          end
          else begin
            let j = u - n in
            let t = ref ws.sup_head.(j) in
            while !t >= 0 do
              let idx = ws.sweep_touch.(!t) in
              let i = idx / k in
              if (not visited.(i)) && F.sign sflow.(idx) > 0 then begin
                visited.(i) <- true;
                level.(i) <- level.(u) + 1;
                queue.(!tail) <- i;
                incr tail
              end;
              t := ws.sup_next.(!t)
            done
          end
      done;
      if !dist = max_int then exhausted := true
      else begin
        let exit_level = !dist - 1 in
        for i = 0 to n - 1 do
          cur_job.(i) <- first_ivl.(i)
        done;
        for j = 0 to k - 1 do
          cur_sup.(j) <- ws.sup_head.(j)
        done;
        (* The BFS queue is spent; reuse it as the DFS path stack
           (alternating job, interval, job, ... nodes). *)
        let stack = queue in
        for src = 0 to n - 1 do
          if candidate.(src) && visited.(src) && level.(src) = 0 then begin
            let depth = ref 0 in
            stack.(0) <- src;
            let active = ref (F.sign rem.(src) > 0) in
            while !active do
              let u = stack.(!depth) in
              if u >= n && level.(u) = exit_level then begin
                let j0 = u - n in
                let sink_res =
                  F.sub (F.mul (F.of_int procs.(j0)) widths.(j0)) ssink.(j0)
                in
                if F.sign sink_res > 0 then begin
                  (* Complete shortest path: augment by the bottleneck
                     (positive beyond tolerance by the arc gating), in
                     exact float arithmetic the tight constraint drops
                     to zero, closing at least one arc per path. *)
                  let bot = ref (F.min sink_res rem.(src)) in
                  for d = 0 to !depth - 1 do
                    let a = stack.(d) and b = stack.(d + 1) in
                    if a < n then
                      bot :=
                        F.min !bot (F.sub widths.(b - n) sflow.((a * k) + (b - n)))
                    else bot := F.min !bot sflow.((b * k) + (a - n))
                  done;
                  let b = !bot in
                  ssink.(j0) <- F.add ssink.(j0) b;
                  rem.(src) <- F.sub rem.(src) b;
                  value := F.add !value b;
                  for d = 0 to !depth - 1 do
                    let a = stack.(d) and dst = stack.(d + 1) in
                    if a < n then begin
                      let idx = (a * k) + (dst - n) in
                      if F.sign sflow.(idx) = 0 then touch_pair idx (dst - n);
                      sflow.(idx) <- F.add sflow.(idx) b
                    end
                    else begin
                      let idx = (dst * k) + (a - n) in
                      sflow.(idx) <- F.sub sflow.(idx) b
                    end
                  done;
                  (* Restart from the source: saturated arcs now fail
                     their residual checks and advance the pointers. *)
                  depth := 0;
                  if F.sign rem.(src) <= 0 then active := false
                end
                else begin
                  (* Drained exit: paths through it would be longer
                     than [dist], so retreat. *)
                  decr depth;
                  let p = stack.(!depth) in
                  cur_job.(p) <- cur_job.(p) + 1
                end
              end
              else if u < n then begin
                let lj = last_ivl.(u) in
                let nl = level.(u) + 1 in
                let j = ref cur_job.(u) in
                let stop = ref false in
                while (not !stop) && !j <= lj do
                  let jj = !j in
                  if
                    visited.(iv jj)
                    && level.(iv jj) = nl
                    && F.sign (F.sub widths.(jj) sflow.((u * k) + jj)) > 0
                  then stop := true
                  else incr j
                done;
                cur_job.(u) <- !j;
                if !stop then begin
                  incr depth;
                  stack.(!depth) <- iv !j
                end
                else if !depth = 0 then active := false
                else begin
                  decr depth;
                  let p = stack.(!depth) in
                  cur_sup.(p - n) <- ws.sup_next.(cur_sup.(p - n))
                end
              end
              else begin
                let j = u - n in
                let nl = level.(u) + 1 in
                let t = ref cur_sup.(j) in
                let stop = ref false in
                while (not !stop) && !t >= 0 do
                  let idx = ws.sweep_touch.(!t) in
                  let i = idx / k in
                  if visited.(i) && level.(i) = nl && F.sign sflow.(idx) > 0 then
                    stop := true
                  else t := ws.sup_next.(!t)
                done;
                cur_sup.(j) <- !t;
                if !stop then begin
                  incr depth;
                  stack.(!depth) <- ws.sweep_touch.(!t) / k
                end
                else begin
                  decr depth;
                  let p = stack.(!depth) in
                  cur_job.(p) <- cur_job.(p) + 1
                end
              end
            done
          end
        done
      end
    done;
    !value

  (* Round and flow counters of one solve. *)
  type tally = {
    mutable n_rounds : int;
    mutable n_resumes : int;
    mutable n_removals : int;
    mutable n_grouped : int;
    mutable n_phase_resumes : int;
    mutable n_drained : int;
    mutable peak : int;             (* edge peak of the current phase's rounds *)
  }

  let count_round t g =
    t.n_rounds <- t.n_rounds + 1;
    t.peak <- Int.max t.peak (Flow.num_edges g)

  (* The phase loop: open each phase on the remaining jobs, let
     [accept_class] run rounds until a conjecture holds, then commit the
     class's reservations and record its counters. *)
  let run_phases ~ws ~machines ~breakpoints (jobs : job array) accept_class =
    let n = Array.length jobs and k = Array.length breakpoints - 1 in
    let g = ws.g in
    Flow.reset_counters g;
    Array.fill ws.used 0 k 0;
    Array.fill ws.remaining 0 n true;
    let t =
      {
        n_rounds = 0;
        n_resumes = 0;
        n_removals = 0;
        n_grouped = 0;
        n_phase_resumes = 0;
        n_drained = 0;
        peak = 0;
      }
    in
    let left = ref n and count = ref 0 in
    let phases = ref [] and edges = ref [] and waves = ref [] in
    while !left > 0 do
      incr count;
      open_phase ws ~machines ~n ~k;
      let waves0 = (Flow.counters g).Flow.bfs_waves in
      t.peak <- 0;
      let phase = accept_class !count t in
      edges := t.peak :: !edges;
      waves := ((Flow.counters g).Flow.bfs_waves - waves0) :: !waves;
      phases := phase :: !phases;
      List.iter (fun i -> ws.remaining.(i) <- false) phase.members;
      left := !left - List.length phase.members;
      for j = 0 to k - 1 do
        ws.used.(j) <- ws.used.(j) + phase.procs.(j)
      done
    done;
    let fc = Flow.counters g in
    let phase_edges = Array.of_list (List.rev !edges) in
    {
      breakpoints;
      schedule_phases = List.rev !phases;
      stats =
        {
          phases = !count;
          rounds = t.n_rounds;
          resumes = t.n_resumes;
          removals = t.n_removals;
          grouped = t.n_grouped;
          net_edges = Array.fold_left Int.max 0 phase_edges;
          net_pushes = fc.Flow.pushes;
          net_bfs_waves = fc.Flow.bfs_waves;
          phase_resumes = t.n_phase_resumes;
          phase_drain_edges = t.n_drained;
          phase_edges;
          phase_bfs_waves = Array.of_list (List.rev !waves);
        };
    }

  (* The production solve of one (sub-)instance on workspace [ws]. *)
  let solve_in ?compress ?on_phase ~ws ~machines (jobs : job array) =
    let breakpoints, use_compress = prepare ?compress ~ws ~machines jobs in
    let n = Array.length jobs and k = Array.length breakpoints - 1 in
    let g = ws.g in
    if use_compress then begin
      fit_sweep ws ~n ~k ~machines;
      Flow.clear g ~n:2
    end;
    let pair_flow =
      if use_compress then fun i j -> ws.sweep_flow.((i * k) + j) else dense_pair ws ~k
    in
    let reads = if use_compress then sweep_reads ws ~k else dense_reads ws ~k in
    run_phases ~ws ~machines ~breakpoints jobs (fun idx t ->
        let total_time, speed = conjecture ws jobs ~n ~k in
        if not use_compress then
          if idx = 1 then begin
            build ws jobs ~n ~k ~speed;
            ignore (Flow.dinic g ~source:0 ~sink:1)
          end
          else begin
            (* Phase boundary: the accepted flow is supported on the
               accepted members alone (victims left at zero capacity), so
               count its edges, then rewind to the next conjecture. *)
            t.n_drained <- t.n_drained + Flow.count_flowing g;
            t.n_phase_resumes <- t.n_phase_resumes + 1;
            rewind ws jobs ~n ~k ~speed
          end;
        (match on_phase with Some f -> f idx speed g | None -> ());
        let rec round total_time speed =
          count_round t g;
          let value =
            if use_compress then sweep ws jobs ~n ~k ~speed else Flow.flow_value g ~source:0
          in
          if F.equal_approx value total_time then class_of ws ~n ~k ~speed pair_flow
          else begin
            let victims = certified ws ~n ~k reads in
            if List.compare_length_with victims 1 > 0 then t.n_grouped <- t.n_grouped + 1;
            List.iter
              (fun v ->
                drop ws ~machines v;
                t.n_removals <- t.n_removals + 1)
              victims;
            let total_time, speed = conjecture ws jobs ~n ~k in
            if not use_compress then begin
              t.n_resumes <- t.n_resumes + 1;
              rewind ws jobs ~n ~k ~speed
            end;
            round total_time speed
          end
        in
        round total_time speed)

  (* --- the paper-literal reference --------------------------------------
     Fig. 2 as printed: every round rebuilds the dense Fig. 1 network for
     the current candidates, computes a maximum flow from zero and, on a
     failed round, removes one Lemma 4 victim.  It shares the grid, the
     Lemma 3 state and the network builder with the production loop but
     none of its reuse, so it is the oracle the agreement tests hold the
     production solver to.  Two ablation knobs: [flow_algorithm] picks the
     max-flow routine (identical answers, experiment A4) and [victim_rule]
     the certified job a failed round discards (any choice is sound by
     Lemma 4, experiment A5).  No decomposition, no compression. *)
  module Reference = struct
    type flow_algorithm = Dinic | Edmonds_karp | Push_relabel
    type victim_rule = Least_flow | First_found

    let solve ?(flow_algorithm = Dinic) ?(victim_rule = Least_flow) ~machines
        (jobs : job array) =
      let ws = make_workspace () in
      let breakpoints, _ = prepare ~compress:false ~ws ~machines jobs in
      let n = Array.length jobs and k = Array.length breakpoints - 1 in
      let g = ws.g in
      run_phases ~ws ~machines ~breakpoints jobs (fun _ t ->
          let rec round () =
            let total_time, speed = conjecture ws jobs ~n ~k in
            build ws jobs ~n ~k ~speed;
            ignore
              (match flow_algorithm with
              | Dinic -> Flow.dinic g ~source:0 ~sink:1
              | Edmonds_karp -> Flow.edmonds_karp g ~source:0 ~sink:1
              | Push_relabel -> Flow.push_relabel g ~source:0 ~sink:1);
            count_round t g;
            if F.equal_approx (Flow.flow_value g ~source:0) total_time then
              class_of ws ~n ~k ~speed (dense_pair ws ~k)
            else begin
              (* The first unsaturated interval, then one job with a
                 non-full edge into it. *)
              let j0 = ref 0 in
              while
                !j0 < k
                && (ws.procs.(!j0) = 0
                   || F.equal_approx (dense_sink ws !j0) (sink_cap ws !j0))
              do
                incr j0
              done;
              if !j0 = k then failwith "Offline.Reference.solve: flow deficit without unsaturated sink edge";
              let j0 = !j0 in
              let victim = ref (-1) and least = ref F.zero in
              for i = 0 to n - 1 do
                if ws.candidate.(i) && ws.first_ivl.(i) <= j0 && j0 <= ws.last_ivl.(i) then begin
                  let f = dense_pair ws ~k i j0 in
                  if not (F.equal_approx f ws.widths.(j0)) then
                    match victim_rule with
                    | First_found -> if !victim < 0 then victim := i
                    | Least_flow ->
                      if !victim < 0 || F.compare f !least < 0 then begin
                        victim := i;
                        least := f
                      end
                end
              done;
              if !victim < 0 then
                failwith "Offline.Reference.solve: unsaturated interval without removable job";
              drop ws ~machines !victim;
              t.n_removals <- t.n_removals + 1;
              round ()
            end
          in
          round ())
  end

  (* --- instance decomposition (zero-coverage cuts) ----------------------
     A grid point crossed by no job window is a cut: the Fig. 1 network has
     no job->interval edge across it, so the max-flow questions — and with
     them Lemmas 1-4 and the whole phase construction — factor into the
     connected components of the job-window interval graph.  Solving the
     components independently and concatenating their phase lists yields
     the global optimum; re-sorting by decreasing speed restores the
     paper's presentation order.

     The per-component solves are bit-identical to what the global solver
     produces for the same classes whenever no speed class spans two
     components (speeds are generic floats, so cross-component bitwise
     ties essentially never happen outside hand-built instances): a
     component's event times are a contiguous slice of the global grid,
     zero-reservation foreign intervals contribute exact +0.0 terms to the
     global speed sums, and the accepted flows are canonical Dinic runs on
     networks with identical vertex/edge insertion order.  When two
     components do tie bitwise, the merge coalesces their phases into one
     class, which matches the global class's members and reservations; the
     global solver would have re-derived the (mathematically equal) merged
     speed with a differently-ordered float sum, the one place where
     decomposition can diverge in the last bit. *)

  (* Split jobs into independent components: sweep in release order,
     cutting whenever the next release is at or past the furthest deadline
     seen (touching at a point is a cut — no window strictly contains it).
     Returns the components in time order, each an ascending array of
     indices into [jobs], so per-component solves visit jobs in the same
     order as the global solver.  Releases already non-decreasing in index
     order (every OA replan: all its jobs are released at once) are their
     own release order, so the sort is skipped. *)
  let components (jobs : job array) =
    let n = Array.length jobs in
    if n = 0 then []
    else begin
      let order = Array.init n Fun.id in
      let sorted = ref true in
      for i = 1 to n - 1 do
        if F.compare jobs.(i - 1).release jobs.(i).release > 0 then sorted := false
      done;
      if not !sorted then
        Array.sort
          (fun a b ->
            match F.compare jobs.(a).release jobs.(b).release with
            | 0 -> Int.compare a b
            | c -> c)
          order;
      let comps = ref [] in
      let current = ref [ order.(0) ] in
      let cur_end = ref jobs.(order.(0)).deadline in
      for idx = 1 to n - 1 do
        let i = order.(idx) in
        if F.compare jobs.(i).release !cur_end >= 0 then begin
          comps := !current :: !comps;
          current := [ i ];
          cur_end := jobs.(i).deadline
        end
        else begin
          current := i :: !current;
          cur_end := F.max !cur_end jobs.(i).deadline
        end
      done;
      comps := !current :: !comps;
      List.rev_map
        (fun ids ->
          let a = Array.of_list ids in
          Array.sort Int.compare a;
          a)
        !comps
    end

  (* Remap a component phase onto the global grid: job indices through the
     component's [ids], interval indices shifted by the component's offset
     into the global breakpoint array. *)
  let stitch_phase ~k ~off ~(ids : int array) (p : phase) =
    let procs = Array.make k 0 in
    Array.blit p.procs 0 procs off (Array.length p.procs);
    {
      members = List.map (fun i -> ids.(i)) p.members;
      speed = p.speed;
      procs;
      alloc = List.map (fun (i, j, t) -> (ids.(i), j + off, t)) p.alloc;
    }

  (* The production solve: split at zero-coverage cuts and solve the
     components in time order, one after another, on the one workspace
     [ws] (every solve re-initializes the prefixes it reads). *)
  let solve_split ?compress ?on_phase ~ws ~machines (jobs : job array) =
    (* Validate up front (as [solve_in] would) so a malformed instance is
       rejected before it is split. *)
    check_jobs ~machines jobs;
    let solve_whole () = solve_in ?compress ?on_phase ~ws ~machines jobs in
    match components jobs with
    | [] | [ _ ] -> solve_whole ()
    | comps ->
      let breakpoints = sort_uniq_times jobs in
      let k = Array.length breakpoints - 1 in
      let comps = Array.of_list comps in
      (* A component's event times must be a contiguous slice of the global
         grid (they are, by construction: components are time-disjoint and
         every event is a component event).  Checked defensively; on any
         mismatch fall back to the whole instance rather than merge onto
         a wrong offset. *)
      let sliced =
        Array.map
          (fun ids ->
            let sub = Array.map (fun i -> jobs.(i)) ids in
            let bp = sort_uniq_times sub in
            let off = index_of breakpoints bp.(0) in
            let ok =
              off + Array.length bp <= Array.length breakpoints
              &&
              let same = ref true in
              Array.iteri
                (fun j t ->
                  if F.compare breakpoints.(off + j) t <> 0 then same := false)
                bp;
              !same
            in
            (ids, sub, off, ok))
          comps
      in
      if Array.exists (fun (_, _, _, ok) -> not ok) sliced then solve_whole ()
      else begin
        let runs =
          Array.map
            (fun (ids, sub, _, _) ->
              match solve_in ?compress ?on_phase ~ws ~machines sub with
              | r -> r
              | exception Stranded_job local -> raise (Stranded_job ids.(local)))
            sliced
        in
        (* Canonical merge: stitch every component phase onto the global
           grid, order by strictly decreasing speed (stable, so the
           time-ordered component layout breaks exact ties), and coalesce
           bitwise-equal speeds into a single class — what the global
           solver's speed-class partition would contain. *)
        let all =
          List.concat
            (List.map2
               (fun (ids, _, off, _) (r : run) ->
                 List.map (stitch_phase ~k ~off ~ids) r.schedule_phases)
               (Array.to_list sliced) (Array.to_list runs))
        in
        let sorted =
          List.stable_sort (fun a b -> F.compare b.speed a.speed) all
        in
        let rec coalesce = function
          | a :: b :: rest when F.compare a.speed b.speed = 0 ->
            coalesce
              ({
                 members = List.merge Int.compare a.members b.members;
                 speed = a.speed;
                 procs = Array.init k (fun j -> a.procs.(j) + b.procs.(j));
                 alloc =
                   List.merge
                     (fun (i1, j1, _) (i2, j2, _) ->
                       match Int.compare i1 i2 with 0 -> Int.compare j1 j2 | c -> c)
                     a.alloc b.alloc;
               }
              :: rest)
          | a :: rest -> a :: coalesce rest
          | [] -> []
        in
        let schedule_phases = coalesce sorted in
        (* Counters are summed; [phases] counts accepted conjectures (one
           accepting flow each), so rounds - phases = failed rounds survives
           the merge even if a bitwise tie coalesced two classes above. *)
        let sum f =
          Array.fold_left (fun acc (r : run) -> acc + f r.stats) 0 runs
        in
        let peak f =
          Array.fold_left (fun acc (r : run) -> max acc (f r.stats)) 0 runs
        in
        {
          breakpoints;
          schedule_phases;
          stats =
            {
              phases = sum (fun s -> s.phases);
              rounds = sum (fun s -> s.rounds);
              resumes = sum (fun s -> s.resumes);
              removals = sum (fun s -> s.removals);
              grouped = sum (fun s -> s.grouped);
              net_edges = peak (fun s -> s.net_edges);
              net_pushes = sum (fun s -> s.net_pushes);
              net_bfs_waves = sum (fun s -> s.net_bfs_waves);
              phase_resumes = sum (fun s -> s.phase_resumes);
              phase_drain_edges = sum (fun s -> s.phase_drain_edges);
              (* Per-phase arrays concatenate in component (time) order —
                 the order the runs themselves are listed in. *)
              phase_edges =
                Array.concat
                  (List.map (fun (r : run) -> r.stats.phase_edges)
                     (Array.to_list runs));
              phase_bfs_waves =
                Array.concat
                  (List.map (fun (r : run) -> r.stats.phase_bfs_waves)
                     (Array.to_list runs));
            };
        }
      end

  (* The entry point: a fresh workspace per call. *)
  let solve ?compress ?on_phase ~machines jobs =
    solve_split ?compress ?on_phase ~ws:(make_workspace ()) ~machines jobs

  (* --- cross-arrival solver sessions (Section 3.1, Lemmas 6–9) ----------
     A session owns a persistent workspace (flow arena, breakpoint-grid
     scratch, reservation arrays) reused across successive solves, the
     natural shape for OA(m)-style replanning where every arrival re-solves
     a slightly different instance.  Session solves run the same round
     loop as [solve], so their runs are identical to it.

     The Lemma 6–9 monotonicity is tracked as a ledger: callers tag jobs
     with stable [keys] across solves, and the session records how many
     carried jobs kept a non-decreasing planned speed (Lemma 7 predicts:
     all of them, when solves correspond to OA replans at arrivals). *)
  module Session = struct
    type stats = {
      solves : int;
      rounds : int;             (* cumulative max-flow computations *)
      resumes : int;            (* cumulative in-place rewinds *)
      removals : int;           (* cumulative certified removals *)
      grouped_rounds : int;     (* failed rounds that removed > 1 victim *)
      carried_jobs : int;       (* keys also planned by an earlier solve *)
      monotone_carried : int;   (* carried keys whose speed did not drop *)
      arena_grows : int;        (* solves that had to grow the workspace *)
    }

    type t = {
      machines : int;
      ws : workspace;
      prev_speed : (int, F.t) Hashtbl.t;
      mutable solves : int;
      mutable rounds : int;
      mutable resumes : int;
      mutable removals : int;
      mutable grouped_rounds : int;
      mutable carried_jobs : int;
      mutable monotone_carried : int;
    }

    let create ~machines =
      if machines <= 0 then invalid_arg "Offline.Session.create: machines <= 0";
      {
        machines;
        ws = make_workspace ();
        prev_speed = Hashtbl.create 64;
        solves = 0;
        rounds = 0;
        resumes = 0;
        removals = 0;
        grouped_rounds = 0;
        carried_jobs = 0;
        monotone_carried = 0;
      }

    let machines t = t.machines

    let solve ?keys t jobs =
      (match keys with
      | Some ks when Array.length ks <> Array.length jobs ->
        invalid_arg "Offline.Session.solve: keys length mismatch"
      | _ -> ());
      let run = solve_split ~ws:t.ws ~machines:t.machines jobs in
      t.solves <- t.solves + 1;
      t.rounds <- t.rounds + run.stats.rounds;
      t.resumes <- t.resumes + run.stats.resumes;
      t.removals <- t.removals + run.stats.removals;
      t.grouped_rounds <- t.grouped_rounds + run.stats.grouped;
      (match keys with
      | None -> ()
      | Some ks ->
        List.iter
          (fun (ph : phase) ->
            List.iter
              (fun i ->
                let key = ks.(i) in
                (match Hashtbl.find_opt t.prev_speed key with
                | Some prev ->
                  t.carried_jobs <- t.carried_jobs + 1;
                  if F.leq_approx prev ph.speed then
                    t.monotone_carried <- t.monotone_carried + 1
                | None -> ());
                Hashtbl.replace t.prev_speed key ph.speed)
              ph.members)
          run.schedule_phases);
      run

    let stats t =
      {
        solves = t.solves;
        rounds = t.rounds;
        resumes = t.resumes;
        removals = t.removals;
        grouped_rounds = t.grouped_rounds;
        carried_jobs = t.carried_jobs;
        monotone_carried = t.monotone_carried;
        arena_grows = t.ws.grows;
      }
  end

  (* --- field-generic schedule materialization ---------------------------
     The same Lemma 2 wrap-packing as Ss_model.Schedule.wrap_pack, but in
     the functor's own arithmetic: on the exact-rational instance this
     yields a schedule whose feasibility can be verified with zero
     tolerance, certifying the packing construction itself (the float
     model layer is validated against it in tests). *)

  type segment = { seg_job : int; seg_proc : int; seg_t0 : F.t; seg_t1 : F.t; seg_speed : F.t }

  (* Pack (job, duration) entries sequentially into windows [t0, t1) of
     width w starting at processor [proc_offset]; full-width entries
     first (Lemma 2). *)
  let wrap_pack ~t0 ~t1 ~proc_offset ~speed entries =
    let width = F.sub t1 t0 in
    let full, partial =
      List.partition (fun (_, dur) -> F.compare dur width >= 0) entries
    in
    let segs = ref [] in
    let proc = ref proc_offset in
    let pos = ref F.zero in
    let emit job a b =
      if F.compare b a > 0 then
        segs :=
          { seg_job = job; seg_proc = !proc; seg_t0 = F.add t0 a; seg_t1 = F.add t0 b; seg_speed = speed }
          :: !segs
    in
    let advance () =
      if F.compare !pos width >= 0 then begin
        incr proc;
        pos := F.zero
      end
    in
    List.iter
      (fun (job, dur) ->
        let dur = F.min dur width in
        if F.sign dur > 0 then begin
          if F.compare (F.add !pos dur) width <= 0 then begin
            emit job !pos (F.add !pos dur);
            pos := F.add !pos dur;
            advance ()
          end
          else begin
            let first = F.sub width !pos in
            emit job !pos width;
            incr proc;
            pos := F.zero;
            emit job F.zero (F.sub dur first);
            pos := F.sub dur first;
            advance ()
          end
        end)
      (full @ partial);
    List.rev !segs

  (* Each phase's alloc is split into per-interval buckets in one pass
     (entries keep their alloc order) instead of being scanned once per
     grid interval.  Segments come back grouped by interval, last interval
     first. *)
  let schedule_segments (run : run) =
    let k = Array.length run.breakpoints - 1 in
    let bucketed =
      List.map
        (fun (phase : phase) ->
          let buckets = Array.make k [] in
          List.iter
            (fun (i, j, t) -> buckets.(j) <- (i, t) :: buckets.(j))
            (List.rev phase.alloc);
          (phase, buckets))
        run.schedule_phases
    in
    let segments = ref [] in
    for j = 0 to k - 1 do
      let t0 = run.breakpoints.(j) and t1 = run.breakpoints.(j + 1) in
      let offset = ref 0 in
      List.iter
        (fun ((phase : phase), buckets) ->
          if phase.procs.(j) > 0 then begin
            segments :=
              wrap_pack ~t0 ~t1 ~proc_offset:!offset ~speed:phase.speed buckets.(j)
              :: !segments;
            offset := !offset + phase.procs.(j)
          end)
        bucketed
    done;
    List.concat !segments

  (* Zero-tolerance feasibility audit of materialized segments (exact when
     F is the rational field).  Returns the violations found. *)
  type violation =
    | Wrong_work of int
    | Outside_window of int
    | Processor_overlap of int
    | Self_parallel of int

  let check_segments ~machines (jobs : job array) segments =
    let n = Array.length jobs in
    let problems = ref [] in
    (* Work totals. *)
    let done_ = Array.make n F.zero in
    List.iter
      (fun s ->
        done_.(s.seg_job) <-
          F.add done_.(s.seg_job) (F.mul (F.sub s.seg_t1 s.seg_t0) s.seg_speed))
      segments;
    for i = 0 to n - 1 do
      if not (F.equal_approx done_.(i) jobs.(i).work) then
        problems := Wrong_work i :: !problems
    done;
    (* Windows. *)
    List.iter
      (fun s ->
        if
          F.compare s.seg_t0 jobs.(s.seg_job).release < 0
          || F.compare jobs.(s.seg_job).deadline s.seg_t1 < 0
        then problems := Outside_window s.seg_job :: !problems)
      segments;
    (* Ordering checks per processor and per job. *)
    let sorted_by f l = List.sort f l in
    for proc = 0 to machines - 1 do
      let own =
        sorted_by
          (fun a b -> F.compare a.seg_t0 b.seg_t0)
          (List.filter (fun s -> s.seg_proc = proc) segments)
      in
      let rec sweep = function
        | a :: (b :: _ as rest) ->
          if F.compare b.seg_t0 a.seg_t1 < 0 then
            problems := Processor_overlap proc :: !problems;
          sweep rest
        | _ -> ()
      in
      sweep own
    done;
    for i = 0 to n - 1 do
      let own =
        sorted_by
          (fun a b -> F.compare a.seg_t0 b.seg_t0)
          (List.filter (fun s -> s.seg_job = i) segments)
      in
      let rec sweep = function
        | a :: (b :: _ as rest) ->
          if F.compare b.seg_t0 a.seg_t1 < 0 then problems := Self_parallel i :: !problems;
          sweep rest
        | _ -> ()
      in
      sweep own
    done;
    List.rev !problems

  (* Total reserved processing time of a phase. *)
  let phase_busy_time run (phase : phase) =
    let k = Array.length run.breakpoints - 1 in
    let acc = ref F.zero in
    for j = 0 to k - 1 do
      if phase.procs.(j) > 0 then
        acc :=
          F.add !acc
            (F.mul (F.of_int phase.procs.(j))
               (F.sub run.breakpoints.(j + 1) run.breakpoints.(j)))
    done;
    !acc

  let speeds run = List.map (fun p -> p.speed) run.schedule_phases
end

module Make (F : Ss_numeric.Field.S) = MakeWith (F) (Ss_flow.Maxflow.Make (F))
module F = MakeWith (Ss_numeric.Field.Float) (Ss_flow.Maxflow.Float)
module Exact = Make (Ss_numeric.Rational.Field)

module Job = Ss_model.Job
module Power = Ss_model.Power
module Schedule = Ss_model.Schedule

type info = {
  phases : int;
  rounds : int;
  resumes : int;
  removals : int;
  phase_resumes : int;         (* dense phase boundaries answered by a rewind *)
  speeds : float array;        (* decreasing phase speeds *)
}

let float_jobs (inst : Job.instance) =
  Array.map
    (fun (j : Job.t) -> { F.release = j.release; deadline = j.deadline; work = j.work })
    inst.jobs

(* Lemma 2 materialization of grid intervals [jlo, jhi) of a run: inside
   each interval, stack the phases' wrap-packed blocks onto disjoint
   processors.  Each phase's alloc is split into per-interval buckets in
   one pass (entries keep their alloc order), instead of being scanned
   once per interval.  Segments come back grouped by interval, last
   interval first. *)
let pack_intervals ~who ~machines (run : F.run) ~jlo ~jhi =
  let bucketed =
    List.map
      (fun (phase : F.phase) ->
        let buckets = Array.make (max 0 (jhi - jlo)) [] in
        List.iter
          (fun (i, j, t) ->
            if jlo <= j && j < jhi then buckets.(j - jlo) <- (i, t) :: buckets.(j - jlo))
          (List.rev phase.alloc);
        (phase, buckets))
      run.schedule_phases
  in
  let segments = ref [] in
  for j = jlo to jhi - 1 do
    let t0 = run.breakpoints.(j) and t1 = run.breakpoints.(j + 1) in
    let offset = ref 0 in
    List.iter
      (fun ((phase : F.phase), buckets) ->
        if phase.procs.(j) > 0 then begin
          let entries = buckets.(j - jlo) in
          if entries <> [] then begin
            let segs, used_procs =
              Schedule.wrap_pack ~t0 ~t1 ~proc_offset:!offset ~speed:phase.speed entries
            in
            if used_procs > phase.procs.(j) then
              failwith (who ^ ": packing exceeded reservation");
            segments := segs :: !segments
          end;
          offset := !offset + phase.procs.(j)
        end)
      bucketed;
    if !offset > machines then failwith (who ^ ": reservations exceed machines")
  done;
  List.concat !segments

let schedule_of_run ~machines (run : F.run) =
  let k = Array.length run.breakpoints - 1 in
  Schedule.make ~machines
    (pack_intervals ~who:"Offline.schedule_of_run" ~machines run ~jlo:0 ~jhi:k)

(* Same (proc, t0, job) order as Schedule.make installs, so a slice equals
   the clipped full schedule segment-for-segment, in sequence. *)
let compare_segment (a : Schedule.segment) (b : Schedule.segment) =
  match Int.compare a.proc b.proc with
  | 0 -> (match Float.compare a.t0 b.t0 with 0 -> Int.compare a.job b.job | c -> c)
  | c -> c

(* Materialize only the part of a run that overlaps [lo, hi): wrap-pack
   just the grid intervals meeting the window and clip the result.  Equal
   to clipping the full [schedule_of_run] output to the window — same
   segments in the same order — but skips packing everything outside,
   which is the common case in online replanning where a plan is only
   followed until the next arrival. *)
let slice_of_run ~machines (run : F.run) ~lo ~hi =
  let bp = run.breakpoints in
  let k = Array.length bp - 1 in
  (* The intervals meeting the window are contiguous: [jlo, jhi). *)
  let jlo = ref 0 in
  while !jlo < k && not (bp.(!jlo + 1) > lo) do
    incr jlo
  done;
  let jhi = ref !jlo in
  while !jhi < k && bp.(!jhi) < hi do
    incr jhi
  done;
  pack_intervals ~who:"Offline.slice_of_run" ~machines run ~jlo:!jlo ~jhi:!jhi
  |> List.filter_map (fun (s : Schedule.segment) ->
         let t0 = Float.max s.t0 lo and t1 = Float.min s.t1 hi in
         if t1 > t0 then Some { s with t0; t1 } else None)
  |> List.sort compare_segment

(* Number of independent sub-instances every solve splits the instance
   into. *)
let component_count (inst : Job.instance) =
  List.length (F.components (float_jobs inst))

let run (inst : Job.instance) = F.solve ~machines:inst.machines (float_jobs inst)

let solve (inst : Job.instance) =
  (match Job.validate inst with
  | [] -> ()
  | _ -> invalid_arg "Offline.solve: invalid instance");
  let run = run inst in
  let schedule = schedule_of_run ~machines:inst.machines run in
  let info =
    {
      phases = run.stats.phases;
      rounds = run.stats.rounds;
      resumes = run.stats.resumes;
      removals = run.stats.removals;
      phase_resumes = run.stats.phase_resumes;
      speeds = Array.of_list (List.map (fun (p : F.phase) -> p.speed) run.schedule_phases);
    }
  in
  (schedule, info)

let optimal_schedule inst = fst (solve inst)

let optimal_energy power inst = Schedule.energy power (optimal_schedule inst)

(* Energy computed directly from the phase structure (each phase runs
   P(speed) for its total reserved time); equals the schedule energy and is
   cheaper when no schedule is needed. *)
let energy_of_run power (run : F.run) =
  Ss_numeric.Kahan.sum_list
    (List.map
       (fun (p : F.phase) ->
         Power.eval power p.speed *. F.phase_busy_time run p)
       run.schedule_phases)

(* Exact-rational replay: jobs are embedded exactly (floats are dyadic
   rationals) and the whole algorithm runs in exact arithmetic. *)
let exact_jobs (inst : Job.instance) =
  let r = Ss_numeric.Rational.of_float in
  Array.map
    (fun (j : Job.t) ->
      { Exact.release = r j.release; deadline = r j.deadline; work = r j.work })
    inst.jobs

let solve_exact (inst : Job.instance) =
  Exact.solve ~machines:inst.machines (exact_jobs inst)
