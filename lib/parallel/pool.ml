(* Data-parallel map over OCaml 5 domains.

   One scheduler lives here, [run_batch]: each batch partitions the index
   space into per-worker ranges with a private atomic cursor, and a worker
   that drains its own range steals chunks from the other ranges, which
   keeps work balanced when item costs are skewed (e.g. memo-cache hits
   next to full solves).  It runs in two ways: [Crew], persistent worker
   domains parked on a condition variable, which keeps domain spawn/join
   cost out of the per-batch path (the dispatch throughput engine); and
   [map], one batch on domains spawned for the call (experiment cells).

   Exceptions raised by the worker function are captured and re-raised in
   the caller (first one wins); determinism of results is guaranteed
   because outputs land at their input's index. *)

let default_domains () =
  (* Leave one core for the orchestrating domain; stay modest to avoid
     oversubscription inside test runners. *)
  max 1 (min 8 (Domain.recommended_domain_count () - 1))

(* Index claims are amortized over blocks of [chunk] items: one
   fetch-and-add hands out [base, base+chunk).  n/(8*workers) keeps ~8
   claims per worker — enough slack for load balancing, few enough that
   the shared cursors stay cold when items are tiny. *)
let chunk_for ~n ~workers = max 1 (n / (8 * workers))

(* Per-batch work distribution: worker [w] owns the contiguous range
   [start.(w), hi.(w)) with a private monotonic cursor; claims (own and
   stolen alike) are a fetch-and-add of [chunk] on the range's cursor,
   so every index is claimed exactly once whatever the interleaving.
   This is a monotonic-cursor variant of a work-stealing deque: there
   is no owner/thief end distinction (and so no ABA or resizing), at
   the cost of thieves contending with the owner on the same counter —
   which only happens once a range is nearly drained.

   Two rules keep a descheduled worker from stalling the batch's early
   items.  Index 0 is reserved for the caller (worker 0), so the caller
   always evaluates at least one item, however fast the other workers
   are.  And after each own chunk, a worker steals the first chunk of
   any range whose cursor has not moved yet: its owner has not started
   (still waking, or preempted), so its early items — possibly the one
   that raises and halts the batch — do not wait for every other range
   to drain. *)
let run_batch ~workers ~steals f (arr : 'a array) (results : 'b option array)
    (error : exn option Atomic.t) =
  let n = Array.length arr in
  let start = Array.make workers 0 and hi = Array.make workers 0 in
  let per = n / workers and extra = n mod workers in
  let pos = ref 0 in
  for w = 0 to workers - 1 do
    let len = per + if w < extra then 1 else 0 in
    start.(w) <- !pos;
    hi.(w) <- !pos + len;
    pos := !pos + len
  done;
  (* Range 0 is never empty for n >= 2; its first index is the caller's. *)
  start.(0) <- 1;
  let cursors = Array.map Atomic.make start in
  let chunk = chunk_for ~n ~workers in
  (* Claim the next chunk of range [v]; [-1] when the range is dry. *)
  let claim v =
    if Atomic.get cursors.(v) >= hi.(v) then -1
    else
      let base = Atomic.fetch_and_add cursors.(v) chunk in
      if base < hi.(v) then base else -1
  in
  let eval w base stop_ =
    try
      for i = base to stop_ - 1 do
        if Atomic.get error = None then results.(i) <- Some (f w arr.(i))
      done
    with e -> ignore (Atomic.compare_and_set error None (Some e))
  in
  let steal_from w v =
    let base = claim v in
    if base >= 0 then begin
      Atomic.incr steals;
      eval w base (min hi.(v) (base + chunk))
    end;
    base >= 0
  in
  fun w ->
    if w = 0 then eval 0 0 1;
    let rescue () =
      for v = 0 to workers - 1 do
        if v <> w && Atomic.get cursors.(v) = start.(v) then ignore (steal_from w v)
      done
    in
    (* Own range first, then scan the other ranges for leftovers. *)
    let rec own () =
      if Atomic.get error = None then begin
        let base = claim w in
        if base >= 0 then begin
          eval w base (min hi.(w) (base + chunk));
          rescue ();
          own ()
        end
      end
    in
    own ();
    let rec steal v remaining =
      if remaining > 0 && Atomic.get error = None then begin
        let v = if v >= workers then 0 else v in
        if steal_from w v then steal v remaining else steal (v + 1) (remaining - 1)
      end
    in
    steal ((w + 1) mod workers) (workers - 1)

(* The batch's outcome: the first captured exception, else the results. *)
let collect error results =
  (match Atomic.get error with Some e -> raise e | None -> ());
  Array.map
    (function Some v -> v | None -> failwith "Pool: missing result (worker died)")
    results

(* --- persistent worker crews ------------------------------------------- *)

module Crew = struct
  (* One batch in flight.  The polymorphic payload ([f], input and output
     arrays) is captured inside [work], a closure indexed by worker id;
     the record itself stays monomorphic so one mutable slot serves every
     batch.  [active] counts the workers currently inside [work] — the
     submitter waits for it to reach 0, which is both the completion
     signal (all cursors drained) and the drain guarantee on error (no
     worker is mid-item when the exception is re-raised).  [live] blocks
     late joiners: a worker waking up after the batch was retired must
     not enter it. *)
  type batch = {
    work : int -> unit;
    mutable active : int;
    mutable live : bool;
  }

  type t = {
    size : int;                       (* workers, including the caller *)
    lock : Mutex.t;
    work_ready : Condition.t;
    batch_done : Condition.t;
    mutable epoch : int;
    mutable batch : batch option;
    mutable stop : bool;
    steals : int Atomic.t;            (* lifetime stolen-chunk count *)
    mutable spawned : unit Domain.t list;
  }

  let worker_loop t wid () =
    let last_seen = ref 0 in
    Mutex.lock t.lock;
    let rec loop () =
      if t.stop then Mutex.unlock t.lock
      else
        match t.batch with
        | Some b when t.epoch <> !last_seen && b.live ->
          last_seen := t.epoch;
          b.active <- b.active + 1;
          Mutex.unlock t.lock;
          b.work wid;
          Mutex.lock t.lock;
          b.active <- b.active - 1;
          Condition.broadcast t.batch_done;
          loop ()
        | _ ->
          Condition.wait t.work_ready t.lock;
          loop ()
    in
    loop ()

  let create ?domains () =
    let size =
      match domains with
      | Some d when d >= 1 -> d
      | Some _ -> invalid_arg "Pool.Crew.create: domains < 1"
      | None -> default_domains ()
    in
    let t =
      {
        size;
        lock = Mutex.create ();
        work_ready = Condition.create ();
        batch_done = Condition.create ();
        epoch = 0;
        batch = None;
        stop = false;
        steals = Atomic.make 0;
        spawned = [];
      }
    in
    t.spawned <- List.init (size - 1) (fun i -> Domain.spawn (worker_loop t (i + 1)));
    t

  let size t = t.size
  let steals t = Atomic.get t.steals

  let mapw t f arr =
    let n = Array.length arr in
    if n = 0 then [||]
    else if t.size = 1 || n = 1 || t.stop then
      (* Inline fast path (and graceful fallback after [shutdown]): run on
         the calling domain, which is always crew worker 0. *)
      Array.map (f 0) arr
    else begin
      let results = Array.make n None in
      let error = Atomic.make None in
      let work = run_batch ~workers:t.size ~steals:t.steals f arr results error in
      let b = { work; active = 0; live = true } in
      Mutex.lock t.lock;
      t.epoch <- t.epoch + 1;
      t.batch <- Some b;
      b.active <- b.active + 1 (* the caller participates as worker 0 *);
      Condition.broadcast t.work_ready;
      Mutex.unlock t.lock;
      b.work 0;
      Mutex.lock t.lock;
      b.active <- b.active - 1;
      Condition.broadcast t.batch_done;
      while b.active > 0 do
        Condition.wait t.batch_done t.lock
      done;
      (* Retire the batch before releasing the lock so a late-waking
         worker cannot join it after we have returned. *)
      b.live <- false;
      t.batch <- None;
      Mutex.unlock t.lock;
      collect error results
    end

  let map t f arr = mapw t (fun _ x -> f x) arr

  let shutdown t =
    Mutex.lock t.lock;
    if not t.stop then begin
      t.stop <- true;
      Condition.broadcast t.work_ready;
      Mutex.unlock t.lock;
      List.iter Domain.join t.spawned;
      t.spawned <- []
    end
    else Mutex.unlock t.lock
end

(* One batch of the crew's scheduler on freshly spawned domains that run
   it and exit — no parking, so no wake-up chain between publishing the
   batch and its first claims.  Singletons and one-domain calls never touch
   the domain machinery — no spawn, no atomics, not even the
   recommended-domain-count query: [f] runs on the calling domain. *)
let map ?domains f arr =
  let n = Array.length arr in
  let workers =
    if n <= 1 then 1
    else max 1 (min n (match domains with Some d -> d | None -> default_domains ()))
  in
  if workers = 1 then Array.map f arr
  else begin
    let results = Array.make n None and error = Atomic.make None in
    let work = run_batch ~workers ~steals:(Atomic.make 0) (fun _ x -> f x) arr results error in
    let spawned = List.init (workers - 1) (fun w -> Domain.spawn (fun () -> work (w + 1))) in
    work 0;
    List.iter Domain.join spawned;
    collect error results
  end
