(* The host-speed reference.

   The measuring host shares its memory system with other tenants, and
   its speed for this program's kind of work drifts by tens of percent
   over seconds to minutes (the clock rate does not: a pure integer loop
   stays within a few percent).  So each untraced op is timed next to this
   fixed piece of work, and the op's time is reported in units of it.

   The reference is the benchmark's own code and never changes with the
   program.  It does the same kind of work as the solvers: a Dinic max-flow
   on a seeded random graph (flat int and float arrays, a queue, recursion),
   an allocating phase of boxed tuples in a sorted list and a balanced map,
   and scattered reads and writes over an 8 MB float array. *)

module IM = Map.Make (Int)

(* A small linear congruential generator: the reference's input is the
   same on every run and every seed. *)
let lcg state bound =
  state := ((!state * 1103515245) + 12345) land 0x3fffffff;
  !state mod bound

let maxflow () =
  let n = 30_000 and deg = 8 in
  let st = ref 12345 in
  let m = n * deg * 2 in
  let head = Array.make n (-1) and next = Array.make m 0 and dst = Array.make m 0 in
  let cap = Array.make m 0. in
  let e = ref 0 in
  let half u v c =
    dst.(!e) <- v;
    cap.(!e) <- c;
    next.(!e) <- head.(u);
    head.(u) <- !e;
    incr e
  in
  for u = 0 to n - 2 do
    for _ = 1 to deg do
      let v = u + 1 + lcg st (min 50 (n - 1 - u)) in
      half u v (float_of_int (1 + lcg st 100));
      half v u 0.
    done
  done;
  let s = 0 and t = n - 1 in
  let level = Array.make n (-1) and cursor = Array.make n 0 in
  let bfs () =
    Array.fill level 0 n (-1);
    level.(s) <- 0;
    let q = Queue.create () in
    Queue.add s q;
    while not (Queue.is_empty q) do
      let u = Queue.pop q in
      let rec scan e =
        if e >= 0 then begin
          let v = dst.(e) in
          if cap.(e) > 0. && level.(v) < 0 then begin
            level.(v) <- level.(u) + 1;
            Queue.add v q
          end;
          scan next.(e)
        end
      in
      scan head.(u)
    done;
    level.(t) >= 0
  in
  let rec augment u f =
    if u = t then f
    else begin
      let pushed = ref 0. in
      while Float.equal !pushed 0. && cursor.(u) >= 0 do
        let e = cursor.(u) in
        let v = dst.(e) in
        let d =
          if cap.(e) > 0. && level.(v) = level.(u) + 1 then augment v (Float.min f cap.(e))
          else 0.
        in
        if d > 0. then begin
          cap.(e) <- cap.(e) -. d;
          cap.(e lxor 1) <- cap.(e lxor 1) +. d;
          pushed := d
        end
        else cursor.(u) <- next.(e)
      done;
      !pushed
    end
  in
  let total = ref 0. and waves = ref 0 in
  while !waves < 6 && bfs () do
    incr waves;
    Array.blit head 0 cursor 0 n;
    let rec drain () =
      let f = augment s Float.infinity in
      if f > 0. then begin
        total := !total +. f;
        drain ()
      end
    in
    drain ()
  done;
  !total

let allocate () =
  let l = List.init 50_000 (fun i -> (float_of_int ((i * 7919) land 0xffff), i)) in
  let l = List.sort (fun (a, _) (b, _) -> Float.compare b a) l in
  let m = List.fold_left (fun m (x, i) -> IM.add (i land 0x3ffff) x m) IM.empty l in
  float_of_int (IM.cardinal m)

let scatter () =
  let n = 1_000_000 in
  let a = Array.make n 1.0 in
  let st = ref 7 and s = ref 0. in
  for _ = 1 to 1_500_000 do
    let j = lcg st n in
    s := !s +. a.(j);
    a.(j) <- !s *. 0.5
  done;
  !s

(* One run of the reference, in milliseconds of wall time. *)
let reference_ms () =
  snd (Span.time_ms (fun () -> Sys.opaque_identity (maxflow () +. allocate () +. scatter ())))

(* Times are reported as on a host where one reference run takes
   [nominal_ms]: about what it takes on the measuring host when that host
   is quiet. *)
let nominal_ms = 200.

(* Scales times by the reference runs around them.  A reference runs
   before an op once [every_ms] of op time have passed since the last one,
   and once more at the end.  Each time taken in between, of an op or of a
   set-up, is scaled by the mean of the two reference runs that bracket
   it. *)
let every_ms = 1000.

type series = Op | Setup

type t = {
  mutable last : float;  (** the latest reference run *)
  mutable since : float;  (** op time since then *)
  mutable pending : (series * float) list;  (** times waiting for the next reference run *)
  mutable scaled : (series * float) list;
}

(* Runs the first reference at once. *)
let create () = { last = reference_ms (); since = 0.; pending = []; scaled = [] }

let flush c =
  let r = reference_ms () in
  let bracket = (c.last +. r) /. 2. in
  c.scaled <- List.map (fun (k, ms) -> (k, ms *. nominal_ms /. bracket)) c.pending @ c.scaled;
  c.pending <- [];
  c.last <- r;
  c.since <- 0.

(* Call before each op: runs the reference when one is due, and tells
   whether it did. *)
let before_op c =
  let due = c.since >= every_ms in
  if due then flush c;
  due

(* Record an op's or a set-up's wall time. *)
let add c k ms =
  c.pending <- (k, ms) :: c.pending;
  if k = Op then c.since <- c.since +. ms

(* The scaled times of one series, after a last reference run. *)
let finish c k =
  if c.pending <> [] then flush c;
  List.filter_map (fun (k', ms) -> if k' = k then Some ms else None) c.scaled
