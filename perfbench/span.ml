(* In-memory span recorder for the traced runs.

   A span is (name, start, end, parent, op id).  Spans are recorded by the
   benchmark around its own calls into each layer's public functions —
   nothing inside the library is instrumented — kept in memory while the
   run measures, and written out once when it ends. *)

let now_ns () = Monotonic_clock.now ()
let ms_of_ns ns = Int64.to_float ns /. 1e6

(* Wall time of [f ()] in milliseconds, on the monotonic clock. *)
let time_ms f =
  let t0 = now_ns () in
  let r = f () in
  (r, ms_of_ns (Int64.sub (now_ns ()) t0))

type span = {
  id : int;
  name : string;
  op : int;  (** op id shared by every span of one op; -1 outside ops *)
  parent : int;  (** id of the enclosing span; -1 at top level *)
  t0 : int64;
  mutable t1 : int64;
}

type t = {
  enabled : bool;  (** false in untraced runs: spans cost nothing *)
  mutable closed : span list;  (* most recent first *)
  mutable open_ : span list;  (* innermost first *)
  mutable next_id : int;
  mutable op : int;
}

let create ~enabled = { enabled; closed = []; open_ = []; next_id = 0; op = -1 }

let with_span r name f =
  if not r.enabled then f ()
  else begin
    let parent = match r.open_ with s :: _ -> s.id | [] -> -1 in
    let s = { id = r.next_id; name; op = r.op; parent; t0 = now_ns (); t1 = 0L } in
    r.next_id <- r.next_id + 1;
    r.open_ <- s :: r.open_;
    Fun.protect
      ~finally:(fun () ->
        s.t1 <- now_ns ();
        r.open_ <- List.tl r.open_;
        r.closed <- s :: r.closed)
      f
  end

(* Run [f] as op [op]: its top-level span is named "op". *)
let with_op r op f =
  r.op <- op;
  Fun.protect ~finally:(fun () -> r.op <- -1) (fun () -> with_span r "op" f)

let spans r = List.rev r.closed
let duration_ms s = ms_of_ns (Int64.sub s.t1 s.t0)

(* Self time: a span's duration minus the time its child spans cover.
   Children of one span run one after another on the recording domain,
   so the covered time is the sum of their durations. *)
let self_ms r =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration_ms s +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    r.closed;
  fun s -> duration_ms s -. Option.value ~default:0. (Hashtbl.find_opt children s.id)

let write r file =
  let oc = open_out file in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"op\":%d,\"parent\":%d,\"start_ns\":%Ld,\"end_ns\":%Ld}\n"
            s.id s.name s.op s.parent s.t0 s.t1)
        (spans r))
