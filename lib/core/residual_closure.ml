(* Residual-closure certification of a failed round: a worklist search
   backwards from the unsaturated intervals over the residual graph of
   the round's maximum flow (see the interface for the soundness
   argument).  Nodes on the worklist are intervals [j] as [j] and jobs
   [i] as [k + i]. *)

type t = {
  mutable job_mark : bool array;
  mutable ivl_mark : bool array;
  mutable queue : int array;
}

let create () = { job_mark = [||]; ivl_mark = [||]; queue = [||] }

let fit t ~n ~k =
  if Array.length t.job_mark < n then t.job_mark <- Array.make n false;
  if Array.length t.ivl_mark < k then t.ivl_mark <- Array.make k false;
  if Array.length t.queue < n + k then t.queue <- Array.make (n + k) 0

let victims t ~n ~k ~candidate ~first_ivl ~last_ivl ~sink_open ~pair_open ~pair_flowing =
  fit t ~n ~k;
  let job_mark = t.job_mark and ivl_mark = t.ivl_mark and queue = t.queue in
  Array.fill job_mark 0 n false;
  Array.fill ivl_mark 0 k false;
  let tail = ref 0 in
  for j = 0 to k - 1 do
    if sink_open j then begin
      ivl_mark.(j) <- true;
      queue.(!tail) <- j;
      incr tail
    end
  done;
  let head = ref 0 in
  while !head < !tail do
    let x = queue.(!head) in
    incr head;
    if x < k then
      (* Interval x reaches the sink slack: so does every candidate with
         a non-full edge into it. *)
      for i = 0 to n - 1 do
        if
          candidate.(i) && (not job_mark.(i))
          && first_ivl.(i) <= x && x <= last_ivl.(i)
          && pair_open i x
        then begin
          job_mark.(i) <- true;
          queue.(!tail) <- k + i;
          incr tail
        end
      done
    else begin
      (* Job i reaches it: so does every interval it sends flow into,
         along the reverse residual arc. *)
      let i = x - k in
      for j = first_ivl.(i) to last_ivl.(i) do
        if (not ivl_mark.(j)) && pair_flowing i j then begin
          ivl_mark.(j) <- true;
          queue.(!tail) <- j;
          incr tail
        end
      done
    end
  done;
  let victims = ref [] in
  for i = n - 1 downto 0 do
    if job_mark.(i) then victims := i :: !victims
  done;
  !victims
