(* Named per-layer samples collected during a traced run; each metric is
   reported as the median of its samples. *)

type t = (string, float list) Hashtbl.t

let create () : t = Hashtbl.create 64

let add (t : t) name v =
  Hashtbl.replace t name (v :: Option.value ~default:[] (Hashtbl.find_opt t name))

let addi t name n = add t name (float_of_int n)
let median (t : t) name =
  Option.map (fun l -> Ss_numeric.Stats.median (Array.of_list l)) (Hashtbl.find_opt t name)
