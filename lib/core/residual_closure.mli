(** Certification of a failed round of the Fig. 2 round loop, applied
    across the residual graph of the round's maximum flow.

    Lemma 4: a candidate with a non-full edge into an unsaturated interval
    does not belong to the phase's class, for any maximum flow.  The
    closure extends this to every candidate that can {e reach} an
    unsaturated interval in the residual graph — through non-full
    job->interval edges forwards and flow-carrying ones backwards.  Such
    a candidate's source edge is saturated (else the path would augment),
    so rerouting a small amount of flow along the path, and taking it off
    one of the candidate's flow-carrying edges, gives another maximum flow
    in which Lemma 4 certifies the candidate directly.  The Lemma 4
    victims are the closure's first step, so the closure contains them.

    The rule is field- and substrate-free: it sees the flow only through
    boolean reads, so the dense network and the compressed sweep oracle
    share it. *)

type t
(** Grow-only scratch (marks and the worklist), reused across calls. *)

val create : unit -> t

val victims :
  t ->
  n:int ->
  k:int ->
  candidate:bool array ->
  first_ivl:int array ->
  last_ivl:int array ->
  sink_open:(int -> bool) ->
  pair_open:(int -> int -> bool) ->
  pair_flowing:(int -> int -> bool) ->
  int list
(** The candidates that reach an unsaturated interval in the residual
    graph, in increasing index order.  Job [i] (a [candidate.(i)]) has
    window [first_ivl.(i) .. last_ivl.(i)] over intervals [0 .. k-1];
    [sink_open j] says interval [j] has reserved capacity it does not
    use, [pair_open i j] that edge [i->j] is not full and
    [pair_flowing i j] that it carries positive flow.  The search starts
    at the [sink_open] intervals, goes from interval [j] to every
    candidate [i] with [pair_open i j], and from candidate [i] to every
    interval [j] of its window with [pair_flowing i j].  Empty iff no
    interval is open or no open interval has a non-full candidate edge. *)
