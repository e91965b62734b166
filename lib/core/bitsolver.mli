(** Baseline: subset-based points-to analysis over bit vectors — the
    paper mentions "an implementation based on bit-vectors" among the
    analyses built on the CLA substrate (Section 4).

    The location space is compressed to the address-taken objects; the
    solver iterates all constraints to a fixpoint.  Simple and a useful
    differential oracle for the pre-transitive solver. *)

(** [deadline]/[cancel] are polled at every fixpoint round and every few
    hundred constraint applications, aborting with a typed
    {!Cla_resilience.Deadline.Timed_out} / {!Cla_resilience.Cancel.Cancelled}.

    [jobs] (default 1; at least 2 to take effect) runs each round
    row-parallel: copy/load constraints write only their destination
    row, so they are grouped by destination and partitioned across
    [jobs] domains ({!Cla_par.Pool.map_array}) with per-chunk dirty
    bitmaps merged at the pass barrier; store constraints and indirect
    calls, which write rows they do not own, run single-threaded after
    the barrier.  The iteration converges to the same unique least
    fixpoint, so the returned {!Solution} is byte-identical to a
    sequential solve — round counts may differ, the answer may not.
    [jobs <= 1] runs the sequential baseline.  This is the one solver
    with a parallel solve: the pre-transitive solver ({!Andersen}) runs
    the paper's single-threaded pass loop. *)
val solve :
  ?deadline:Cla_resilience.Deadline.t ->
  ?cancel:Cla_resilience.Cancel.t ->
  ?jobs:int ->
  Objfile.view ->
  Solution.t
