(** Andersen's analysis over the pre-transitive graph, with demand-driven
    loading from the CLA database — the paper's headline configuration.

    Most callers want {!solve}; {!init} and {!pass} expose the iteration
    (Figure 5's outer loop) for callers that observe each pass. *)

(** In-flight analysis state: the pre-transitive graph, the demand
    loader and the complex assignments kept in core. *)
type t

(** The state's demand loader (replaced wholesale by {!resume}). *)
val loader : t -> Loader.t

(** [block_active st v]: the solver has requested variable [v]'s block
    (its points-to set may be non-empty). *)
val block_active : t -> int -> bool

(** Convergence counters for one pass of Figure 5's loop. *)
type pass_stats = {
  ps_pass : int;  (** 1-based pass number *)
  ps_edges_added : int;
  ps_lvals_discovered : int;
      (** new lvals fed to difference propagation (complex assignments
          and indirect-call linking) *)
  ps_unified : int;  (** nodes unified away by cycle elimination *)
  ps_queries : int;  (** [get_lvals] calls issued during the pass *)
  ps_changed : bool;
  ps_wall_s : float;  (** wall-clock time of the pass *)
}

(** Load the static section (and, in demand mode, the blocks it activates)
    and set up the iteration state.  [demand=false] loads every block up
    front.  [budget] bounds the retained assignments kept in core (see
    {!Loader.create}): blocks evicted by the loader are dropped at pass
    boundaries and transparently re-loaded before the next pass, so every
    pass still checks the complete constraint set and the fixpoint — a
    pass with no change — is identical to the unbounded run.

    [deadline] and [cancel] make the iteration abortable: both tokens
    are polled at every pass boundary and, via the {!Pretrans}
    interruption hook, inside the [get_lvals] traversal loops.  On
    expiry or cancellation the analysis unwinds with a typed
    {!Cla_resilience.Deadline.Timed_out} /
    {!Cla_resilience.Cancel.Cancelled} carrying the pass count and the
    last pass's convergence counters — never a partial solution. *)
val init :
  ?config:Pretrans.config ->
  ?demand:bool ->
  ?budget:int ->
  ?deadline:Cla_resilience.Deadline.t ->
  ?cancel:Cla_resilience.Cancel.t ->
  Objfile.view ->
  t

(** One pass of Figure 5's iteration algorithm (complex assignments, then
    analysis-time indirect-call linking).  Returns [true] if the graph
    changed — iterate until it does not.  The pass is single-threaded,
    as in the paper: each [get_lvals] is one reachability walk over the
    live graph.  It starts by flushing the reachability memos
    ({!Pretrans.new_pass}); the passes {!resume} runs keep them
    instead. *)
val pass : t -> bool

type result = {
  solution : Solution.t;
  passes : int;
  loader_stats : Loader.stats;
  graph_stats : Pretrans.stats;
  pass_log : pass_stats list;
      (** per-pass convergence counters, first pass first *)
  retained : Objfile.prim_rec list;
      (** complex assignments kept in core; input to the dependence
          analysis *)
  linked_copies : (int * int * Cla_ir.Loc.t) list;
      (** analysis-time copies added while linking indirect calls *)
  alloc_bytes : float;
      (** bytes allocated on the OCaml heap over the whole solve
          ([Gc.allocated_bytes] delta); published as
          [analyze.alloc_bytes] *)
  extract_recomputed : int;
      (** queries of the extraction sweep that no reachability memo
          answered; published as [analyze.extract.recomputed] *)
}

(** Run to fixpoint and extract the points-to set of every variable.
    Recorded as an ["analyze"] span (children ["analyze.init"], one
    ["analyze.pass"] per pass, ["analyze.extract"]); the result is
    published into the metrics registry: [analyze.passes],
    [analyze.alloc_bytes], [analyze.extract.recomputed],
    [analyze.pretrans.*], [analyze.pool.*],
    [load.blocks.*], and the per-pass convergence series
    [analyze.pass.*]. *)
val solve :
  ?config:Pretrans.config ->
  ?demand:bool ->
  ?budget:int ->
  ?deadline:Cla_resilience.Deadline.t ->
  ?cancel:Cla_resilience.Cancel.t ->
  Objfile.view ->
  result

(** {!solve} that also returns the iteration state, so a later
    constraint delta can be solved incrementally with {!resume}. *)
val solve_state :
  ?config:Pretrans.config ->
  ?demand:bool ->
  ?budget:int ->
  ?deadline:Cla_resilience.Deadline.t ->
  ?cancel:Cla_resilience.Cancel.t ->
  Objfile.view ->
  t * result

(** {1 Delta solving}

    [resume st ~view ~delta] re-solves after a {!Linkp.relink} produced
    [view] and a {b pure-add} [delta] against the view [st] was solved
    on.  The previous fixpoint's graph, complexes, difference-propagation
    sets and — crucially — its reachability memos all survive, and
    nothing in the resume flushes them: after the delta is applied, and
    again after every resumed pass that changed the graph, exactly the
    memos those changes can affect are invalidated (reverse
    reachability from the changed nodes, {!Pretrans.invalidate_reaching}).
    The final pass changes nothing, so the extraction sweep reads the
    memos it leaves and recomputes only what was invalidated.  The
    result's [solution] is indexed by the NEW view's variable ids and
    equals a from-scratch {!solve} of [view]; its [passes] and
    [pass_log] count this resume's passes only.  Publishes the result
    like {!solve}, plus [pretrans.delta.resumes] and the resume's totals
    over the delta and all its passes, [pretrans.delta.seeds] and
    [pretrans.delta.invalidated].

    Returns [None] — bumping [pretrans.delta.fallbacks], with the
    reason in [pretrans.delta.fallback_reason] — when the resume cannot
    be done soundly: the delta removes constraints or forced a full
    relink; it was not computed against [st]'s view; [st]'s loader is
    budgeted; or a FUNDEF was added for a pre-existing variable (an
    indirect call's difference propagation may already have consumed
    that variable and would never re-examine it).  The caller then
    re-solves from scratch.  On [Some _], [st] is updated in place and
    can absorb further deltas; on [None] it is unchanged and still
    valid for its old view. *)
val resume :
  t ->
  view:Objfile.view ->
  delta:Linkp.delta ->
  result option
