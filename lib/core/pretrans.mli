(** The pre-transitive graph engine — the paper's second contribution
    (Section 5, Figure 5).

    The constraint graph is {e never} transitively closed.  An edge
    [a -> b] means [pts(a) ⊇ pts(b)]; each node carries the
    [baseElements] contributed by [x = &y] assignments.  Points-to sets
    are computed on demand by graph reachability ({!get_lvals}), made fast
    by per-pass caching of reachability results and by unifying every
    cycle met during a traversal (skip pointers with incremental
    de-skipping — detection is free, and exactly the cycles in the parts
    of the graph the analysis looks at are eliminated). *)

type config = {
  cache : bool;  (** reuse reachability results within a pass *)
  cycle_elim : bool;  (** unify the nodes of traversed cycles *)
}

(** Both optimizations on — the paper's configuration.  Turning either off
    reproduces the Section 5 ablation ("slow down by a factor in excess of
    50K ... when both of these components are turned off"). *)
val default_config : config

type t

(** [create ~config ~nodes ()] builds a graph whose node ids
    [0 .. nodes-1] are pre-allocated (conventionally the variable ids of a
    linked database); more nodes can be added with {!fresh_node}.
    [dense_threshold] is forwarded to the solver's lval-set pool (see
    {!Lvalset.create_pool}). *)
val create : ?config:config -> ?dense_threshold:int -> nodes:int -> unit -> t

(** Number of nodes allocated so far. *)
val n_nodes : t -> int

(** Allocate a fresh node (used for the [n_*y] dereference nodes and for
    splitting [*x = *y]). *)
val fresh_node : t -> int

(** [add_edge t a b] adds [a -> b] ([pts(a) ⊇ pts(b)]).  Returns [true] if
    the edge is new — the driver's [nochange] flag (Figure 5).  Edges are
    deduplicated against the canonical (de-skipped) endpoints. *)
val add_edge : t -> int -> int -> bool

(** [add_base t x z] records [x = &z]: location [z] joins
    [baseElements(x)]. *)
val add_base : t -> int -> int -> unit

(** Start a new pass over the complex assignments: flushes the
    reachability cache and the lval-set sharing pool.  Stale reads within
    a pass are sound because the driver iterates until [nochange]. *)
val new_pass : t -> unit

(** Flush the lval-set sharing pool alone, keeping every memo: bounds
    the pool of a graph whose memos live across many solves (a resumed
    state, which never calls {!new_pass}).  Sets already handed out stay
    valid; they are just no longer shared with sets built afterwards. *)
val flush_pool : t -> unit

(** [get_lvals t n] — Figure 5's [getLvals]: the set of locations [&z]
    derivable from node [n], computed by reachability over the
    pre-transitive graph.  With [config.cache] the result is memoized for
    the rest of the current pass. *)
val get_lvals : t -> int -> Lvalset.t

(** {1 Delta invalidation (incremental re-solve)}

    Support for resuming a solve after new edges are added to the graph
    (the delta-solve path).  The per-pass reachability memo normally
    survives only until {!new_pass}; to keep it instead, every memo
    entry whose node can reach a changed node must be invalidated after
    each batch of changes — a stale memo there would hide the new lvals
    and let the driver converge prematurely.  Reverse reachability needs
    predecessor lists, which the graph does not keep by default. *)

(** Start (or keep) maintaining predecessor lists.  Idempotent; on first
    call the lists are rebuilt from the live forward edges, after which
    {!add_edge} and cycle unification keep them current.  Unification
    over-approximates (stale ids are kept), which is sound for
    invalidation. *)
val enable_pred_tracking : t -> unit

(** [invalidate_reaching t seeds] clears the pass memo of every node
    that can reach any seed (including the seeds), by reverse BFS over
    the predecessor lists.  Returns the number of memo entries dropped.
    Requires {!enable_pred_tracking} to have been called before the
    edges now being invalidated were added (or rebuilt over them). *)
val invalidate_reaching : t -> int list -> int

(** Install (or clear) the cooperative-interruption hook: a callback
    polled periodically {e inside} the {!get_lvals} reachability walk, so
    a deadline or cancel token can abort a long traversal and not just a
    pass boundary.  The callback aborts by raising; aborting mid-walk is
    safe — cycle unification is deferred to the end of the walk, memo
    entries are only written for completed SCCs, and the per-query
    versioning of the traversal state invalidates the rest on the next
    query. *)
val set_interrupt : t -> (unit -> unit) option -> unit

(** Graph and query statistics.  The structural counters ([nodes],
    [edges], [unified]) mirror the live graph and grow monotonically over
    its lifetime; the query-side counters ([queries], [visits],
    [cache_hits]) grow monotonically between calls to {!reset_stats}.

    Invariants:
    - [cache_hits <= queries] — a hit is one kind of query outcome;
    - [unified <= nodes] — a node is unified away at most once;
    - [visits >= queries - cache_hits] — every non-cached query visits at
      least its root node. *)
type stats = {
  nodes : int;
  edges : int;
  unified : int;  (** nodes eliminated by cycle unification *)
  queries : int;  (** [get_lvals] calls *)
  visits : int;  (** nodes visited during reachability *)
  cache_hits : int;  (** queries answered from the per-pass memo *)
  pool_hits : int;  (** lval-set pool lookups answered by sharing *)
  pool_misses : int;  (** distinct lval sets interned *)
  pool_small : int;  (** interned sets in the sorted-array representation *)
  pool_dense : int;  (** interned sets in the bitmap representation *)
}

val stats : t -> stats

(** Zero the query-side counters ([queries], [visits], [cache_hits]); the
    structural counters describe the graph itself and are not
    resettable. *)
val reset_stats : t -> unit

(** Publish a stats record into the metrics registry (default
    {!Cla_obs.Metrics.default}) under [analyze.pretrans.*] (graph and
    query counters) and [analyze.pool.*] (lval-set sharing-pool
    counters). *)
val publish_stats : ?reg:Cla_obs.Metrics.t -> stats -> unit
