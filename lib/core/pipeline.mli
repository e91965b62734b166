(** High-level façade: the full compile-link-analyze pipeline in one
    call.  This is the entry point the examples, tools and tests use. *)

(** Which points-to solver to run over the linked database.  All four are
    implemented on the same object-file substrate — the architecture's
    selling point (Section 4). *)
type algorithm =
  | Pretransitive  (** the paper's algorithm (Section 5) — default *)
  | Worklist  (** transitively-closed Andersen baseline *)
  | Bitvector  (** bit-vector subset baseline *)
  | Steensgaard  (** unification-based baseline *)

val algorithm_name : algorithm -> string

(** The canonical names, in ladder order — for CLI error messages. *)
val algorithm_names : string list

(** Case-insensitive; also accepts the short forms [pretrans], [bitvec],
    [steens]. *)
val algorithm_of_string : string -> algorithm option

(** Compile each [(name, source)] pair and link the results, all in
    memory.  [jobs > 1] compiles translation units across a domain pool
    (compilation is file-local, so units are independent); [jobs = 0]
    means auto ({!Cla_par.Pool.resolve_jobs}).  Object and linked bytes
    are byte-identical to a sequential run regardless of [jobs].
    [undefined] (default [Ignore]) selects the linker's
    incomplete-program policy — pass {!Linkp.Open_world} to get a
    soundly havocked open-world database. *)
val compile_link :
  ?options:Compilep.options ->
  ?jobs:int ->
  ?undefined:Linkp.undef_policy ->
  (string * string) list ->
  Objfile.view

(** Compile and link C files from disk; [jobs]/[undefined] as in
    {!compile_link}. *)
val compile_link_files :
  ?options:Compilep.options ->
  ?jobs:int ->
  ?undefined:Linkp.undef_policy ->
  string list ->
  Objfile.view

(** Run the selected points-to analysis over a linked view.  [budget]
    bounds the retained assignments kept in core (pre-transitive solver
    only; see {!Loader.create}).  [deadline]/[cancel] make the solve
    abortable: on expiry or cancellation it unwinds with a typed
    {!Cla_resilience.Deadline.Timed_out} /
    {!Cla_resilience.Cancel.Cancelled} — never a partial solution.

    [Steensgaard] on an open-world database raises {!Diag.Fail}
    (unification would collapse the blob with every escaping object);
    the other algorithms treat havoc constraints like ordinary ones.

    [jobs >= 2] ([0] = auto) runs the bit-vector solver on the
    process-wide persistent domain pool ({!Cla_par.Pool.shared}),
    partitioning variable rows per pass; its solution is byte-identical
    to a sequential run at any width.  The other algorithms ignore
    [jobs]: the pre-transitive solver is the paper's single-threaded
    pass loop, and [Worklist] and [Steensgaard] are sequential too. *)
val points_to :
  ?algorithm:algorithm ->
  ?config:Pretrans.config ->
  ?demand:bool ->
  ?budget:int ->
  ?deadline:Cla_resilience.Deadline.t ->
  ?cancel:Cla_resilience.Cancel.t ->
  ?jobs:int ->
  Objfile.view ->
  Solution.t

(** Like {!points_to} with the pre-transitive solver, returning the full
    result: pass count, loader statistics, graph statistics, and the
    retained complex assignments the dependence analysis reuses. *)
val points_to_result :
  ?config:Pretrans.config ->
  ?demand:bool ->
  ?budget:int ->
  ?deadline:Cla_resilience.Deadline.t ->
  ?cancel:Cla_resilience.Cancel.t ->
  Objfile.view ->
  Andersen.result

(** The default degradation ladder:
    [Pretransitive -> Bitvector -> Steensgaard] — the paper's solver,
    then the cheaper bit-vector formulation of the same subset problem,
    then the near-linear unification analysis that always finishes. *)
val default_ladder : algorithm list

(** The ladder for open-world databases ([Pretransitive -> Bitvector]):
    unification rungs are unsupported there.  {!points_to_ladder}
    filters [Steensgaard] out of any ladder automatically when the view
    carries an open-world section. *)
val open_world_ladder : algorithm list

(** The soundness statement attached to answers from this rung
    ([lo_note] / {!Solution.provenance}'s [p_note]) — exposed so callers
    that persist a plain solve (e.g. [cla analyze --save-snapshot]) can
    label it identically. *)
val soundness_note : algorithm -> string

type ladder_outcome = {
  lo_solution : Solution.t;
  lo_algorithm : algorithm;  (** the rung that answered *)
  lo_degraded : bool;
  lo_note : string;  (** soundness statement for that rung *)
  lo_timeouts : (algorithm * Cla_resilience.Progress.t) list;
      (** rungs that timed out, with how far each got *)
}

(** Wrap an exact (non-degraded, no-timeout) solution produced by [alg]
    outside the ladder as a ladder outcome: stamps provenance and the
    ladder metrics the same way a ladder answer would.  The watch-mode
    server uses it to install incremental solves as served outcomes. *)
val outcome_of_solution : algorithm -> Solution.t -> ladder_outcome

(** Run the degradation ladder under one deadline token: each rung gets
    the remaining slice of the budget, and the final rung runs
    deadline-exempt (unless [strict]) so the ladder always returns a
    {e sound} solution, labeled with its rung via
    {!Solution.set_provenance}.  Every answer is safe to act on: the
    subset-based rungs are exact and the unification rung
    over-approximates — a degraded answer may report {e more} aliases,
    never fewer.  A [cancel] token aborts the whole ladder with
    {!Cla_resilience.Cancel.Cancelled}.  Publishes [analyze.degraded],
    [analyze.deadline_ms], [analyze.rung], [analyze.rung_timeouts] and
    [analyze.hedge]/[analyze.hedge_won].

    [~hedge:true] (with a finite deadline and at least two rungs) runs
    the final — cheapest, always-sound — rung concurrently on its own
    domain from the start, instead of only after every precise rung has
    timed out.  The first sound answer wins: a precise rung finishing
    within the deadline cancels the hedge and the outcome is exactly the
    sequential one; if every precise rung times out, the hedge's answer
    (typically already computed) is returned immediately, eliminating
    the "time out, then start the fallback from zero" latency cliff.
    Hedging never changes {e which} answer a given rung computes, only
    when the fallback starts.

    [jobs] parallelizes a bit-vector rung's solve on the shared domain
    pool, as in {!points_to}; the hedge rung itself always solves
    sequentially (it is the cheap near-linear one, and a pool task must
    not submit batches to its own pool). *)
val points_to_ladder :
  ?ladder:algorithm list ->
  ?strict:bool ->
  ?hedge:bool ->
  ?config:Pretrans.config ->
  ?demand:bool ->
  ?budget:int ->
  ?deadline:Cla_resilience.Deadline.t ->
  ?cancel:Cla_resilience.Cancel.t ->
  ?jobs:int ->
  Objfile.view ->
  ladder_outcome
