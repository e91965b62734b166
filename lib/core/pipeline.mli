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

(** The canonical names — for CLI error messages. *)
val algorithm_names : string list

(** Case-insensitive; also accepts the short forms [pretrans], [bitvec],
    [steens]. *)
val algorithm_of_string : string -> algorithm option

(** [compile_units ~jobs compile units] maps [compile] over the
    translation units in input order.  [jobs > 1] fans out across
    [jobs] domains ({!Cla_par.Pool.map}) under one ["compile"] span;
    [jobs = 0] means auto ({!Cla_par.Pool.resolve_jobs}).  Units
    are file-local, so the results do not depend on [jobs]. *)
val compile_units : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

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

(** Run the selected points-to analysis over a linked view.  [budget]
    bounds the retained assignments kept in core (pre-transitive solver
    only; see {!Loader.create}).  [deadline]/[cancel] make the solve
    abortable: on expiry or cancellation it unwinds with a typed
    {!Cla_resilience.Deadline.Timed_out} /
    {!Cla_resilience.Cancel.Cancelled} — never a partial solution.

    [Steensgaard] on an open-world database raises {!Diag.Fail}
    (unification would collapse the blob with every escaping object);
    the other algorithms treat havoc constraints like ordinary ones.
    Every algorithm runs single-threaded. *)
val points_to :
  ?algorithm:algorithm ->
  ?config:Pretrans.config ->
  ?demand:bool ->
  ?budget:int ->
  ?deadline:Cla_resilience.Deadline.t ->
  ?cancel:Cla_resilience.Cancel.t ->
  Objfile.view ->
  Solution.t

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

(** Run the degradation ladder under one deadline token.  The paper's
    solver runs under [deadline]; if it times out, Steensgaard's
    near-linear unification answers, deadline-exempt unless [strict], so
    the ladder always returns a {e sound} solution labeled with its rung
    via {!Solution.set_provenance}.  The unification rung
    over-approximates: a degraded answer may report {e more} aliases,
    never fewer.  On an open-world view Steensgaard is unsupported, so
    the paper's solver is the only rung; it runs deadline-exempt unless
    [strict] and its answer is never degraded.  With [strict] the final
    rung's {!Cla_resilience.Deadline.Timed_out} escapes.  A [cancel]
    token aborts the ladder with {!Cla_resilience.Cancel.Cancelled} on
    every path.  Publishes [analyze.degraded], [analyze.deadline_ms],
    [analyze.rung] and [analyze.rung_timeouts]. *)
val points_to_ladder :
  ?strict:bool ->
  ?config:Pretrans.config ->
  ?demand:bool ->
  ?budget:int ->
  ?deadline:Cla_resilience.Deadline.t ->
  ?cancel:Cla_resilience.Cancel.t ->
  Objfile.view ->
  ladder_outcome
