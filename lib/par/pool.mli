(** A persistent work-stealing domain pool for the parallel phases of
    the pipeline (per-unit compilation, per-section integrity checks,
    row-parallel bit-vector solving).

    The pool owns [jobs - 1] worker domains plus the submitting domain,
    which helps drain its own lane — so [~jobs:1] spawns no domains at
    all and runs every task inline, in order: the sequential and
    parallel code paths are literally the same code, which is what makes
    the "[-j N] output is byte-identical to [-j 1]" guarantee cheap to
    keep.

    Workers are spawned once at {!create} and {e parked} on a condition
    variable between batches, so a long-lived process (the CLI driving
    many passes, the server answering many queries) pays the domain
    spawn cost once, not per batch.  Batches are split into contiguous
    chunks dealt across per-domain deques; an idle domain steals the
    oldest chunk from a busy peer, so an unlucky chunk distribution
    degrades into stealing instead of idling.

    {!map} preserves input order, propagates the first (lowest-index)
    task error after the batch settles, and cancels in-flight peers
    through a per-batch {!Cla_resilience.Cancel} token: once a task
    fails, queued tasks are skipped and running tasks that poll the
    token unwind early.

    Publishes [par.*] metrics into the default registry: [par.jobs]
    (pool width), [par.batches], [par.tasks], [par.task_errors],
    [par.tasks_skipped], [par.steals] (chunks run by a domain other
    than the one they were dealt to), [par.lane.busy_us] /
    [par.lane.idle_us] / [par.lane.steals] (per-lane series, lane 0 =
    the submitting domain), and a [par.queue_wait_us] histogram
    (enqueue-to-start latency per chunk) via {!Cla_obs.Histo}.

    Each batch carries its own completion latch, so multiple domains
    may submit batches to one pool concurrently.  Do not call {!map}
    from {e inside} a task of the same pool — a task waiting on a nested
    batch occupies the lane the nested chunks need. *)

type t

(** Spawn a pool of width [jobs] (clamped to [1 .. 64]; [~jobs:1] spawns
    nothing).  Idle workers park on a condition variable — an idle pool
    costs no CPU. *)
val create : jobs:int -> t

(** The pool's width (after clamping), i.e. the maximum number of tasks
    running at once. *)
val jobs : t -> int

(** [map pool f xs] applies [f] to every element of [xs] across the
    pool and returns the results {e in input order}.

    If any task raises, the remaining queued tasks of the batch are
    skipped, the batch's cancel token is set (so running peers that
    poll it unwind), and — once every task has settled — the exception
    of the {e lowest-indexed} failed task is re-raised, making the
    error deterministic regardless of scheduling.

    [cancel] aborts the whole batch from outside: queued tasks are
    skipped and {!Cla_resilience.Cancel.Cancelled} is raised. *)
val map : ?cancel:Cla_resilience.Cancel.t -> t -> ('a -> 'b) -> 'a list -> 'b list

(** Like {!map}, but each task also receives the batch's cancel token so
    long-running task bodies can poll it ({!Cla_resilience.Cancel.check})
    and unwind as soon as a peer fails. *)
val map_token :
  ?cancel:Cla_resilience.Cancel.t ->
  t ->
  (Cla_resilience.Cancel.t -> 'a -> 'b) ->
  'a list ->
  'b list

(** Array variant of {!map} — same ordering, error and cancellation
    contract, without the list-to-array shuffling.  The solvers use this
    on hot paths. *)
val map_array : ?cancel:Cla_resilience.Cancel.t -> t -> ('a -> 'b) -> 'a array -> 'b array

(** Array variant of {!map_token}. *)
val map_array_token :
  ?cancel:Cla_resilience.Cancel.t ->
  t ->
  (Cla_resilience.Cancel.t -> 'a -> 'b) ->
  'a array ->
  'b array

(** {1 Lifecycle} *)

(** Stop the workers and join their domains.  Must not be called while
    a {!map} is in flight. *)
val shutdown : t -> unit

(** [with_pool ~jobs f]: create, run [f], always shut down. *)
val with_pool : jobs:int -> (t -> 'a) -> 'a

(** [shared ~jobs] returns the process-wide shared pool, creating it on
    first use and widening it (by replacement, between batches) if
    [jobs] exceeds the current width.  Never narrows.  The CLI, bench
    and server draw from this pool instead of spawning per-run pools so
    domain spawns are paid once per process.  Shut down automatically
    at exit. *)
val shared : jobs:int -> t

(** The automatic width: [Domain.recommended_domain_count () - 1]
    (at least 1) — one core is reserved for the supervisor/accept
    threads the serve path runs. *)
val auto_cap : unit -> int

(** Resolve a [-j N] request: [0] means "auto" — {!auto_cap} — and
    anything negative raises [Invalid_argument] (CLI layers turn that
    into a clean [Diag]).  Positive values pass through unchanged. *)
val resolve_jobs : int -> int
