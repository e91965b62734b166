(** One flat, order-preserving parallel map for the one parallel phase
    of the pipeline: per-unit compilation ([cla compile -j N]).

    A batch runs on the submitting domain plus up to [jobs - 1] worker
    domains, so [~jobs:1] spawns no domain and runs every item inline,
    in order: the sequential and parallel code paths are the same code,
    which is what makes the "[-j N] output is byte-identical to [-j 1]"
    guarantee cheap to keep.

    Workers are process-wide: spawned on first demand, never narrowed,
    {e parked} on a condition variable between batches and joined at
    exit, so a long-lived process pays each domain spawn once.  A batch
    is cut into a few contiguous chunks per lane; every lane claims the
    next unclaimed chunk from one shared cursor, so a slow chunk is
    compensated by the other lanes claiming more.

    {!map} preserves input order and re-raises the first (lowest-index)
    item error after the batch settles; once an item fails, unstarted
    items above it are skipped.

    Batches run one at a time: concurrent submitters (systhreads or
    domains) queue on a submit mutex.  Do not call {!map} from {e inside}
    an item of a batch — the nested batch waits for the one running it.

    Publishes [par.*] metrics into the default registry: [par.jobs] (the
    clamped width of the last batch), [par.batches], [par.tasks],
    [par.task_errors], [par.tasks_skipped], [par.lane.busy_us] /
    [par.lane.idle_us] (per-lane series, lane 0 = the submitting domain,
    lane [k] = the [k]-th worker), and a [par.queue_wait_us] histogram
    (batch-post-to-start latency per chunk) via {!Cla_obs.Histo}. *)

(** [map ~jobs f xs] applies [f] to every element of [xs] on up to
    [jobs] domains (clamped to [1 .. 64]) and returns the results
    {e in input order}.

    If any item raises, unstarted items above it are skipped and — once
    every running item has settled — the exception of the
    {e lowest-indexed} failed item is re-raised, making the error
    deterministic regardless of scheduling. *)
val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list

(** The automatic width: [Domain.recommended_domain_count () - 1]
    (at least 1) — one core is reserved for the systhreads the serve
    path runs. *)
val auto_cap : unit -> int

(** Resolve a [-j N] request: [0] means "auto" — {!auto_cap} — and
    anything negative raises [Invalid_argument] (CLI layers turn that
    into a clean [Diag]).  A positive value is capped at
    [Domain.recommended_domain_count ()]: lanes beyond the core count
    only contend for the same cores.  Spawns no domain. *)
val resolve_jobs : int -> int
