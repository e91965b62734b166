(** The resilient query server behind [cla serve]: a Unix-domain-socket,
    line-oriented JSON server over one linked CLA database.

    Resilience layers, in the order a query meets them: bounded
    admission (429-style shedding past [max_inflight]+[max_queue]); a
    per-query {!Cla_resilience.Deadline} polled by the solver ladder; a
    watchdog thread that fires the query's {!Cla_resilience.Cancel}
    token [watchdog_grace_ms] past the deadline so even a query that
    dodges its deadline checks is aborted and its slot recycled; and
    graceful drain on SIGINT/SIGTERM.  Waiters block on conditions; the
    watchdog's 20ms tick is the one timer that wakes them to re-check
    their deadlines and the drain flag.

    Every query answers from one answer cell: the current non-degraded
    outcome, thawed from a snapshot, solved live or swapped in by watch
    mode — steady-state queries are lock-free lookups.  While the cell
    is empty, the first query leads one solve and the others wait for
    it (single flight); [fresh] queries bypass the cell.  Every solve
    runs on a supervised solver shard; with every shard down, a query
    the cell cannot answer gets a 503 error. *)

type config = {
  socket_path : string;
  max_inflight : int;  (** queries executing at once *)
  max_queue : int;  (** queries allowed to wait; beyond -> shed *)
  default_deadline_ms : int;
      (** when the request names none; a named deadline is capped at
          60 s *)
  watchdog_grace_ms : int;  (** cancel fires this long after the deadline *)
  allow_sleep : bool;  (** enable the debug [sleep] op (load tests) *)
  shards : int;
      (** solver shards, fed round-robin, each with its own queue and a
          supervised worker domain that runs while the shard has work.
          [1] (the default) is one solver domain; more let [fresh] and
          concurrent solves run side by side (systhreads share one
          runtime lock per domain, so solvers must be domains to run
          concurrently).  Answers never depend on the count. *)
  query_log : string option;
      (** append one JSONL line per finished query (op, outcome, shard,
          queue/solve/total timings, rung, cache hit) *)
  trace_path : string option;
      (** at drain, write the recent-query ring as a Chrome trace, one
          lane per shard *)
  ring_capacity : int;
      (** recent-query ring size; also bounds the serve-path series
          ([serve.recent_total_us]) *)
  snapshot_path : string option;
      (** thaw a persisted {!Cla_core.Snapshot} at startup into the
          answer cell, so every non-[fresh] query answers from it
          without a solve.  A corrupt, truncated, version-bumped or
          wrongly-bound snapshot is rejected ([load.corrupt] diagnostic
          on stderr) and the server falls back to live solves — never a
          wrong answer. *)
  supervise : bool;
      (** run the shard supervisor: heartbeat the worker domains,
          restart dead or wedged ones (queued jobs survive the restart),
          under the restart budget below.  On by default; [bench chaos
          --inject-no-supervise] turns it off to prove the gate bites. *)
  heartbeat_grace_ms : int;
      (** a busy shard whose heartbeat is older than this is declared
          wedged and superseded *)
  restart_budget : int;
      (** circuit breaker: after this many restarts inside
          [restart_window_ms] the shard stays down and dispatch routes
          around it *)
  restart_window_ms : int;  (** the breaker's sliding window *)
  watch_poll_ms : int;  (** watch-mode poll period *)
  save_snapshot : string option;
      (** rewrite this snapshot sidecar after every non-degraded swap
          (and at watch-mode boot), so the served answer stays backed by
          a snapshot of the new view — restart cost stays one file read
          as the watched tree evolves.  Without it, a swap under
          [snapshot_path] marks the thawed snapshot stale
          ([serve.snapshot_stale], one diagnostic) and the swapped-in
          live answer takes over. *)
}

val default_config : config

type stats = {
  mutable s_queries : int;  (** request lines received *)
  mutable s_ok : int;
  mutable s_shed : int;
  mutable s_timeout : int;  (** deadline and watchdog aborts *)
  mutable s_error : int;
  mutable s_bye : int;  (** requests refused during drain *)
  mutable s_degraded : int;  (** ok answers from a fallback rung *)
  mutable s_watchdog_cancels : int;
  mutable s_connections : int;
  mutable s_shard_restarts : int;  (** supervisor respawns (dead or wedged) *)
  mutable s_shards_down : int;  (** shards the circuit breaker gave up on *)
}

(** The stats as labeled counters, for reports and the [stats] op. *)
val stats_counters : stats -> (string * int) list

type t

(** Flip the drain flag: the accept loop stops, in-flight queries
    finish, further request lines get a ["bye"].  Safe to call from a
    signal handler or another thread. *)
val request_shutdown : t -> unit

(** Fault injection for the chaos harness: make shard [i]'s worker
    domain die (its alive sentinel clears; the supervisor respawns it
    over the surviving queue).  [false] when [i] is out of range.  The fault is an ordinary queue entry, so it
    lands when the worker next pops — deterministic, no signals. *)
val chaos_kill_shard : t -> int -> bool

(** Make shard [i]'s worker sit busy without heartbeats for [wedge_ms]
    — the supervisor declares it wedged once the grace passes and
    supersedes it. *)
val chaos_wedge_shard : t -> int -> wedge_ms:int -> bool

(** Serve queries over [view] until SIGINT/SIGTERM (or
    {!request_shutdown}), then drain and return the final counters.
    Raises [Sys_error] when the socket path holds a live server or a
    file that is not a socket; nothing is left open then.
    [on_ready] runs once the socket is listening — tests use it to
    launch clients, and it receives the server handle so an embedded
    caller can stop the server without a signal.  Installs handlers for
    SIGINT/SIGTERM and ignores SIGPIPE. *)
val run : ?config:config -> ?on_ready:(t -> unit) -> Cla_core.Objfile.view -> stats

(** Like {!run}, but over a watched directory of [.c] / [.clo] files
    instead of a pre-linked database: compile-link-analyze it once,
    serve, and keep the served solution in sync with edits.  A poll
    thread stats the directory's [.c] / [.clo] / [.h] files every
    [watch_poll_ms]; on change it recompiles only the edited units
    (direct-mode probe — [compile.cache.hits]), delta-links,
    delta-solves ({!Cla_core.Incremental}) and atomically swaps the
    served solution.  The [reanalyze] protocol op always rescans, stat
    signature or not, so it also sees an edited header outside the
    directory; a rescan that finds nothing changed swaps nothing.  A
    broken edit (unparsable source) keeps the last consistent solution
    serving.  Raises [Sys_error] when the directory holds nothing to
    analyze. *)
val run_watch : ?config:config -> ?on_ready:(t -> unit) -> string -> stats
