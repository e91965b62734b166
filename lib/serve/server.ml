(** The resilient query server behind [cla serve].

    A Unix-domain-socket, line-oriented JSON server over one linked CLA
    database.  Resilience machinery, in the order a query meets it:

    - {b admission control}: at most [max_inflight] queries execute at
      once; up to [max_queue] more may wait (blocked until a slot frees,
      their own deadline passes or drain starts); beyond that the query
      is refused immediately with a 429-style ["shed"] response —
      overload degrades into fast refusals, never into unbounded
      queueing;
    - {b per-query deadline}: every admitted query carries a
      {!Cla_resilience.Deadline} token (client-requested, capped), which
      the solver ladder polls at pass boundaries and traversal loops;
    - {b watchdog}: a background thread sets the query's
      {!Cla_resilience.Cancel} token [watchdog_grace_ms] after the
      deadline — if a poisoned query somehow outruns its deadline
      checks, the cancel token aborts it at the next poll point and the
      slot is recycled.  Its 20ms tick is the server's one timer: it
      also wakes every blocked waiter to re-check its deadline and the
      drain flag, and supervises the solver shards;
    - {b graceful drain}: SIGINT/SIGTERM stop the accept loop, let
      in-flight queries finish (new lines get a ["bye"]), then the
      socket is removed and [run] returns its final counters.

    Every query answers from one answer cell: the current non-degraded
    outcome, whether thawed from a snapshot, solved live, or swapped in
    by watch mode.  While the cell is empty the first query leads one
    solve and the others wait for it (single flight).  Every solve —
    the leader's or a [fresh] query's — runs on a supervised solver
    shard (a worker domain), so a stuck solve delays answers but cannot
    wedge them. *)

open Cla_core
module R = Cla_resilience
module Json = Cla_obs.Json

type config = {
  socket_path : string;
  max_inflight : int;  (** queries executing at once *)
  max_queue : int;  (** queries allowed to wait; beyond -> shed *)
  default_deadline_ms : int;  (** when the request names none *)
  watchdog_grace_ms : int;  (** cancel fires this long after the deadline *)
  allow_sleep : bool;  (** enable the debug [sleep] op (load tests) *)
  shards : int;  (** solver shards, each a supervised domain *)
  query_log : string option;  (** JSONL sink, one line per query *)
  trace_path : string option;  (** Chrome trace of recent queries at drain *)
  ring_capacity : int;  (** recent-query ring (query log + trace + series) *)
  snapshot_path : string option;
      (** thaw a persisted solution at startup; corrupt or mismatched
          snapshots are rejected ([load.corrupt]) and the server falls
          back to live solves *)
  supervise : bool;  (** restart dead/wedged shard workers on the tick *)
  heartbeat_grace_ms : int;
      (** a busy shard whose heartbeat is older than this is wedged *)
  restart_budget : int;  (** circuit breaker: max restarts per window *)
  restart_window_ms : int;  (** the breaker's sliding window *)
  watch_poll_ms : int;  (** watch-mode poll period *)
  save_snapshot : string option;
      (** rewrite this snapshot after every non-degraded swap, so the
          served answer stays snapshot-backed — restart cost stays one
          file read even as the watched tree evolves *)
}

(* The cap on client-requested deadlines. *)
let max_deadline_ms = 60_000

let default_config =
  {
    socket_path = "cla.sock";
    max_inflight = 4;
    max_queue = 16;
    default_deadline_ms = 2000;
    watchdog_grace_ms = 200;
    allow_sleep = false;
    shards = 1;
    query_log = None;
    trace_path = None;
    ring_capacity = 256;
    snapshot_path = None;
    supervise = true;
    heartbeat_grace_ms = 30_000;
    restart_budget = 5;
    restart_window_ms = 60_000;
    watch_poll_ms = 500;
    save_snapshot = None;
  }

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

let stats_counters s =
  [
    ("serve.queries", s.s_queries);
    ("serve.ok", s.s_ok);
    ("serve.shed", s.s_shed);
    ("serve.timeouts", s.s_timeout);
    ("serve.errors", s.s_error);
    ("serve.bye", s.s_bye);
    ("serve.degraded", s.s_degraded);
    ("serve.watchdog_cancels", s.s_watchdog_cancels);
    ("serve.connections", s.s_connections);
    ("serve.shard_restarts", s.s_shard_restarts);
    ("serve.shards_down", s.s_shards_down);
  ]

(* Per-query telemetry, filled in as the query moves through admission,
   dispatch and solve; durations in monotonic nanoseconds
   ([R.Deadline.now_ns]). *)
type qctx = {
  mutable qc_shard : int;  (* -1: answered without a shard *)
  mutable qc_queue_ns : int;  (* admission wait *)
  mutable qc_solve_ns : int;  (* 0 when no solve ran (cache hit, ping) *)
  mutable qc_cache_hit : bool;
  mutable qc_rung : string;  (* "" when no ladder ran *)
  mutable qc_degraded : bool;
}

(* One finished query, as kept in the recent ring / query log / trace. *)
type query_event = {
  qe_start_ns : int;  (* monotonic *)
  qe_op : string;
  qe_outcome : string;  (* ok / shed / timeout / error / bye *)
  qe_shard : int;
  qe_queue_ns : int;
  qe_solve_ns : int;
  qe_total_ns : int;
  qe_rung : string;
  qe_degraded : bool;
  qe_cache_hit : bool;
}

(* Why a query got no outcome: its deadline or cancel token fired (a
   timeout reply), or no solver shard is left to run its solve (a 503). *)
type failure = Aborted of R.Progress.t | No_shard

(* One solve handed to a solver shard.  [j_started] and [j_reply] are
   guarded by the server's [m]; the submitting thread blocks on [wake]
   until the reply lands.  Before the shard picks the job up
   ([j_started]) the waiter may abandon it on its own deadline/cancel,
   after which the shard skips it. *)
type job = {
  j_view : Objfile.view;
  j_deadline : R.Deadline.t;
  j_cancel : R.Cancel.t;
  mutable j_started : bool;
  mutable j_solve_ns : int;
  mutable j_reply : (Pipeline.ladder_outcome, failure) result option;
}

(* Fault-injection entries for the chaos harness: [Chaos_kill] makes the
   worker domain die (its body raises, the alive sentinel clears) and
   [Chaos_wedge ms] makes it sit heartbeat-less for [ms] — the two
   failure modes supervision must recover from, injectable on demand. *)
type entry = Job of job | Chaos_kill | Chaos_wedge of int

(* A solver shard: its own queue and worker domain.  Each solve builds
   fresh solver state over the job's immutable view, so shards solve
   truly concurrently — systhreads share one runtime lock per domain,
   which is why solvers must be domains to run side by side.

   The worker domain runs only while the shard has work: the first
   enqueue starts it, and it exits after [idle_ticks] ticks with an
   empty queue.  An idle domain is not free — every minor
   collection of the serving domain has to stop it too — and once the
   answer cell is filled most servers never solve again.

   The queue and supervision state belong to the {e shard}, not the
   domain: a respawned domain inherits them, so queued jobs survive a
   restart.  Everything mutable is guarded by [sh_m] except [sh_busy],
   an atomic the worker domain flips around each entry. *)
type shard = {
  sh_id : int;
  sh_m : Mutex.t;
  sh_c : Condition.t;  (* an entry arrived, or a tick *)
  sh_q : entry Queue.t;
  mutable sh_running : bool;  (* a worker domain owns the queue *)
  mutable sh_down : bool;  (* circuit breaker tripped: dispatch skips it *)
  mutable sh_doing : job option;  (* in-flight job, for restart re-queue *)
  sh_busy : bool Atomic.t;  (* worker between pop and reply *)
  sh_sup : Cla_par.Supervised.t;
}

(* Ticks (20ms each) an idle worker domain waits before it exits. *)
let idle_ticks = 2

(* Where the served outcome came from: a snapshot (thawed at startup or
   rewritten by [save_snapshot]) or a live solve or swap. *)
type origin = From_snapshot | Live

(* The answer cell: the view queries resolve against and, once known,
   its non-degraded outcome.  [c_epoch] counts watch-mode swaps.  A
   solve publishes only into the very cell it started from
   ([Atomic.compare_and_set]), so a swap while it ran drops its stale
   outcome. *)
type cell = {
  c_epoch : int;
  c_view : Objfile.view;
  c_answer : (Pipeline.ladder_outcome * origin) option;
}

(* Watch-mode state: the persistent incremental pipeline over the
   watched directory plus the last stat signature of its [.c]/[.clo]/[.h]
   files.  [wa_m] serializes rescans (the poll thread and concurrent
   [reanalyze] requests); everything below it is protected by it. *)
type watcher = {
  wa_dir : string;
  wa_m : Mutex.t;
  wa_inc : Incremental.t;
  mutable wa_sig : (string * int * float) list;  (* (path, size, mtime) *)
}

type t = {
  cfg : config;
  cell : cell Atomic.t;
  stats : stats;
  stats_m : Mutex.t;
  (* [m] guards admission, the watchdog registry, the solve flight, job
     replies and the connection count.  [slot] is signalled, one waiter
     at a time, when an execution slot frees; [wake] is broadcast when
     anything else moves.  Every tick broadcasts both. *)
  m : Mutex.t;
  slot : Condition.t;
  wake : Condition.t;
  mutable inflight : int;
  mutable waiting : int;
  (* watchdog registry: query serial -> (cancel token, abort instant) *)
  wd : (int, R.Cancel.t * float) Hashtbl.t;
  mutable serial : int;
  mutable flying : bool;  (* a leader is solving for the empty cell *)
  mutable live_conns : int;
  shard_tab : shard array;
  rr : int Atomic.t;  (* round-robin dispatch counter *)
  mutable watcher : watcher option;  (* set by [run_watch] before serving *)
  mutable snapshot_stale : bool;  (* the staleness diagnostic fired once *)
  shutdown : bool Atomic.t;
  stopped : bool Atomic.t;  (* tick terminator, set after drain *)
  (* telemetry: one registry per shard (index 0 doubles as the registry
     of queries no shard answered) so recording never touches the
     global [Metrics.default] mutex; histogram handles are fetched once
     here so the per-query path is lock-free atomic increments *)
  started_s : float;  (* monotonic, for uptime *)
  shard_regs : Cla_obs.Metrics.t array;
  lat_h : Cla_obs.Histo.t array;  (* total latency, ns *)
  queue_h : Cla_obs.Histo.t array;  (* admission wait, ns *)
  solve_h : Cla_obs.Histo.t array;  (* solver wall, ns *)
  tel_m : Mutex.t;  (* ring + query-log writes *)
  ring : query_event option array;
  mutable ring_pos : int;
  mutable ring_len : int;
  mutable log_oc : out_channel option;  (* opened by [run_server] *)
}

let bump t f =
  Mutex.lock t.stats_m;
  f t.stats;
  Mutex.unlock t.stats_m

(* ------------------------------------------------------------------ *)
(* Per-query telemetry                                                 *)
(* ------------------------------------------------------------------ *)

let op_name = function
  | Protocol.Points_to _ -> "points-to"
  | Protocol.Alias _ -> "alias"
  | Protocol.Ping -> "ping"
  | Protocol.Stats -> "stats"
  | Protocol.Sleep _ -> "sleep"
  | Protocol.Reanalyze -> "reanalyze"

let event_json ev =
  Json.Obj
    [
      ("ts_s", Json.Float (float_of_int ev.qe_start_ns /. 1e9));
      ("op", Json.Str ev.qe_op);
      ("outcome", Json.Str ev.qe_outcome);
      ("shard", Json.Int ev.qe_shard);
      ("queue_us", Json.Int (ev.qe_queue_ns / 1000));
      ("solve_us", Json.Int (ev.qe_solve_ns / 1000));
      ("total_us", Json.Int (ev.qe_total_ns / 1000));
      ("rung", Json.Str ev.qe_rung);
      ("degraded", Json.Bool ev.qe_degraded);
      ("cache_hit", Json.Bool ev.qe_cache_hit);
    ]

(* Record one finished query: per-shard histograms (lock-free), the
   bounded recent-series, the ring, and the JSONL sink.  Events from a
   query no shard answered (cell hits, ping, shed, parse errors)
   attribute to registry 0. *)
let record_event t ev =
  let i = if ev.qe_shard >= 0 then ev.qe_shard else 0 in
  Cla_obs.Histo.record t.lat_h.(i) ev.qe_total_ns;
  Cla_obs.Histo.record t.queue_h.(i) ev.qe_queue_ns;
  if ev.qe_solve_ns > 0 then Cla_obs.Histo.record t.solve_h.(i) ev.qe_solve_ns;
  Cla_obs.Metrics.observe ~reg:t.shard_regs.(i)
    ~cap:(max 1 t.cfg.ring_capacity)
    "serve.recent_total_us" (ev.qe_total_ns / 1000);
  Mutex.lock t.tel_m;
  let cap = Array.length t.ring in
  if cap > 0 then begin
    t.ring.(t.ring_pos) <- Some ev;
    t.ring_pos <- (t.ring_pos + 1) mod cap;
    if t.ring_len < cap then t.ring_len <- t.ring_len + 1
  end;
  (match t.log_oc with
  | Some oc ->
      output_string oc (Json.to_string ~indent:false (event_json ev));
      output_char oc '\n';
      flush oc
  | None -> ());
  Mutex.unlock t.tel_m

(* Ring contents, oldest first. *)
let ring_events t =
  Mutex.lock t.tel_m;
  let cap = Array.length t.ring in
  let out = ref [] in
  for k = t.ring_len - 1 downto 0 do
    let idx = (t.ring_pos - t.ring_len + k + (2 * cap)) mod cap in
    match t.ring.(idx) with Some ev -> out := ev :: !out | None -> ()
  done;
  Mutex.unlock t.tel_m;
  !out

(* Percentile block for one histogram of nanoseconds, reported in ms. *)
let pct_json h =
  let ms v = Json.Float (float_of_int v /. 1e6) in
  Json.Obj
    [
      ("count", Json.Int (Cla_obs.Histo.count h));
      ("mean_ms", Json.Float (Cla_obs.Histo.mean h /. 1e6));
      ("p50_ms", ms (Cla_obs.Histo.quantile h 0.5));
      ("p90_ms", ms (Cla_obs.Histo.quantile h 0.9));
      ("p99_ms", ms (Cla_obs.Histo.quantile h 0.99));
      ("p999_ms", ms (Cla_obs.Histo.quantile h 0.999));
      ("max_ms", ms (Cla_obs.Histo.max_value h));
    ]

(* The live-introspection payload of the [stats] op: uptime, admission
   occupancy, per-shard percentile blocks, and the merged latency
   distribution.  Histograms are merged at snapshot time only — this is
   the one place the per-shard data meets. *)
let stats_extra t =
  let uptime_s = R.Deadline.now_s () -. t.started_s in
  Mutex.lock t.m;
  let inflight = t.inflight and waiting = t.waiting in
  Mutex.unlock t.m;
  let c = Atomic.get t.cell in
  let shard_json i =
    let sh = t.shard_tab.(i) in
    Json.Obj
      [
        ("shard", Json.Int i);
        ( "solves",
          Json.Int
            (Option.value ~default:0
               (Cla_obs.Metrics.get_int ~reg:t.shard_regs.(i)
                  "serve.shard_solves")) );
        ("restarts", Json.Int (Cla_par.Supervised.restarts sh.sh_sup));
        ("running", Json.Bool (Cla_par.Supervised.is_alive sh.sh_sup));
        ("down", Json.Bool sh.sh_down);
        ("latency", pct_json t.lat_h.(i));
        ("queue", pct_json t.queue_h.(i));
        ("solve", pct_json t.solve_h.(i));
      ]
  in
  let merged = Cla_obs.Histo.create () in
  Array.iter (fun h -> Cla_obs.Histo.merge_into ~into:merged h) t.lat_h;
  [
    ("uptime_s", Json.Float uptime_s);
    ("inflight", Json.Int inflight);
    ("waiting", Json.Int waiting);
    ( "snapshot",
      Json.Bool
        (match c.c_answer with Some (_, From_snapshot) -> true | _ -> false) );
    ("watching", Json.Bool (t.watcher <> None));
    ("epoch", Json.Int c.c_epoch);
    ("shards", Json.Arr (List.init (Array.length t.shard_tab) shard_json));
    ("latency", pct_json merged);
  ]

(* ------------------------------------------------------------------ *)
(* Admission control                                                   *)
(* ------------------------------------------------------------------ *)

(* Take an execution slot, or wait for one when the queue has room:
   until a slot frees, the query's own deadline passes, or drain
   starts — whichever comes first.  The deadline is always finite (the
   server fills in a default) and the tick wakes the waiter to
   notice it. *)
let admit t ~deadline =
  Mutex.lock t.m;
  let verdict =
    if t.inflight < t.cfg.max_inflight then `Admitted
    else if t.waiting >= t.cfg.max_queue then `Shed
    else begin
      t.waiting <- t.waiting + 1;
      let rec wait () =
        if t.inflight < t.cfg.max_inflight then `Admitted
        else if Atomic.get t.shutdown then `Bye
        else if R.Deadline.expired deadline then `Queued_past_deadline
        else begin
          Condition.wait t.slot t.m;
          wait ()
        end
      in
      let v = wait () in
      t.waiting <- t.waiting - 1;
      v
    end
  in
  if verdict = `Admitted then t.inflight <- t.inflight + 1;
  Mutex.unlock t.m;
  verdict

(* Free a slot and wake one queued query: a woken waiter always takes a
   free slot before it looks at its deadline, so no wakeup is lost.
   Waking every waiter instead makes them all fight for the one runtime
   lock of the serving domain, which measurably slows admission. *)
let release t =
  Mutex.lock t.m;
  t.inflight <- t.inflight - 1;
  Condition.signal t.slot;
  Mutex.unlock t.m

(* ------------------------------------------------------------------ *)
(* Watchdog                                                            *)
(* ------------------------------------------------------------------ *)

let with_watchdog t ~abort_at cancel f =
  Mutex.lock t.m;
  t.serial <- t.serial + 1;
  let key = t.serial in
  Hashtbl.replace t.wd key (cancel, abort_at);
  Mutex.unlock t.m;
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock t.m;
      Hashtbl.remove t.wd key;
      Mutex.unlock t.m)
    f

(* ------------------------------------------------------------------ *)
(* Solver shards                                                       *)
(* ------------------------------------------------------------------ *)

let reply t job r =
  Mutex.lock t.m;
  job.j_reply <- Some r;
  Condition.broadcast t.wake;
  Mutex.unlock t.m

(* One shard's worker domain: pop an entry, solve (or enact a chaos
   fault), reply.  Jobs abandoned by their waiter (cancel token already
   set) are answered and skipped.  With the queue empty for
   [idle_ticks] ticks the domain clears [sh_running] and exits.

   The body is generation-stamped: a superseded domain (the supervisor
   respawned the shard while this one was wedged) exits at the next loop
   head without touching the queue, which now belongs to its
   replacement.  [Supervised.beat] stamps the heartbeat around every
   unit of progress; the supervisor reads its age. *)
let shard_loop t sh ~gen =
  let sup = sh.sh_sup in
  let run_job job =
    Mutex.lock t.m;
    job.j_started <- true;
    Mutex.unlock t.m;
    if R.Cancel.is_set job.j_cancel then
      reply t job
        (Error
           (Aborted
              (R.Progress.make "cancelled while queued for a solver shard")))
    else begin
      Cla_obs.Metrics.incr "serve.shard_solves";
      Cla_obs.Metrics.incr ~reg:t.shard_regs.(sh.sh_id) "serve.shard_solves";
      let s0 = R.Deadline.now_ns () in
      let r =
        match
          Pipeline.points_to_ladder ~deadline:job.j_deadline
            ~cancel:job.j_cancel job.j_view
        with
        | o -> Ok o
        | exception (R.Deadline.Timed_out p | R.Cancel.Cancelled p) ->
            Error (Aborted p)
        | exception e ->
            Error
              (Aborted
                 (R.Progress.make ("solver error: " ^ Printexc.to_string e)))
      in
      job.j_solve_ns <- R.Deadline.now_ns () - s0;
      reply t job r
    end
  in
  (* the next entry, or [None] when superseded or idle long enough to
     exit; called with [sh_m] held, returns with it released *)
  let rec next idle =
    if Cla_par.Supervised.current sup <> gen then begin
      Mutex.unlock sh.sh_m;
      None
    end
    else
      match Queue.take_opt sh.sh_q with
      | Some e ->
          (match e with Job j -> sh.sh_doing <- Some j | _ -> ());
          Mutex.unlock sh.sh_m;
          Some e
      | None when idle >= idle_ticks ->
          sh.sh_running <- false;
          Mutex.unlock sh.sh_m;
          None
      | None ->
          Condition.wait sh.sh_c sh.sh_m;
          next (idle + 1)
  in
  let rec loop () =
    Mutex.lock sh.sh_m;
    match next 0 with
    | None -> ()
    | Some (Job job) ->
        Atomic.set sh.sh_busy true;
        Cla_par.Supervised.beat sup;
        run_job job;
        Cla_par.Supervised.beat sup;
        Atomic.set sh.sh_busy false;
        Mutex.lock sh.sh_m;
        sh.sh_doing <- None;
        Mutex.unlock sh.sh_m;
        loop ()
    | Some Chaos_kill ->
        (* injected death: the body raises, the spawn wrapper clears the
           alive sentinel, the supervisor notices *)
        raise Exit
    | Some (Chaos_wedge ms) ->
        (* injected wedge: busy without heartbeat for [ms] *)
        Atomic.set sh.sh_busy true;
        Unix.sleepf (float_of_int ms /. 1000.);
        Atomic.set sh.sh_busy false;
        loop ()
  in
  loop ()

(* Start the next worker generation of [sh] (the caller holds [sh_m]);
   a predecessor that already exited is joined first. *)
let spawn_worker t sh =
  sh.sh_running <- true;
  Cla_par.Supervised.reap_dead sh.sh_sup;
  Cla_par.Supervised.spawn sh.sh_sup (fun ~gen -> shard_loop t sh ~gen)

(* Queue an entry, starting the shard's worker if none is running. *)
let enqueue t sh e =
  Mutex.lock sh.sh_m;
  Queue.add e sh.sh_q;
  if sh.sh_running then Condition.broadcast sh.sh_c else spawn_worker t sh;
  Mutex.unlock sh.sh_m

(* Pick the next live shard, round-robin.  The counter is masked with
   [land max_int] before the modulo: [fetch_and_add] wraps to negative
   after 2^62 queries, and a negative [mod] would index out of bounds.
   Breaker-tripped shards are skipped; [None] when every shard is
   down. *)
let pick_shard t =
  let n = Array.length t.shard_tab in
  let rec go tries =
    if tries >= n then None
    else
      let i = Atomic.fetch_and_add t.rr 1 land max_int mod n in
      let sh = t.shard_tab.(i) in
      if sh.sh_down then go (tries + 1) else Some sh
  in
  go 0

(* Solve [c]'s view on a shard and wait for the reply.  A waiter whose
   job has not been picked up yet gives up on its own deadline/cancel
   (setting the job's cancel token so the shard skips it); once
   started, the solve bounds itself through the same deadline/cancel —
   including the watchdog, which fires the cancel token past the
   deadline grace.  A non-degraded outcome fills [c] if it was empty
   and is still the current cell. *)
let solve_on_shard t qc (c : cell) ~deadline ~cancel =
  match pick_shard t with
  | None -> Error No_shard
  | Some sh ->
      qc.qc_shard <- sh.sh_id;
      let t0 = R.Deadline.now_s () in
      let job =
        {
          j_view = c.c_view;
          j_deadline = deadline;
          j_cancel = cancel;
          j_started = false;
          j_solve_ns = 0;
          j_reply = None;
        }
      in
      enqueue t sh (Job job);
      Mutex.lock t.m;
      let rec wait () =
        match job.j_reply with
        | Some r -> r
        | None
          when (not job.j_started)
               && (R.Cancel.is_set cancel || R.Deadline.expired deadline) ->
            (* abandon: mark the job so the shard skips it when popped *)
            R.Cancel.set cancel;
            Error
              (Aborted
                 (R.Progress.make
                    ~elapsed_s:(R.Deadline.now_s () -. t0)
                    "aborted while queued for a solver shard"))
        | None ->
            Condition.wait t.wake t.m;
            wait ()
      in
      let r = wait () in
      Mutex.unlock t.m;
      qc.qc_solve_ns <- job.j_solve_ns;
      (match r with
      | Ok o when Option.is_none c.c_answer && not o.Pipeline.lo_degraded ->
          ignore
            (Atomic.compare_and_set t.cell c
               { c with c_answer = Some (o, Live) })
      | _ -> ());
      r

(* The outcome a query answers from.  The cell answers first, so
   steady-state queries never take a lock or touch a queue.  While it
   is empty, the first query leads one solve and later ones wait for
   it; a leader that ends degraded or in error fills nothing, and the
   next waiter with time left leads — a waiter never receives another
   query's degraded outcome in place of its own solve.  [fresh:true]
   bypasses the cell: the one way to force a live solve against a
   snapshot-backed server. *)
let solution t qc ~fresh ~deadline ~cancel =
  let t0 = R.Deadline.now_s () in
  let rec go () =
    let c = Atomic.get t.cell in
    match c.c_answer with
    | _ when fresh -> solve_on_shard t qc c ~deadline ~cancel
    | Some (o, _) ->
        qc.qc_cache_hit <- true;
        Ok o
    | None ->
        Mutex.lock t.m;
        if Atomic.get t.cell != c then begin
          Mutex.unlock t.m;
          go ()
        end
        else if not t.flying then begin
          t.flying <- true;
          Mutex.unlock t.m;
          Fun.protect
            ~finally:(fun () ->
              Mutex.lock t.m;
              t.flying <- false;
              Condition.broadcast t.wake;
              Mutex.unlock t.m)
            (fun () -> solve_on_shard t qc c ~deadline ~cancel)
        end
        else if R.Cancel.is_set cancel || R.Deadline.expired deadline then begin
          Mutex.unlock t.m;
          Error
            (Aborted
               (R.Progress.make
                  ~elapsed_s:(R.Deadline.now_s () -. t0)
                  "aborted while waiting for the solver"))
        end
        else begin
          Condition.wait t.wake t.m;
          Mutex.unlock t.m;
          go ()
        end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Shard supervision                                                   *)
(* ------------------------------------------------------------------ *)

(* Take back the in-flight job of a dead domain (it never answered it):
   marked queued again so a live worker can pick it up.  The caller
   holds [sh_m]. *)
let reclaim_doing t sh =
  match sh.sh_doing with
  | Some j when not (Cla_par.Supervised.is_alive sh.sh_sup) ->
      sh.sh_doing <- None;
      Mutex.lock t.m;
      let lost = Option.is_none j.j_reply in
      if lost then j.j_started <- false;
      Mutex.unlock t.m;
      if lost then Some j else None
  | _ -> None

(* Move every queued job of a shard the breaker gave up on to a live
   shard (or answer it [No_shard] when none is left).  Chaos entries
   die with the shard. *)
let rehome_queue t sh =
  Mutex.lock sh.sh_m;
  let queued =
    Queue.fold (fun acc e -> match e with Job j -> j :: acc | _ -> acc) []
      sh.sh_q
  in
  Queue.clear sh.sh_q;
  let orphans = Option.to_list (reclaim_doing t sh) @ List.rev queued in
  Mutex.unlock sh.sh_m;
  List.iter
    (fun j ->
      match pick_shard t with
      | Some sh2 -> enqueue t sh2 (Job j)
      | None -> reply t j (Error No_shard))
    orphans

(* Restart one dead or wedged shard (the caller holds [sh_m]): charge
   the restart budget, and either respawn the worker over the shard's
   surviving queue — a dead domain is joined by the respawn, a wedged
   one is parked as a zombie — or trip the breaker and leave the shard
   down for good. *)
let restart_shard t sh ~window_ns =
  match
    Cla_par.Supervised.note_restart sh.sh_sup ~budget:t.cfg.restart_budget
      ~window_ns
  with
  | `Give_up ->
      sh.sh_down <- true;
      Mutex.unlock sh.sh_m;
      bump t (fun s -> s.s_shards_down <- s.s_shards_down + 1);
      Cla_obs.Metrics.incr "serve.shards_down";
      rehome_queue t sh
  | `Restart ->
      (* a dead domain's in-flight job never answered: put it back first
         so the replacement pops it *)
      Option.iter (fun j -> Queue.add (Job j) sh.sh_q) (reclaim_doing t sh);
      Atomic.set sh.sh_busy false;
      spawn_worker t sh;
      Mutex.unlock sh.sh_m;
      bump t (fun s -> s.s_shard_restarts <- s.s_shard_restarts + 1);
      Cla_obs.Metrics.incr "serve.shard_restarts"

(* ------------------------------------------------------------------ *)
(* The tick                                                            *)
(* ------------------------------------------------------------------ *)

(* The server's one timer thread.  Every 20ms it
   - cancels the queries past their abort instant (the watchdog);
   - wakes every blocked waiter, so it re-checks its deadline, its
     cancel token and the drain flag;
   - supervises the shards: a running worker that died (alive sentinel
     cleared without an idle exit) or wedged (busy with a heartbeat
     older than the grace) is restarted.  Long legitimate solves are
     bounded by their query's deadline + watchdog, so a sensible grace
     never fires on them — and a false positive is benign anyway: the
     superseded domain finishes its reply and exits at its next
     generation check;
   - wakes the idle shard workers, so they can count their way to
     exit. *)
let tick_loop t =
  let grace_ns = t.cfg.heartbeat_grace_ms * 1_000_000 in
  let window_ns = t.cfg.restart_window_ms * 1_000_000 in
  while not (Atomic.get t.stopped) do
    Thread.delay 0.02;
    let now = R.Deadline.now_s () in
    Mutex.lock t.m;
    Hashtbl.iter
      (fun _ (c, abort_at) ->
        if now >= abort_at && not (R.Cancel.is_set c) then begin
          R.Cancel.set c;
          bump t (fun s -> s.s_watchdog_cancels <- s.s_watchdog_cancels + 1)
        end)
      t.wd;
    Condition.broadcast t.slot;
    Condition.broadcast t.wake;
    Mutex.unlock t.m;
    let supervise = t.cfg.supervise && not (Atomic.get t.shutdown) in
    Array.iter
      (fun sh ->
        Mutex.lock sh.sh_m;
        let failed =
          supervise && sh.sh_running && (not sh.sh_down)
          && ((not (Cla_par.Supervised.is_alive sh.sh_sup))
             || Atomic.get sh.sh_busy
                && Cla_par.Supervised.beat_age_ns sh.sh_sup > grace_ns)
        in
        if failed then restart_shard t sh ~window_ns
        else begin
          Condition.broadcast sh.sh_c;
          Mutex.unlock sh.sh_m
        end)
      t.shard_tab
  done

(* ------------------------------------------------------------------ *)
(* Chaos injection (the [bench chaos] harness drives these)            *)
(* ------------------------------------------------------------------ *)

let chaos_enqueue t i e =
  if i < 0 || i >= Array.length t.shard_tab then false
  else begin
    enqueue t t.shard_tab.(i) e;
    true
  end

let chaos_kill_shard t i = chaos_enqueue t i Chaos_kill
let chaos_wedge_shard t i ~wedge_ms = chaos_enqueue t i (Chaos_wedge wedge_ms)

(* ------------------------------------------------------------------ *)
(* Watch mode: scan, swap, rescan ([cla serve --watch])                 *)
(* ------------------------------------------------------------------ *)

let outcome_view (o : Pipeline.ladder_outcome) =
  o.Pipeline.lo_solution.Solution.view

(* Rewrite the snapshot sidecar from a fresh non-degraded outcome; the
   origin the served answer then has. *)
let refreeze t (outcome : Pipeline.ladder_outcome) =
  match t.cfg.save_snapshot with
  | Some path when not outcome.Pipeline.lo_degraded -> (
      match Snapshot.save path ~view:(outcome_view outcome) outcome with
      | () ->
          Cla_obs.Metrics.incr "serve.snapshot_refreeze";
          From_snapshot
      | exception Sys_error m ->
          Printf.eprintf "cla serve: --save-snapshot: %s\n%!" m;
          Live)
  | _ -> Live

(* Install a freshly-analyzed outcome as the served answer: a new epoch
   over the outcome's own view.  A solve still running over the old
   view holds the old cell, so its compare-and-set fails and its stale
   outcome never lands.  Queries already in flight finish against
   whichever outcome they hold; that stays internally consistent
   because answers resolve variable names against the outcome's own
   view.  Callers hold the watcher's [wa_m]. *)
let install_outcome t (outcome : Pipeline.ladder_outcome) =
  let old = Atomic.get t.cell in
  (* snapshot staleness: the snapshot answer is bound to the pre-swap
     view and stops answering — one structured diagnostic, first swap
     only *)
  (match old.c_answer with
  | Some (_, From_snapshot) when not t.snapshot_stale ->
      t.snapshot_stale <- true;
      Cla_obs.Metrics.incr "serve.snapshot_stale";
      Printf.eprintf "cla serve: %s\n%!"
        (Diag.to_string
           (Diag.warning ~phase:Diag.Load
              "snapshot stale after relink: the thawed snapshot no longer \
               matches the served database and stops answering \
               (--save-snapshot rewrites it)"))
  | _ -> ());
  let origin = refreeze t outcome in
  Atomic.set t.cell
    {
      c_epoch = old.c_epoch + 1;
      c_view = outcome_view outcome;
      c_answer = Some (outcome, origin);
    }

(* The stat signature of the watched files: sources, objects and the
   headers sources may include, so the poll loop sees a header edit. *)
let scan_watch_dir dir =
  let names = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.sort compare names;
  let acc = ref [] in
  Array.iter
    (fun name ->
      if
        List.exists (Filename.check_suffix name) [ ".c"; ".clo"; ".h" ]
      then
        let path = Filename.concat dir name in
        match Unix.stat path with
        | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
            acc := (path, st_size, st_mtime) :: !acc
        | _ -> ()
        | exception Unix.Unix_error _ -> ())
    names;
  List.rev !acc

(* Split a scan into compile inputs ([.c], read now — the direct-mode
   probe digests the text) and pre-compiled units ([.clo], loaded through
   the revalidating {!Loader.load_file_cached}); headers reach the
   pipeline only through [#include].  A file that fails to read or load
   is reported and left out of this round — the server keeps answering
   from the last consistent solution. *)
let watch_inputs sg =
  let sources = ref [] and units = ref [] in
  List.iter
    (fun (path, _, _) ->
      if Filename.check_suffix path ".c" then
        match Binio.read_file path with
        | s -> sources := (path, s) :: !sources
        | exception Sys_error m ->
            Printf.eprintf "cla serve: watch: %s\n%!" m
      else if Filename.check_suffix path ".clo" then
        match Loader.load_file_cached path with
        | Ok v -> units := (path, v) :: !units
        | Error d ->
            Cla_obs.Metrics.incr (Diag.metric_of_phase d.Diag.phase);
            Printf.eprintf "cla serve: watch: %s\n%!" (Diag.to_string d))
    sg;
  (List.rev !sources, List.rev !units)

(* Full build over the watched directory, before the server exists. *)
let watch_boot dir =
  let sg = scan_watch_dir dir in
  let sources, units = watch_inputs sg in
  if sources = [] && units = [] then
    raise (Sys_error (dir ^ ": no .c or .clo files to watch"));
  let inc, _ = Incremental.create ~units sources in
  {
    wa_dir = dir;
    wa_m = Mutex.create ();
    wa_inc = inc;
    wa_sig = sg;
  }

(* One rescan: stat the directory and, when the signature moved (or
   [force]), rebuild the inputs and run the incremental update; when it
   found a change, swap the served solution.  [force] catches what the
   stat signature cannot see — a header outside the directory — at one
   digest per unit and per include.  The reported change count is the
   files whose stat moved or, when none did, the units that recompiled.
   Any failure (a source unparsable mid-edit, an unreadable object)
   leaves the previous solution serving and is reported —
   stale-but-consistent beats down. *)
let watch_rescan t w ~force =
  Mutex.lock w.wa_m;
  Fun.protect ~finally:(fun () -> Mutex.unlock w.wa_m) @@ fun () ->
  let sg = scan_watch_dir w.wa_dir in
  let changed =
    let old = Hashtbl.create 64 in
    List.iter (fun (p, sz, mt) -> Hashtbl.replace old p (sz, mt)) w.wa_sig;
    let c = ref 0 in
    List.iter
      (fun (p, sz, mt) ->
        (match Hashtbl.find_opt old p with
        | Some (sz', mt') when sz' = sz && Float.equal mt' mt -> ()
        | _ -> incr c);
        Hashtbl.remove old p)
      sg;
    !c + Hashtbl.length old
  in
  if changed = 0 && not force then `Unchanged
  else begin
    let t0 = R.Deadline.now_s () in
    match
      let sources, units = watch_inputs sg in
      if sources = [] && units = [] then
        failwith (w.wa_dir ^ ": no .c or .clo files left to serve");
      Incremental.update w.wa_inc ~units sources
    with
    | st when not st.Incremental.relinked ->
        w.wa_sig <- sg;
        `Unchanged
    | st ->
        w.wa_sig <- sg;
        let changed =
          if changed > 0 then changed else max 1 st.Incremental.cache_misses
        in
        install_outcome t
          (Pipeline.outcome_of_solution Pipeline.Pretransitive
             (Incremental.solution w.wa_inc));
        Cla_obs.Metrics.incr "serve.reanalyzes";
        `Swapped (changed, st, R.Deadline.now_s () -. t0)
    | exception e ->
        Cla_obs.Metrics.incr "serve.watch_errors";
        let msg = Printexc.to_string e in
        Printf.eprintf "cla serve: watch: reanalyze failed: %s\n%!" msg;
        `Failed msg
  end

(* The poll thread: a stat sweep every [watch_poll_ms], napping in short
   slices so drain is not held up by the period. *)
let watch_loop t w =
  let period = Float.max 0.01 (float_of_int t.cfg.watch_poll_ms /. 1000.) in
  while not (Atomic.get t.stopped) do
    let left = ref period in
    while !left > 0. && not (Atomic.get t.stopped) do
      Thread.delay (Float.min 0.05 !left);
      left := !left -. 0.05
    done;
    if not (Atomic.get t.stopped) && not (Atomic.get t.shutdown) then
      ignore (watch_rescan t w ~force:false)
  done

let target_names (o : Pipeline.ladder_outcome) set =
  Lvalset.fold
    (fun acc z -> Solution.var_name o.Pipeline.lo_solution z :: acc)
    [] set
  |> List.rev

let sets_intersect (a : Lvalset.t) (b : Lvalset.t) =
  let small, big =
    if Lvalset.cardinal a <= Lvalset.cardinal b then (a, b) else (b, a)
  in
  let hit = ref false in
  Lvalset.iter (fun z -> if (not !hit) && Lvalset.mem z big then hit := true) small;
  !hit

let timeout_response ~id (p : R.Progress.t) =
  Protocol.timeout ~id ~at_pass:p.R.Progress.at_pass
    ~elapsed_ms:(p.R.Progress.elapsed_s *. 1000.)
    ~detail:p.R.Progress.detail

(* Interruptible sleep (debug op for load tests): honors deadline and
   cancel in 5ms slices, holding its admission slot throughout — the
   deterministic way to make the server busy. *)
let do_sleep ~deadline ~cancel ms =
  let until = R.Deadline.now_s () +. (float_of_int ms /. 1000.) in
  let rec nap () =
    if R.Deadline.expired deadline || R.Cancel.is_set cancel then
      Error
        (R.Progress.make
           ~elapsed_s:(float_of_int ms /. 1000.)
           "sleep interrupted")
    else if R.Deadline.now_s () >= until then Ok ()
    else begin
      Thread.delay 0.005;
      nap ()
    end
  in
  nap ()

let run_admitted t (req : Protocol.request) qc ~start_ns ~deadline ~cancel =
  let id = req.Protocol.r_id in
  (* server-side timing attached to ok answers, built at reply time *)
  let telemetry () =
    {
      Protocol.t_shard = qc.qc_shard;
      t_queue_ms = float_of_int qc.qc_queue_ns /. 1e6;
      t_solve_ms = float_of_int qc.qc_solve_ns /. 1e6;
      t_server_ms = float_of_int (R.Deadline.now_ns () - start_ns) /. 1e6;
      t_cache_hit = qc.qc_cache_hit;
    }
  in
  (* Answer a variable query from the served outcome.  Unknown names
     are rejected against the current view before any solve, so they
     never pay for one; [ok o pts] then resolves names against the
     outcome's own view — a watch-mode swap between the two must not
     mix pre-swap ids with a post-swap solution. *)
  let answer names ok =
    let unknown view =
      List.find_opt (fun n -> Objfile.find_targets view n = []) names
    in
    let not_found n =
      bump t (fun s -> s.s_error <- s.s_error + 1);
      Protocol.error ~id ~code:404 (Printf.sprintf "unknown variable %S" n)
    in
    match unknown (Atomic.get t.cell).c_view with
    | Some n -> not_found n
    | None -> (
        match solution t qc ~fresh:req.Protocol.r_fresh ~deadline ~cancel with
        | Error (Aborted p) ->
            bump t (fun s -> s.s_timeout <- s.s_timeout + 1);
            timeout_response ~id p
        | Error No_shard ->
            bump t (fun s -> s.s_error <- s.s_error + 1);
            Protocol.error ~id ~code:503 "no solver shard left"
        | Ok o -> (
            let view = outcome_view o in
            match unknown view with
            | Some n -> not_found n
            | None ->
                bump t (fun s ->
                    s.s_ok <- s.s_ok + 1;
                    if o.Pipeline.lo_degraded then
                      s.s_degraded <- s.s_degraded + 1);
                qc.qc_rung <- Pipeline.algorithm_name o.Pipeline.lo_algorithm;
                qc.qc_degraded <- o.Pipeline.lo_degraded;
                ok o (fun n ->
                    Solution.points_to o.Pipeline.lo_solution
                      (List.hd (Objfile.find_targets view n)))))
  in
  match req.Protocol.r_op with
  | Protocol.Ping ->
      bump t (fun s -> s.s_ok <- s.s_ok + 1);
      Protocol.ok_ping ~id
  | Protocol.Stats ->
      Mutex.lock t.stats_m;
      t.stats.s_ok <- t.stats.s_ok + 1;
      let cs = stats_counters t.stats in
      Mutex.unlock t.stats_m;
      Protocol.ok_stats ~id ~extra:(stats_extra t) cs
  | Protocol.Sleep ms -> (
      if not t.cfg.allow_sleep then begin
        bump t (fun s -> s.s_error <- s.s_error + 1);
        Protocol.error ~id "sleep op disabled (start the server with --allow-sleep)"
      end
      else
        match do_sleep ~deadline ~cancel ms with
        | Ok () ->
            bump t (fun s -> s.s_ok <- s.s_ok + 1);
            Protocol.ok_sleep ~id ~ms
        | Error p ->
            bump t (fun s -> s.s_timeout <- s.s_timeout + 1);
            timeout_response ~id p)
  | Protocol.Reanalyze -> (
      let epoch () = (Atomic.get t.cell).c_epoch in
      match t.watcher with
      | None ->
          bump t (fun s -> s.s_error <- s.s_error + 1);
          Protocol.error ~id
            "reanalyze: this server is not watching a directory (start it \
             with --watch DIR)"
      | Some w -> (
          match watch_rescan t w ~force:true with
          | `Unchanged ->
              bump t (fun s -> s.s_ok <- s.s_ok + 1);
              Protocol.ok_reanalyze ~id ~epoch:(epoch ()) ~changed:0
                ~sources:0 ~cache_hits:0 ~cache_misses:0 ~resumed:false
                ~wall_ms:0. ()
          | `Swapped (changed, st, wall_s) ->
              bump t (fun s -> s.s_ok <- s.s_ok + 1);
              Protocol.ok_reanalyze ~id ~epoch:(epoch ()) ~changed
                ~sources:st.Incremental.sources
                ~cache_hits:st.Incremental.cache_hits
                ~cache_misses:st.Incremental.cache_misses
                ~resumed:st.Incremental.resumed
                ~wall_ms:(wall_s *. 1000.) ()
          | `Failed msg ->
              bump t (fun s -> s.s_error <- s.s_error + 1);
              Protocol.error ~id ~code:500 ("reanalyze failed: " ^ msg)))
  | Protocol.Points_to name ->
      answer [ name ] (fun o pts ->
          Protocol.ok_points_to ~id ~telemetry:(telemetry ()) ~rung:qc.qc_rung
            ~degraded:qc.qc_degraded ~var:name
            ~targets:(target_names o (pts name))
            ())
  | Protocol.Alias (n1, n2) ->
      answer [ n1; n2 ] (fun _ pts ->
          Protocol.ok_alias ~id ~telemetry:(telemetry ()) ~rung:qc.qc_rung
            ~degraded:qc.qc_degraded ~var:n1 ~var2:n2
            ~aliased:(sets_intersect (pts n1) (pts n2))
            ())

let handle_line t line =
  let start_ns = R.Deadline.now_ns () in
  let qc =
    {
      qc_shard = -1;
      qc_queue_ns = 0;
      qc_solve_ns = 0;
      qc_cache_hit = false;
      qc_rung = "";
      qc_degraded = false;
    }
  in
  let opn = ref "parse" in
  bump t (fun s -> s.s_queries <- s.s_queries + 1);
  let response =
    match Protocol.parse line with
    | Error (id, msg) ->
        bump t (fun s -> s.s_error <- s.s_error + 1);
        Protocol.error ~id msg
    | Ok req -> (
        opn := op_name req.Protocol.r_op;
        let id = req.Protocol.r_id in
        if Atomic.get t.shutdown then begin
          bump t (fun s -> s.s_bye <- s.s_bye + 1);
          Protocol.bye ~id
        end
        else
          let dl_ms =
            match req.Protocol.r_deadline_ms with
            | Some d -> max 1 (min d max_deadline_ms)
            | None -> t.cfg.default_deadline_ms
          in
          let deadline = R.Deadline.of_ms dl_ms in
          let adm0 = R.Deadline.now_ns () in
          match admit t ~deadline with
          | `Shed ->
              bump t (fun s -> s.s_shed <- s.s_shed + 1);
              Protocol.shed ~id ~retry_after_ms:(max 10 (dl_ms / 4))
          | `Bye ->
              bump t (fun s -> s.s_bye <- s.s_bye + 1);
              Protocol.bye ~id
          | `Queued_past_deadline ->
              qc.qc_queue_ns <- R.Deadline.now_ns () - adm0;
              bump t (fun s -> s.s_timeout <- s.s_timeout + 1);
              timeout_response ~id
                (R.Progress.make
                   ~elapsed_s:(float_of_int dl_ms /. 1000.)
                   "deadline passed while queued for admission")
          | `Admitted ->
              qc.qc_queue_ns <- R.Deadline.now_ns () - adm0;
              Fun.protect ~finally:(fun () -> release t) @@ fun () ->
              let cancel = R.Cancel.create () in
              let abort_at =
                R.Deadline.now_s ()
                +. Float.max 0. (R.Deadline.remaining_s deadline)
                +. (float_of_int t.cfg.watchdog_grace_ms /. 1000.)
              in
              with_watchdog t ~abort_at cancel @@ fun () ->
              (* last-resort catch: a query must answer, not kill its
                 connection *)
              (try run_admitted t req qc ~start_ns ~deadline ~cancel with
              | R.Deadline.Timed_out p | R.Cancel.Cancelled p ->
                  bump t (fun s -> s.s_timeout <- s.s_timeout + 1);
                  timeout_response ~id p
              | e ->
                  bump t (fun s -> s.s_error <- s.s_error + 1);
                  Protocol.error ~id ~code:500
                    ("internal error: " ^ Printexc.to_string e)))
  in
  record_event t
    {
      qe_start_ns = start_ns;
      qe_op = !opn;
      qe_outcome = Protocol.(status_name (status_of_line response));
      qe_shard = qc.qc_shard;
      qe_queue_ns = qc.qc_queue_ns;
      qe_solve_ns = qc.qc_solve_ns;
      qe_total_ns = R.Deadline.now_ns () - start_ns;
      qe_rung = qc.qc_rung;
      qe_degraded = qc.qc_degraded;
      qe_cache_hit = qc.qc_cache_hit;
    };
  response

(* ------------------------------------------------------------------ *)
(* Connections                                                         *)
(* ------------------------------------------------------------------ *)

let handle_conn t fd =
  bump t (fun s -> s.s_connections <- s.s_connections + 1);
  let ic = Unix.in_channel_of_descr fd in
  let oc = Unix.out_channel_of_descr fd in
  (try
     let rec loop () =
       match input_line ic with
       | exception End_of_file -> ()
       | line ->
           let line = String.trim line in
           if line = "" then loop ()
           else begin
             let response = handle_line t line in
             output_string oc response;
             output_char oc '\n';
             flush oc;
             (* during drain, answer the line that was already in flight
                and close; new connections are not accepted anyway *)
             if not (Atomic.get t.shutdown) then loop ()
           end
     in
     loop ()
   with Sys_error _ | Unix.Unix_error _ -> ());
  (try Unix.close fd with Unix.Unix_error _ -> ());
  Mutex.lock t.m;
  t.live_conns <- t.live_conns - 1;
  Condition.broadcast t.wake;
  Mutex.unlock t.m

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

let create ?(config = default_config) view =
  (* one registry (and one handle per histogram) per shard *)
  let n_shards = max 1 (min config.shards 64) in
  let shard_regs = Array.init n_shards (fun _ -> Cla_obs.Metrics.create ()) in
  let histos name =
    Array.init n_shards (fun i ->
        Cla_obs.Metrics.histo ~reg:shard_regs.(i) name)
  in
  (* thaw the persisted solution, if any.  Rejection (corrupt bytes,
     version bump, wrong database) is a diagnostic plus a fallback to
     live solves — never a wrong answer, never a refusal to start. *)
  let thawed =
    match config.snapshot_path with
    | None -> None
    | Some path -> (
        match Snapshot.load_result path ~view with
        | Ok o ->
            Cla_obs.Metrics.set "serve.snapshot" 1;
            Some (o, From_snapshot)
        | Error d ->
            Cla_obs.Metrics.incr (Diag.metric_of_phase d.Diag.phase);
            Printf.eprintf
              "cla serve: %s\ncla serve: falling back to a live solve\n%!"
              (Diag.to_string d);
            None)
  in
  {
    cfg = config;
    cell = Atomic.make { c_epoch = 0; c_view = view; c_answer = thawed };
    stats =
      {
        s_queries = 0;
        s_ok = 0;
        s_shed = 0;
        s_timeout = 0;
        s_error = 0;
        s_bye = 0;
        s_degraded = 0;
        s_watchdog_cancels = 0;
        s_connections = 0;
        s_shard_restarts = 0;
        s_shards_down = 0;
      };
    stats_m = Mutex.create ();
    m = Mutex.create ();
    slot = Condition.create ();
    wake = Condition.create ();
    inflight = 0;
    waiting = 0;
    wd = Hashtbl.create 32;
    serial = 0;
    flying = false;
    live_conns = 0;
    shard_tab =
      Array.init n_shards (fun i ->
          {
            sh_id = i;
            sh_m = Mutex.create ();
            sh_c = Condition.create ();
            sh_q = Queue.create ();
            sh_running = false;
            sh_down = false;
            sh_doing = None;
            sh_busy = Atomic.make false;
            sh_sup = Cla_par.Supervised.create ();
          });
    rr = Atomic.make 0;
    watcher = None;
    snapshot_stale = false;
    shutdown = Atomic.make false;
    stopped = Atomic.make false;
    started_s = R.Deadline.now_s ();
    shard_regs;
    lat_h = histos "serve.latency_ns";
    queue_h = histos "serve.queue_ns";
    solve_h = histos "serve.solve_ns";
    tel_m = Mutex.create ();
    ring = Array.make (max 1 config.ring_capacity) None;
    ring_pos = 0;
    ring_len = 0;
    log_oc = None;
  }

(** Ask a running server to drain (what the SIGINT/SIGTERM handlers
    call): one atomic store, no lock — the accept loop and the tick
    notice it. *)
let request_shutdown t = Atomic.set t.shutdown true

(* Claim the socket path.  A leftover socket from a crashed server (no
   listener behind it) is taken over: probe with a connect — refused or
   vanished means stale, unlink and rebind.  A live listener or a
   non-socket file at the path is an error; never silently unlink
   another server out from under its clients. *)
let claim_socket_path path =
  if Sys.file_exists path then begin
    (match (Unix.stat path).Unix.st_kind with
    | Unix.S_SOCK -> ()
    | _ ->
        raise (Sys_error (path ^ ": exists and is not a socket"))
    | exception Unix.Unix_error _ -> ());
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let verdict =
      Fun.protect
        ~finally:(fun () -> try Unix.close probe with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.connect probe (Unix.ADDR_UNIX path) with
          | () -> `Live
          | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
            ->
              `Stale
          | exception Unix.Unix_error _ -> `Stale)
    in
    match verdict with
    | `Live -> raise (Sys_error (path ^ ": a server is already listening"))
    | `Stale -> ( try Sys.remove path with Sys_error _ -> ())
  end

let run_server t (config : config) on_ready : stats =
  (* a client that disconnects mid-response must not kill the server *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  List.iter
    (fun sg ->
      try Sys.set_signal sg (Sys.Signal_handle (fun _ -> request_shutdown t))
      with Invalid_argument _ -> ())
    [ Sys.sigint; Sys.sigterm ];
  claim_socket_path config.socket_path;
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind sock (Unix.ADDR_UNIX config.socket_path);
  Unix.listen sock 64;
  (* from here on the socket file and the query log are ours: release
     them on every exit path — graceful drain, accept-loop exception,
     anything — so a crash leaves at worst a stale file the next server
     takes over *)
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close sock with Unix.Unix_error _ -> ());
      (try Sys.remove config.socket_path with Sys_error _ -> ());
      Option.iter
        (fun oc -> try close_out oc with Sys_error _ -> ())
        t.log_oc)
  @@ fun () ->
  t.log_oc <-
    Option.map
      (fun p -> open_out_gen [ Open_creat; Open_append; Open_wronly ] 0o644 p)
      config.query_log;
  let tick_thread = Thread.create tick_loop t in
  Cla_obs.Metrics.set "serve.shards" (Array.length t.shard_tab);
  let watch_thread =
    Option.map (fun w -> Thread.create (watch_loop t) w) t.watcher
  in
  let stop_workers () =
    (* stop the solver shards: each worker drains its queue (every
       queued job still answers) and exits on its idle ticks;
       superseded zombies are reaped too *)
    Array.iter (fun sh -> Cla_par.Supervised.join_all sh.sh_sup) t.shard_tab;
    Atomic.set t.stopped true;
    Thread.join tick_thread;
    match watch_thread with Some th -> Thread.join th | None -> ()
  in
  (try
     on_ready t;
     (* accept loop: select with a short timeout so SIGTERM (which flips
        [shutdown] from the handler) is noticed promptly *)
     while not (Atomic.get t.shutdown) do
       match Unix.select [ sock ] [] [] 0.1 with
       | [], _, _ -> ()
       | _ -> (
           match Unix.accept sock with
           | fd, _ ->
               Mutex.lock t.m;
               t.live_conns <- t.live_conns + 1;
               Mutex.unlock t.m;
               ignore (Thread.create (handle_conn t) fd)
           | exception Unix.Unix_error (Unix.EINTR, _, _) -> ())
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     done
   with e ->
     (* accept-loop failure: stop workers before re-raising so the
        process exits instead of hanging on live domains *)
     Atomic.set t.shutdown true;
     stop_workers ();
     raise e);
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (try Sys.remove config.socket_path with Sys_error _ -> ());
  (* drain: in-flight queries finish (their watchdogs still armed);
     bounded so a wedged connection cannot hold the exit hostage *)
  let drain_deadline = R.Deadline.after ~seconds:10. in
  Mutex.lock t.m;
  while t.live_conns > 0 && not (R.Deadline.expired drain_deadline) do
    Condition.wait t.wake t.m
  done;
  Mutex.unlock t.m;
  stop_workers ();
  (* the per-shard registries meet the global one exactly once, here —
     [--stats] / [--stats-json] at exit show the aggregated histograms *)
  Array.iter
    (fun reg -> Cla_obs.Metrics.merge_into ~into:Cla_obs.Metrics.default reg)
    t.shard_regs;
  (match config.trace_path with
  | None -> ()
  | Some path ->
      (* the ring as a Chrome trace: one complete event per recent query,
         one lane per shard (lane 0 doubles as the shardless lane) *)
      let lanes =
        List.map
          (fun ev ->
            ( max 0 ev.qe_shard,
              {
                Cla_obs.Span.name = ev.qe_op;
                label =
                  Some
                    (if ev.qe_rung = "" then ev.qe_outcome
                     else ev.qe_outcome ^ ":" ^ ev.qe_rung);
                start_s = float_of_int ev.qe_start_ns /. 1e9;
                wall_s = float_of_int ev.qe_total_ns /. 1e9;
                user_s = float_of_int ev.qe_solve_ns /. 1e9;
                gc_minor_words = 0.;
                gc_major_words = 0.;
                children = [];
              } ))
          (ring_events t)
      in
      try Cla_obs.Trace.write_lanes path lanes with Sys_error _ -> ());
  t.stats

let run ?(config = default_config) ?(on_ready = fun _ -> ()) view : stats =
  let t = create ~config view in
  run_server t config on_ready

let run_watch ?(config = default_config) ?(on_ready = fun _ -> ()) dir : stats
    =
  let w = watch_boot dir in
  let t = create ~config (Incremental.view w.wa_inc) in
  t.watcher <- Some w;
  (* publish the boot solve so first queries hit; an accepted --snapshot
     keeps precedence until the first swap marks it stale.  With
     --save-snapshot the sidecar exists before the first edit. *)
  let c = Atomic.get t.cell in
  if Option.is_none c.c_answer then begin
    let boot =
      Pipeline.outcome_of_solution Pipeline.Pretransitive
        (Incremental.solution w.wa_inc)
    in
    Atomic.set t.cell { c with c_answer = Some (boot, refreeze t boot) }
  end;
  run_server t config on_ready
