(** Work-stealing domain pool.  See the interface for the contract.

    Shape: [width] lanes, each a mutex-guarded ring deque of chunk
    closures.  Lanes [1 .. width-1] are owned by parked worker domains;
    lane 0 belongs to whichever domain submits a batch.  A batch is
    split into at most [chunks_per_lane * width] contiguous chunks and
    dealt round-robin across the lanes; an owner drains its own lane in
    deal order, an idle lane steals the oldest chunk from a busy
    victim.  Between
    batches the workers park on one condition variable, so an idle pool
    costs no CPU and a process keeps one pool alive across runs instead
    of paying [width - 1] domain spawns per batch ({!shared}).

    Each {!map} batch carries its own completion latch and its own
    {!Cla_resilience.Cancel} token, so concurrent submitters may share
    the pool.  Task closures never let an exception escape into a
    worker: failures are recorded per index and the lowest-indexed one
    is re-raised by the caller once the batch settles, so the observed
    error does not depend on scheduling. *)

module Cancel = Cla_resilience.Cancel
module Progress = Cla_resilience.Progress
module Deadline = Cla_resilience.Deadline
module Metrics = Cla_obs.Metrics

(* A queued chunk: the closure plus its enqueue timestamp, feeding the
   [par.queue_wait_us] histogram when the chunk starts running. *)
type job = { jrun : unit -> unit; jenq_ns : int }

let dummy_job = { jrun = ignore; jenq_ns = 0 }

(* Mutex-guarded ring deque.  Both the owner and a thief take from the
   head — oldest chunk first.  FIFO at both ends keeps the global start
   order close to submission order, which is what lets a batch cancel
   propagate {e forward} (a token set while processing item [k] skips
   items after [k], as with v1's single shared FIFO) — a map batch has
   no recursive-spawn locality to justify owner-LIFO.  Per-lane mutexes
   keep contention local: a push, take or steal touches one lane, never
   a global queue lock. *)
type deque = {
  dm : Mutex.t;
  mutable arr : job array;
  mutable head : int;  (* index of the oldest job *)
  mutable len : int;
}

let deque_create () = { dm = Mutex.create (); arr = Array.make 8 dummy_job; head = 0; len = 0 }

let deque_grow d =
  let cap = Array.length d.arr in
  let arr' = Array.make (2 * cap) dummy_job in
  for i = 0 to d.len - 1 do
    arr'.(i) <- d.arr.((d.head + i) mod cap)
  done;
  d.arr <- arr';
  d.head <- 0

let deque_push d j =
  Mutex.lock d.dm;
  if d.len = Array.length d.arr then deque_grow d;
  d.arr.((d.head + d.len) mod Array.length d.arr) <- j;
  d.len <- d.len + 1;
  Mutex.unlock d.dm

(* Take the oldest chunk (owner take and thief steal alike). *)
let deque_take d =
  Mutex.lock d.dm;
  let r =
    if d.len = 0 then None
    else begin
      let j = d.arr.(d.head) in
      d.arr.(d.head) <- dummy_job;
      d.head <- (d.head + 1) mod Array.length d.arr;
      d.len <- d.len - 1;
      Some j
    end
  in
  Mutex.unlock d.dm;
  r

(* Per-lane telemetry, written by the lane's owner (or, for [steals],
   the stealing lane).  Read racily at publish time — monotonic int
   counters, a stale read is at worst one chunk behind. *)
type ltel = {
  mutable busy_ns : int;  (* wall time spent running chunks *)
  mutable idle_ns : int;  (* wall time parked on the condition *)
  mutable steals : int;  (* chunks this lane stole from a peer *)
}

type t = {
  width : int;
  m : Mutex.t;  (* parking lot: guards [closing] and the condition *)
  c : Condition.t;  (* signalled on enqueue and on shutdown *)
  mutable closing : bool;
  pending : int Atomic.t;  (* chunks enqueued and not yet dequeued *)
  lanes : deque array;  (* length [width]; lane 0 = submitters *)
  tel : ltel array;
  qwait : Cla_obs.Histo.t;  (* par.queue_wait_us *)
  next_lane : int Atomic.t;  (* round-robin deal cursor *)
  mutable workers : unit Domain.t list;
}

let jobs t = t.width

(* Upper clamp: a pool wider than any plausible machine is a config
   error, not a request we should honour with 10k domains. *)
let max_width = 64

let clamp jobs = if jobs < 1 then 1 else if jobs > max_width then max_width else jobs

(* Auto width: one lane per core, minus one core reserved for the
   process's supervisor/accept systhreads (the serve path runs a 10ms
   supervisor thread; a pool as wide as the machine would starve it). *)
let auto_cap () = max 1 (Domain.recommended_domain_count () - 1)

let resolve_jobs n =
  if n < 0 then
    invalid_arg
      (Printf.sprintf "job count must be >= 0 (got %d; 0 means auto)" n)
  else if n = 0 then auto_cap ()
  else n

(* Take one chunk for lane [i]: own lane first, then sweep the peers
   (stealing their oldest).  Decrements [pending] when a chunk is
   taken. *)
let take_job pool i =
  match deque_take pool.lanes.(i) with
  | Some j ->
      Atomic.decr pool.pending;
      Some j
  | None ->
      let w = pool.width in
      let rec sweep k =
        if k >= w then None
        else
          let v = (i + k) mod w in
          match deque_take pool.lanes.(v) with
          | Some j ->
              Atomic.decr pool.pending;
              pool.tel.(i).steals <- pool.tel.(i).steals + 1;
              Some j
          | None -> sweep (k + 1)
      in
      sweep 1

(* Run one chunk on lane [i], recording queue wait and busy time. *)
let run_job pool i (j : job) =
  let t0 = Deadline.now_ns () in
  Cla_obs.Histo.record pool.qwait ((t0 - j.jenq_ns) / 1000);
  (try j.jrun () with _ -> ());
  pool.tel.(i).busy_ns <- pool.tel.(i).busy_ns + (Deadline.now_ns () - t0)

let rec worker_loop pool i =
  match take_job pool i with
  | Some j ->
      run_job pool i j;
      worker_loop pool i
  | None ->
      (* nothing anywhere: park until an enqueue or shutdown *)
      Mutex.lock pool.m;
      let t0 = Deadline.now_ns () in
      while Atomic.get pool.pending = 0 && not pool.closing do
        Condition.wait pool.c pool.m
      done;
      pool.tel.(i).idle_ns <-
        pool.tel.(i).idle_ns + (Deadline.now_ns () - t0);
      let closing = pool.closing in
      Mutex.unlock pool.m;
      if not closing then worker_loop pool i

let create ~jobs =
  let width = clamp jobs in
  let pool =
    {
      width;
      m = Mutex.create ();
      c = Condition.create ();
      closing = false;
      pending = Atomic.make 0;
      lanes = Array.init width (fun _ -> deque_create ());
      tel = Array.init width (fun _ -> { busy_ns = 0; idle_ns = 0; steals = 0 });
      qwait = Metrics.histo "par.queue_wait_us";
      next_lane = Atomic.make 0;
      workers = [];
    }
  in
  pool.workers <-
    List.init (width - 1)
      (fun k -> Domain.spawn (fun () -> worker_loop pool (k + 1)));
  Metrics.set "par.jobs" width;
  pool

let shutdown pool =
  Mutex.lock pool.m;
  pool.closing <- true;
  Condition.broadcast pool.c;
  Mutex.unlock pool.m;
  let ws = pool.workers in
  pool.workers <- [];
  List.iter Domain.join ws

let with_pool ~jobs f =
  let pool = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* The process-shared pool                                             *)
(* ------------------------------------------------------------------ *)

let shared_mu = Mutex.create ()
let shared_ref : t option ref = ref None

(* Workers parked on a condition variable would keep the process alive
   past [exit]; drain them at exit.  Registered at module init so the
   handler always lands on the main domain — [at_exit] is per-domain in
   OCaml 5, and the first [shared] call may come from a worker or shard
   domain whose exit must not tear the process-wide pool down. *)
let () =
  at_exit (fun () ->
      Mutex.lock shared_mu;
      let p = !shared_ref in
      shared_ref := None;
      Mutex.unlock shared_mu;
      Option.iter shutdown p)

let shared ~jobs =
  let jobs = clamp jobs in
  Mutex.lock shared_mu;
  let p =
    match !shared_ref with
    | Some p when p.width >= jobs -> p
    | narrower ->
        (* widen by replacement; only safe between batches, so callers
           size the pool once up front (CLI -j resolution) *)
        Option.iter shutdown narrower;
        let p = create ~jobs in
        shared_ref := Some p;
        p
  in
  Mutex.unlock shared_mu;
  p

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)
(* ------------------------------------------------------------------ *)

(* Per-batch completion latch, counting chunks. *)
type latch = { lm : Mutex.t; lc : Condition.t; mutable remaining : int }

let latch_count_down l =
  Mutex.lock l.lm;
  l.remaining <- l.remaining - 1;
  if l.remaining = 0 then Condition.broadcast l.lc;
  Mutex.unlock l.lm

let latch_wait l =
  Mutex.lock l.lm;
  while l.remaining > 0 do
    Condition.wait l.lc l.lm
  done;
  Mutex.unlock l.lm

(* Deal [jobs] round-robin across the lanes, then wake the workers. *)
let enqueue_jobs pool js =
  List.iter
    (fun j ->
      let lane =
        (Atomic.fetch_and_add pool.next_lane 1) land max_int mod pool.width
      in
      deque_push pool.lanes.(lane) j;
      Atomic.incr pool.pending)
    js;
  Mutex.lock pool.m;
  Condition.broadcast pool.c;
  Mutex.unlock pool.m

(* Publish the pool-level telemetry after a batch: cumulative steal
   count plus per-lane busy/idle wall time as series (one entry per
   lane, lane 0 = submitter). *)
let publish_tel pool =
  let steals = Array.fold_left (fun a l -> a + l.steals) 0 pool.tel in
  Metrics.set "par.steals" steals;
  let us ns = ns / 1000 in
  Metrics.set_series "par.lane.busy_us"
    (Array.to_list (Array.map (fun l -> us l.busy_ns) pool.tel));
  Metrics.set_series "par.lane.idle_us"
    (Array.to_list (Array.map (fun l -> us l.idle_ns) pool.tel));
  Metrics.set_series "par.lane.steals"
    (Array.to_list (Array.map (fun l -> l.steals) pool.tel))

(* Target chunk granularity: a few chunks per lane so a slow chunk can
   be compensated by stealing, but never more chunks than items. *)
let chunks_per_lane = 4

let map_array_token ?cancel pool f (xs : 'a array) : 'b array =
  let n = Array.length xs in
  if n = 0 then begin
    Metrics.incr "par.batches";
    [||]
  end
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    let batch = Cancel.create () in
    (* Lowest index with a recorded error so far.  Chunks run in a
       schedule-dependent order, so determinism of the reported error
       cannot lean on FIFO start order the way a single shared queue
       could: instead, item [k] is only skipped once an error {e below}
       [k] exists — every item below the eventual winner always runs,
       so the re-raised error is exactly the lowest-indexed item that
       errors, regardless of scheduling. *)
    let min_err = Atomic.make max_int in
    let record_err k e =
      errors.(k) <- Some e;
      let rec cas_min () =
        let cur = Atomic.get min_err in
        if k < cur && not (Atomic.compare_and_set min_err cur k) then
          cas_min ()
      in
      cas_min ();
      Cancel.set batch
    in
    let ext_set () =
      match cancel with Some c -> Cancel.is_set c | None -> false
    in
    (* skipped items leave both cells empty; the caller raises for the
       whole batch, so a hole is never read as a result *)
    let skip k =
      ext_set ()
      || (Cancel.is_set batch
         &&
         let m = Atomic.get min_err in
         (* manual token set (no error recorded): skip everything;
            error recorded: skip only above it *)
         m = max_int || m < k)
    in
    let nchunks =
      if pool.width = 1 then 1 else min n (pool.width * chunks_per_lane)
    in
    let latch =
      { lm = Mutex.create (); lc = Condition.create (); remaining = nchunks }
    in
    let run_chunk lo hi () =
      (try
         for k = lo to hi - 1 do
           if not (skip k) then
             match f batch xs.(k) with
             | v -> results.(k) <- Some v
             | exception e -> record_err k e
         done
       with e ->
         (* belt and braces: [f] raising is handled per item above;
            this catches a bug in the loop itself *)
         if errors.(lo) = None then record_err lo e);
      latch_count_down latch
    in
    let base = n / nchunks and rem = n mod nchunks in
    let js = ref [] in
    let lo = ref 0 in
    for c = 0 to nchunks - 1 do
      let size = base + if c < rem then 1 else 0 in
      let hi = !lo + size in
      js := { jrun = run_chunk !lo hi; jenq_ns = Deadline.now_ns () } :: !js;
      lo := hi
    done;
    enqueue_jobs pool (List.rev !js);
    (* The submitting domain is a full lane: drain lane 0 (stealing from
       the workers' lanes when it runs dry), then wait for chunks still
       in flight. *)
    let rec drain () =
      match take_job pool 0 with
      | Some j ->
          run_job pool 0 j;
          drain ()
      | None -> ()
    in
    drain ();
    latch_wait latch;
    let errs = ref 0 and skipped = ref 0 in
    Array.iteri
      (fun i r ->
        match (r, errors.(i)) with
        | None, None -> incr skipped
        | _, Some _ -> incr errs
        | Some _, None -> ())
      results;
    Metrics.incr "par.batches";
    Metrics.incr ~by:n "par.tasks";
    if !errs > 0 then Metrics.incr ~by:!errs "par.task_errors";
    if !skipped > 0 then Metrics.incr ~by:!skipped "par.tasks_skipped";
    publish_tel pool;
    (match cancel with Some c -> Cancel.check c | None -> ());
    let rec first_error i =
      if i >= n then None
      else match errors.(i) with Some e -> Some e | None -> first_error (i + 1)
    in
    match first_error 0 with
    | Some e -> raise e
    | None ->
        Array.init n (fun i ->
            match results.(i) with
            | Some v -> v
            | None ->
                (* only reachable if a task body set the batch token
                   itself without raising — surface it as cancellation *)
                raise
                  (Cancel.Cancelled
                     (Progress.make "task skipped: batch token set by a task body")))
  end

let map_array ?cancel pool f xs =
  map_array_token ?cancel pool (fun _tok x -> f x) xs

let map_token ?cancel pool f xs =
  Array.to_list (map_array_token ?cancel pool f (Array.of_list xs))

let map ?cancel pool f xs = map_token ?cancel pool (fun _tok x -> f x) xs

