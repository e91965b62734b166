(** One flat, order-preserving parallel map.  See the interface for the
    contract.

    Shape: one batch runs at a time — a submit mutex serialises
    submitters.  A batch is cut into at most [chunks_per_lane * jobs]
    contiguous chunks; the submitting domain (lane 0) and up to
    [jobs - 1] worker domains (lanes [1 ..]) claim chunks in index order
    from one atomic cursor until it runs past the end.  Workers are
    spawned on first demand, never narrowed, park on one condition
    variable between batches and are joined at exit.

    Everything a worker touches is built on the submitting domain before
    the batch is posted, and a chunk body never lets an exception escape:
    failures are recorded per index and the lowest-indexed one is
    re-raised by the submitter once the batch settles, so the observed
    error does not depend on scheduling. *)

module Deadline = Cla_resilience.Deadline
module Metrics = Cla_obs.Metrics

(* Upper clamp: a width beyond any plausible machine is a config error,
   not a request we should honour with 10k domains. *)
let max_width = 64

let clamp jobs = if jobs < 1 then 1 else if jobs > max_width then max_width else jobs

(* Auto width: one lane per core, minus one core reserved for the
   process's systhreads (the serve path's 20 ms supervisor tick and its
   accept loop; a pool as wide as the machine would starve them). *)
let auto_cap () = max 1 (Domain.recommended_domain_count () - 1)

(* A request wider than the machine only adds lanes that contend for
   the same cores (a 2-core host compiled slower at [-j 4] than at
   [-j 1]), so a positive request is capped at the core count. *)
let resolve_jobs n =
  if n < 0 then
    invalid_arg
      (Printf.sprintf "job count must be >= 0 (got %d; 0 means auto)" n)
  else if n = 0 then auto_cap ()
  else min n (Domain.recommended_domain_count ())

(* A posted batch as the workers see it. *)
type batch = {
  run : int -> unit;  (* run chunk [c]; never raises *)
  nchunks : int;
  helpers : int;  (* workers [1 .. helpers] take part *)
  cursor : int Atomic.t;  (* next unclaimed chunk *)
  finished : int Atomic.t;  (* chunks run to the end *)
  posted_ns : int;
  qwait : Cla_obs.Histo.t;  (* par.queue_wait_us *)
}

let submit_m = Mutex.create ()

(* [m] guards [posted], [gen], [closing] and [workers]; [wake] is
   signalled on a post and at exit, [settled] when a batch's last chunk
   finishes. *)
let m = Mutex.create ()
let wake = Condition.create ()
let settled = Condition.create ()
let posted : batch option ref = ref None
let gen = ref 0
let closing = ref false
let workers : unit Domain.t list ref = ref []

(* Per-lane wall time, each cell written only by its lane (lane 0 under
   [submit_m]) and read racily at publish time: monotonic ints, a stale
   read is at worst one chunk behind. *)
let busy_ns = Array.make max_width 0
let idle_ns = Array.make max_width 0

let add_since cell lane t0 = cell.(lane) <- cell.(lane) + (Deadline.now_ns () - t0)

(* Claim and run chunks of [b] on [lane] until the cursor runs out. *)
let rec drain b lane =
  let c = Atomic.fetch_and_add b.cursor 1 in
  if c < b.nchunks then begin
    let t0 = Deadline.now_ns () in
    Cla_obs.Histo.record b.qwait ((t0 - b.posted_ns) / 1000);
    b.run c;
    add_since busy_ns lane t0;
    if Atomic.fetch_and_add b.finished 1 = b.nchunks - 1 then
      Mutex.protect m (fun () -> Condition.broadcast settled);
    drain b lane
  end

let worker lane =
  let seen = ref 0 in
  let rec next () =
    if !closing then None
    else
      match !posted with
      | Some b when !gen <> !seen && lane <= b.helpers ->
          seen := !gen;
          Some b
      | _ ->
          Condition.wait wake m;
          next ()
  in
  let rec loop () =
    Mutex.lock m;
    let t0 = Deadline.now_ns () in
    let b = next () in
    add_since idle_ns lane t0;
    Mutex.unlock m;
    match b with
    | Some b ->
        drain b lane;
        loop ()
    | None -> ()
  in
  loop ()

(* Workers parked on a condition variable would keep the process alive
   past [exit]; drain them at exit.  Registered at module init so the
   handler lands on the main domain ([at_exit] is per-domain in
   OCaml 5). *)
let () =
  at_exit (fun () ->
      let ws =
        Mutex.protect m (fun () ->
            closing := true;
            Condition.broadcast wake;
            !workers)
      in
      List.iter Domain.join ws)

(* Spawn workers up to [want].  Called under [submit_m]. *)
let ensure_workers want =
  for lane = List.length !workers + 1 to want do
    let d = Domain.spawn (fun () -> worker lane) in
    Mutex.protect m (fun () -> workers := d :: !workers)
  done

(* Run [run 0 .. run (nchunks - 1)] across the submitter and up to
   [jobs - 1] workers; returns once every chunk has finished.  Called
   under [submit_m]. *)
let run_batch ~jobs ~nchunks run =
  let helpers = min (jobs - 1) (nchunks - 1) in
  ensure_workers helpers;
  let b =
    {
      run;
      nchunks;
      helpers;
      cursor = Atomic.make 0;
      finished = Atomic.make 0;
      posted_ns = Deadline.now_ns ();
      qwait = Metrics.histo "par.queue_wait_us";
    }
  in
  if helpers > 0 then
    Mutex.protect m (fun () ->
        posted := Some b;
        incr gen;
        Condition.broadcast wake);
  drain b 0;
  if helpers > 0 then
    Mutex.protect m (fun () ->
        let t0 = Deadline.now_ns () in
        while Atomic.get b.finished < nchunks do
          Condition.wait settled m
        done;
        add_since idle_ns 0 t0;
        posted := None)

(* Per-lane busy/idle wall time as series, lane 0 = submitter. *)
let publish_lanes () =
  let lanes = 1 + List.length !workers in
  let series a = List.init lanes (fun i -> a.(i) / 1000) in
  Metrics.set_series "par.lane.busy_us" (series busy_ns);
  Metrics.set_series "par.lane.idle_us" (series idle_ns)

(* Target chunk granularity: a few chunks per lane so a slow chunk is
   compensated by the other lanes claiming more, never more chunks than
   items. *)
let chunks_per_lane = 4

let map ~jobs f xs =
  let xs = Array.of_list xs in
  let n = Array.length xs in
  let jobs = clamp jobs in
  if n = 0 then begin
    Metrics.incr "par.batches";
    []
  end
  else begin
    let results = Array.make n None in
    let errors = Array.make n None in
    (* Lowest index with a recorded error so far.  Chunks run in a
       schedule-dependent order, so the reported error cannot lean on
       start order: item [k] is only skipped once an error {e below} [k]
       exists — every item below the eventual winner always runs, so
       the re-raised error is exactly the lowest-indexed item that
       errors, regardless of scheduling. *)
    let min_err = Atomic.make max_int in
    let record_err k e =
      errors.(k) <- Some e;
      let rec cas_min () =
        let cur = Atomic.get min_err in
        if k < cur && not (Atomic.compare_and_set min_err cur k) then
          cas_min ()
      in
      cas_min ()
    in
    (* skipped items leave both cells empty; the caller raises for the
       whole batch, so a hole is never read as a result *)
    let skip k = Atomic.get min_err < k in
    let nchunks = if jobs = 1 then 1 else min n (jobs * chunks_per_lane) in
    let run c =
      let lo = c * n / nchunks and hi = (c + 1) * n / nchunks in
      try
        for k = lo to hi - 1 do
          if not (skip k) then
            match f xs.(k) with
            | v -> results.(k) <- Some v
            | exception e -> record_err k e
        done
      with e ->
        (* [f] raising is handled per item above; this catches a fault
           in the loop itself so the chunk still counts as finished *)
        record_err lo e
    in
    Mutex.protect submit_m (fun () ->
        run_batch ~jobs ~nchunks run;
        publish_lanes ());
    let errs = ref 0 and skipped = ref 0 in
    Array.iteri
      (fun i r ->
        match (r, errors.(i)) with
        | None, None -> incr skipped
        | _, Some _ -> incr errs
        | Some _, None -> ())
      results;
    Metrics.set "par.jobs" jobs;
    Metrics.incr "par.batches";
    Metrics.incr ~by:n "par.tasks";
    if !errs > 0 then Metrics.incr ~by:!errs "par.task_errors";
    if !skipped > 0 then Metrics.incr ~by:!skipped "par.tasks_skipped";
    (match Atomic.get min_err with
    | k when k < n -> raise (Option.get errors.(k))
    | _ -> ());
    (* no error: nothing was skipped *)
    Array.to_list (Array.map Option.get results)
  end
