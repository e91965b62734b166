(** High-level façade: the full compile-link-analyze pipeline in one call.

    This is the API the examples and tools use:

    {[
      let view =
        Pipeline.compile_link
          [ ("a.c", source_a); ("b.c", source_b) ]
      in
      let sol = Pipeline.points_to view in
      Lvalset.to_list (Solution.points_to sol x)
    ]} *)

type algorithm =
  | Pretransitive  (** the paper's algorithm (Section 5) — default *)
  | Worklist  (** transitively-closed Andersen baseline *)
  | Bitvector  (** bit-vector subset baseline *)
  | Steensgaard  (** unification-based baseline *)

let algorithm_name = function
  | Pretransitive -> "pretransitive"
  | Worklist -> "worklist"
  | Bitvector -> "bitvector"
  | Steensgaard -> "steensgaard"

let algorithm_names = [ "pretransitive"; "worklist"; "bitvector"; "steensgaard" ]

let algorithm_of_string s =
  match String.lowercase_ascii s with
  | "pretransitive" | "pretrans" -> Some Pretransitive
  | "worklist" -> Some Worklist
  | "bitvector" | "bitvec" -> Some Bitvector
  | "steensgaard" | "steens" -> Some Steensgaard
  | _ -> None

(* Map [compile] over the translation units, fanning out across a domain
   pool when [jobs > 1].  Compilation is file-local (per-invocation
   front-end state, no shared mutable tables), so units are independent
   tasks; [Pool.map] preserves input order and each unit's output bytes
   do not depend on scheduling — [-j N] object bytes are byte-identical
   to [-j 1].  The main domain wraps the whole fan-out in one
   ["compile"] span (worker domains skip span recording).  Domains come
   from the process-wide persistent pool ({!Cla_par.Pool.shared}), so
   repeated compile-link calls — and the analyze fan-out after them —
   reuse the same parked workers instead of re-spawning. *)
let compile_units ~jobs compile units =
  let jobs = Cla_par.Pool.resolve_jobs jobs in
  if jobs <= 1 then List.map compile units
  else
    Cla_obs.Obs.with_span "compile" ~label:(Fmt.str "fan-out -j%d" jobs)
      (fun () ->
        let pool = Cla_par.Pool.shared ~jobs in
        Cla_par.Pool.map pool compile units)

(* The shared pool for the bit-vector solver, when the caller asked for
   parallelism; [None] keeps it on its strictly sequential code path. *)
let pool_of_jobs jobs =
  match jobs with
  | None -> None
  | Some j ->
      let j = Cla_par.Pool.resolve_jobs j in
      if j <= 1 then None else Some (Cla_par.Pool.shared ~jobs:j)

(* Process-wide compile cache: TU content hash -> serialized object
   bytes.  {!compile_link} probes it with the cheap {!Compilep.tu_hash}
   (preprocess + digest) before paying for parse / normalize /
   serialize.  Entries are the exact bytes a fresh compile would emit,
   so a hit is indistinguishable from a recompile.  A mutex guards the
   table because the compile fan-out probes from worker domains; the
   table is content-addressed, so a stale entry is impossible — only
   growth is bounded (reset past [compile_cache_cap] entries). *)
let compile_cache : (string, string) Hashtbl.t = Hashtbl.create 64
let compile_cache_mutex = Mutex.create ()
let compile_cache_cap = 4096

let compile_obj ~options (file, src) : string =
  (* [drop_bodies] is a function and cannot be part of the content hash;
     a caller that replaced the default no-op (the deletion harness)
     must bypass the cache entirely or stale objects would defeat its
     soundness gate.  Every cache-friendly caller builds options with
     [{ Compilep.default_options with ... }], which preserves the
     default closure physically. *)
  if options.Compilep.drop_bodies
     != Compilep.default_options.Compilep.drop_bodies
  then Objfile.write (Compilep.compile_string ~options ~file src)
  else begin
  let h = Compilep.tu_hash ~options ~file src in
  Mutex.lock compile_cache_mutex;
  let cached = Hashtbl.find_opt compile_cache h in
  Mutex.unlock compile_cache_mutex;
  match cached with
  | Some bytes ->
      Cla_obs.Metrics.incr "compile.cache.hits";
      bytes
  | None ->
      Cla_obs.Metrics.incr "compile.cache.misses";
      let bytes =
        Objfile.write (Compilep.compile_string ~options ~file src)
      in
      Mutex.lock compile_cache_mutex;
      if Hashtbl.length compile_cache >= compile_cache_cap then
        Hashtbl.reset compile_cache;
      Hashtbl.replace compile_cache h bytes;
      Mutex.unlock compile_cache_mutex;
      bytes
  end

(** Compile each (name, source) pair and link the results, all in memory.
    [jobs > 1] compiles translation units across a domain pool; the
    linked database is byte-identical to a sequential run.  Units whose
    TU content hash was compiled before are served from the process-wide
    compile cache ([compile.cache.hits]/[compile.cache.misses]). *)
let compile_link ?(options = Compilep.default_options) ?(jobs = 1) ?undefined
    (sources : (string * string) list) : Objfile.view =
  let objs = compile_units ~jobs (compile_obj ~options) sources in
  let views = List.map Objfile.view_of_string objs in
  let db, _stats = Linkp.link_views ?undefined views in
  Objfile.view_of_string (Objfile.write db)

(** Compile-link from disk paths.  Shares {!compile_link}'s content-
    addressed compile cache. *)
let compile_link_files ?(options = Compilep.default_options) ?(jobs = 1)
    ?undefined paths : Objfile.view =
  let objs =
    compile_units ~jobs
      (fun path -> compile_obj ~options (path, Binio.read_file path))
      paths
  in
  let views = List.map Objfile.view_of_string objs in
  let db, _stats = Linkp.link_views ?undefined views in
  Objfile.view_of_string (Objfile.write db)

(** Run the selected points-to analysis over a linked view.  Each solver
    runs under an ["analyze"] span (the pre-transitive solver records its
    own, with per-pass children).  [deadline]/[cancel] abort with the
    typed {!Cla_resilience} exceptions — never a partial solution. *)
let points_to ?(algorithm = Pretransitive) ?config ?demand ?budget ?deadline
    ?cancel ?jobs (view : Objfile.view) : Solution.t =
  match algorithm with
  | Pretransitive ->
      (Andersen.solve ?config ?demand ?budget ?deadline ?cancel view)
        .Andersen.solution
  | Worklist ->
      Cla_obs.Obs.with_span "analyze" ~label:"worklist" (fun () ->
          Worklist.solve ?deadline ?cancel view)
  | Bitvector ->
      Cla_obs.Obs.with_span "analyze" ~label:"bitvector" (fun () ->
          Bitsolver.solve ?deadline ?cancel ?pool:(pool_of_jobs jobs) view)
  | Steensgaard ->
      (* Unification would put the blob in one equivalence class with
         every escaping object — a degenerate "everything aliases
         everything" answer — so open-world databases are refused rather
         than silently mishandled (see DESIGN.md). *)
      if view.Objfile.ropenworld <> None then
        Diag.fail ~phase:Diag.Analyze
          "steensgaard cannot analyze an open-world database (unification \
           collapses the blob with every escaping object); supported \
           algorithms: pretransitive, worklist, bitvector";
      Cla_obs.Obs.with_span "analyze" ~label:"steensgaard" (fun () ->
          Steensgaard.solve ?deadline ?cancel view)

(** Like {!points_to} with the pre-transitive solver, returning the full
    result (pass count, loader statistics, graph statistics). *)
let points_to_result ?config ?demand ?budget ?deadline ?cancel view :
    Andersen.result =
  Andersen.solve ?config ?demand ?budget ?deadline ?cancel view

(* ------------------------------------------------------------------ *)
(* Graceful degradation                                                 *)
(* ------------------------------------------------------------------ *)

(** What a rung's answer means.  The worklist and bit-vector baselines
    compute the same subset-based solution as the pre-transitive solver
    (the equivalence tests enforce it); Steensgaard's unification is a
    sound over-approximation — every reported set is a superset of the
    subset-based one. *)
let soundness_note = function
  | Pretransitive -> "exact subset-based (Andersen) solution"
  | Worklist | Bitvector -> "exact subset-based (Andersen) baseline"
  | Steensgaard ->
      "sound over-approximation (unification; supersets of the \
       subset-based sets)"

(** The default ladder: the paper's solver, then the cheaper bit-vector
    formulation of the same subset problem, then the near-linear
    unification analysis that always finishes. *)
let default_ladder = [ Pretransitive; Bitvector; Steensgaard ]

(** The ladder for open-world databases: Steensgaard's unification is
    unsupported there (see {!points_to}), so the bit-vector solver is
    the always-sound final rung. *)
let open_world_ladder = [ Pretransitive; Bitvector ]

type ladder_outcome = {
  lo_solution : Solution.t;
  lo_algorithm : algorithm;  (** the rung that answered *)
  lo_degraded : bool;
  lo_note : string;  (** soundness statement for that rung *)
  lo_timeouts : (algorithm * Cla_resilience.Progress.t) list;
      (** rungs that timed out, with how far each got *)
}

(* Stamp the answering rung onto the solution, publish the ladder
   metrics, and build the outcome record — shared by the sequential
   (Degrade.run) and hedged paths so both report identically. *)
let finish_outcome ~alg ~degraded ~timeouts sol =
  let lo_note = soundness_note alg in
  Solution.set_provenance sol
    { Solution.p_rung = algorithm_name alg; p_degraded = degraded; p_note = lo_note };
  Cla_obs.Metrics.set "analyze.degraded" (if degraded then 1 else 0);
  Cla_obs.Metrics.set_str "analyze.rung" (algorithm_name alg);
  Cla_obs.Metrics.set "analyze.rung_timeouts" (List.length timeouts);
  {
    lo_solution = sol;
    lo_algorithm = alg;
    lo_degraded = degraded;
    lo_note;
    lo_timeouts = timeouts;
  }

let outcome_of_solution alg sol =
  finish_outcome ~alg ~degraded:false ~timeouts:[] sol

(* The hedged ladder: run the cheap final rung on its own domain from
   the start, while the main domain climbs the precise rungs under the
   deadline.  First sound answer wins — a precise rung finishing in time
   cancels the hedge; every precise rung timing out means the hedge's
   answer (usually already done, Steensgaard being near-linear) is
   returned without the sequential ladder's "time out, then start the
   fallback from zero" latency cliff.  Unless [strict], the hedge runs
   deadline-exempt, like Degrade.run's final rung.

   The hedge is a {!Cla_par.Pool.async} future on the shared pool: at
   width 1 (no [-j]) that is a dedicated domain as before, at width >= 2
   it rides a parked worker.  The hedge body itself always solves
   sequentially (never [?jobs]) — a pool task must not submit batches to
   its own pool, and the final rung is the cheap near-linear one. *)
let hedged_ladder ~ladder ~strict ?config ?demand ?budget ~deadline ?cancel
    ?jobs (view : Objfile.view) : ladder_outcome =
  let init_rungs, final_rung =
    let rec split acc = function
      | [ last ] -> (List.rev acc, last)
      | x :: rest -> split (x :: acc) rest
      | [] -> assert false (* caller checked length >= 2 *)
    in
    split [] ladder
  in
  let hedge_cancel = Cla_resilience.Cancel.create () in
  let hedge_done = Atomic.make false in
  let hedge_deadline = if strict then deadline else Cla_resilience.Deadline.never in
  let hedge_pool =
    Cla_par.Pool.shared ~jobs:(Cla_par.Pool.resolve_jobs (Option.value jobs ~default:1))
  in
  let hedge =
    Cla_par.Pool.async hedge_pool (fun () ->
        let r =
          match
            points_to ~algorithm:final_rung ?config ?demand ?budget
              ~deadline:hedge_deadline ~cancel:hedge_cancel view
          with
          | sol -> Ok sol
          | exception e -> Error e
        in
        Atomic.set hedge_done true;
        r)
  in
  let discard_hedge () =
    Cla_resilience.Cancel.set hedge_cancel;
    ignore (Cla_par.Pool.await hedge)
  in
  let timeouts = ref [] in
  let rec run_init idx = function
    | [] -> None
    | alg :: rest -> (
        match
          points_to ~algorithm:alg ?config ?demand ?budget ~deadline ?cancel
            ?jobs view
        with
        | sol -> Some (alg, idx, sol)
        | exception Cla_resilience.Deadline.Timed_out p ->
            timeouts := (alg, p) :: !timeouts;
            run_init (idx + 1) rest)
  in
  match run_init 0 init_rungs with
  | Some (alg, idx, sol) ->
      discard_hedge ();
      Cla_obs.Metrics.set "analyze.hedge_won" 0;
      finish_outcome ~alg ~degraded:(idx > 0) ~timeouts:(List.rev !timeouts)
        sol
  | None -> (
      (* Every precise rung timed out; the hedge's answer is the result.
         While it is still running, keep relaying an external
         cancellation onto the hedge's own token so a watchdog can still
         abort the whole solve. *)
      (match cancel with
      | Some c ->
          while not (Atomic.get hedge_done) do
            if Cla_resilience.Cancel.is_set c then
              Cla_resilience.Cancel.set hedge_cancel;
            Unix.sleepf 0.002
          done
      | None -> ());
      match Cla_par.Pool.await hedge with
      | Ok sol ->
          Cla_obs.Metrics.set "analyze.hedge_won" 1;
          finish_outcome ~alg:final_rung ~degraded:true
            ~timeouts:(List.rev !timeouts) sol
      | Error e -> raise e)
  | exception e ->
      (* external cancellation or a genuine solver error: stop the hedge
         before unwinding *)
      discard_hedge ();
      raise e

(** Run the degradation ladder under one deadline token.  Each rung gets
    the remaining slice; the final rung runs deadline-exempt (unless
    [strict]) so the ladder always returns a sound solution, labeled
    with its rung via {!Solution.set_provenance}.  A [cancel] token
    aborts the whole ladder.  Publishes [analyze.degraded],
    [analyze.deadline_ms], [analyze.rung], [analyze.rung_timeouts] and
    [analyze.hedge]/[analyze.hedge_won] into the metrics registry.

    [~hedge:true] with a finite deadline and at least two rungs runs the
    final (cheapest, always-sound) rung concurrently on its own domain
    from the start; the first sound answer wins and the loser is
    cancelled. *)
let points_to_ladder ?(ladder = default_ladder) ?strict ?(hedge = false)
    ?config ?demand ?budget ?(deadline = Cla_resilience.Deadline.never)
    ?cancel ?jobs (view : Objfile.view) : ladder_outcome =
  (* open-world databases drop unsupported unification rungs rather
     than dying mid-ladder on the Steensgaard guard *)
  let ladder =
    if view.Objfile.ropenworld <> None then
      List.filter (fun a -> a <> Steensgaard) ladder
    else ladder
  in
  if ladder = [] then invalid_arg "Pipeline.points_to_ladder: empty ladder";
  Cla_obs.Metrics.set "analyze.deadline_ms"
    (if Cla_resilience.Deadline.is_never deadline then -1
     else
       int_of_float (Float.max 0. (Cla_resilience.Deadline.remaining_ms deadline)));
  let hedge_active =
    hedge
    && (not (Cla_resilience.Deadline.is_never deadline))
    && List.length ladder >= 2
  in
  Cla_obs.Metrics.set "analyze.hedge" (if hedge_active then 1 else 0);
  if hedge_active then
    hedged_ladder ~ladder
      ~strict:(Option.value strict ~default:false)
      ?config ?demand ?budget ~deadline ?cancel ?jobs view
  else begin
    let rungs =
      List.map
        (fun a ->
          ( algorithm_name a,
            fun ~deadline ->
              points_to ~algorithm:a ?config ?demand ?budget ~deadline ?cancel
                ?jobs view ))
        ladder
    in
    let o = Cla_resilience.Degrade.run ?strict ~deadline ~rungs () in
    let lo_algorithm = List.nth ladder o.Cla_resilience.Degrade.rung_index in
    let lo_timeouts =
      List.map2
        (fun alg (a : Cla_resilience.Degrade.attempt) ->
          (alg, a.Cla_resilience.Degrade.a_progress))
        (List.filteri
           (fun i _ -> i < List.length o.Cla_resilience.Degrade.attempts)
           ladder)
        o.Cla_resilience.Degrade.attempts
    in
    finish_outcome ~alg:lo_algorithm
      ~degraded:o.Cla_resilience.Degrade.degraded ~timeouts:lo_timeouts
      o.Cla_resilience.Degrade.value
  end
