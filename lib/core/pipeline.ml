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

(* Map [compile] over the translation units, fanning out across [jobs]
   domains when [jobs > 1].  Compilation is file-local (per-invocation
   front-end state, no shared mutable tables), so units are independent
   items; [Pool.map] preserves input order and each unit's output bytes
   do not depend on scheduling — [-j N] object bytes are byte-identical
   to [-j 1].  The main domain wraps the whole fan-out in one
   ["compile"] span (worker domains skip span recording).  The pool's
   workers are process-wide, so repeated compile-link calls reuse the
   same parked domains. *)
let compile_units ~jobs compile units =
  let jobs = Cla_par.Pool.resolve_jobs jobs in
  if jobs <= 1 then List.map compile units
  else
    Cla_obs.Span.with_span "compile" ~label:(Fmt.str "fan-out -j%d" jobs)
      (fun () -> Cla_par.Pool.map ~jobs compile units)

(** Compile each (name, source) pair and link the results, all in memory.
    [jobs > 1] compiles translation units across a domain pool; the
    linked database is byte-identical to a sequential run. *)
let compile_link ?(options = Compilep.default_options) ?(jobs = 1) ?undefined
    (sources : (string * string) list) : Objfile.view =
  let views =
    compile_units ~jobs
      (fun (file, src) ->
        Objfile.encode (Compilep.compile_string ~options ~file src))
      sources
  in
  let db, _stats = Linkp.link_views ?undefined views in
  Objfile.encode db

(** Run the selected points-to analysis over a linked view.  Each solver
    runs under an ["analyze"] span (the pre-transitive solver records its
    own, with per-pass children).  [deadline]/[cancel] abort with the
    typed {!Cla_resilience} exceptions — never a partial solution. *)
let points_to ?(algorithm = Pretransitive) ?config ?demand ?budget ?deadline
    ?cancel (view : Objfile.view) : Solution.t =
  match algorithm with
  | Pretransitive ->
      (Andersen.solve ?config ?demand ?budget ?deadline ?cancel view)
        .Andersen.solution
  | Worklist ->
      Cla_obs.Span.with_span "analyze" ~label:"worklist" (fun () ->
          Worklist.solve ?deadline ?cancel view)
  | Bitvector ->
      Cla_obs.Span.with_span "analyze" ~label:"bitvector" (fun () ->
          Bitsolver.solve ?deadline ?cancel view)
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
      Cla_obs.Span.with_span "analyze" ~label:"steensgaard" (fun () ->
          Steensgaard.solve ?deadline ?cancel view)

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

type ladder_outcome = {
  lo_solution : Solution.t;
  lo_algorithm : algorithm;  (** the rung that answered *)
  lo_degraded : bool;
  lo_note : string;  (** soundness statement for that rung *)
  lo_timeouts : (algorithm * Cla_resilience.Progress.t) list;
      (** rungs that timed out, with how far each got *)
}

(* Stamp the answering rung onto the solution, publish the ladder
   metrics, and build the outcome record. *)
let finish_outcome ~alg ~timeouts sol =
  let degraded = timeouts <> [] in
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

let outcome_of_solution alg sol = finish_outcome ~alg ~timeouts:[] sol

(** The degradation ladder: the paper's solver under [deadline]; if it
    times out, Steensgaard's near-linear unification, deadline-exempt
    unless [strict].  On an open-world view Steensgaard is unsupported,
    so the paper's solver is the only rung and gets the exemption
    itself.  A [cancel] token aborts every path. *)
let points_to_ladder ?(strict = false) ?config ?demand ?budget
    ?(deadline = Cla_resilience.Deadline.never) ?cancel (view : Objfile.view)
    : ladder_outcome =
  Cla_obs.Metrics.set "analyze.deadline_ms"
    (if Cla_resilience.Deadline.is_never deadline then -1
     else
       int_of_float (Float.max 0. (Cla_resilience.Deadline.remaining_ms deadline)));
  let final = if strict then deadline else Cla_resilience.Deadline.never in
  let solve algorithm ~deadline =
    points_to ~algorithm ?config ?demand ?budget ~deadline ?cancel view
  in
  if view.Objfile.ropenworld <> None then
    finish_outcome ~alg:Pretransitive ~timeouts:[]
      (solve Pretransitive ~deadline:final)
  else
    match solve Pretransitive ~deadline with
    | sol -> finish_outcome ~alg:Pretransitive ~timeouts:[] sol
    | exception Cla_resilience.Deadline.Timed_out p ->
        finish_outcome ~alg:Steensgaard ~timeouts:[ (Pretransitive, p) ]
          (solve Steensgaard ~deadline:final)
