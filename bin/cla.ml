(* The cla command-line driver, mirroring the paper's three-phase
   architecture plus the applications built on it.

     cla compile a.c -o a.clo
     cla link a.clo b.clo -o prog.cla
     cla analyze prog.cla [--algo pretransitive|worklist|bitvector|steensgaard]
                          [--no-cache] [--no-cycle-elim] [--print]
     cla depend prog.cla --target x [--non-target y] [--new-type int] [--tree]
     cla transform prog.cla [--substitute] [--duplicate-contexts] -o out.cla
     cla dump prog.cla [--blocks]
     cla gen gimp -d outdir [--scale 0.1] [--seed 7]
*)

open Cmdliner
open Cla_core

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* Bad input (exit 2) is separated from internal failure (exit 3):
   scripts driving a keep-going build want to know whether to fix their
   sources or file a bug.  Usage errors keep cmdliner's 124. *)
let err_input msg = Error (msg, Diag.exit_input)

let handle_errors f =
  try f () with
  | Cla_cfront.Cparser.Parse_error (msg, loc) ->
      err_input (Fmt.str "parse error: %s at %a" msg Cla_ir.Loc.pp loc)
  | Cla_cfront.Cpp.Cpp_error (msg, file, line) ->
      err_input (Fmt.str "cpp error: %s at %s:%d" msg file line)
  | Cla_cfront.Clexer.Error (msg, { file; line; col }) ->
      err_input (Fmt.str "lex error: %s at %s:%d:%d" msg file line col)
  | Binio.Corrupt msg -> err_input ("corrupt object file: " ^ msg)
  | Diag.Fail d -> err_input (Diag.to_string d)
  | Sys_error msg -> err_input msg
  | Stack_overflow ->
      Error ("internal error: stack overflow", Diag.exit_internal)
  | e -> Error ("internal error: " ^ Printexc.to_string e, Diag.exit_internal)

let to_exit = function
  | Ok () -> Diag.exit_ok
  | Error (msg, code) ->
      Fmt.epr "cla: %s@." msg;
      code

(* Open a database, turning corruption into a one-line diagnostic that
   names the offending file.  Section checksums are verified lazily, at
   first section open. *)
let load_view path =
  Cla_obs.Span.with_span "load" ~label:path @@ fun () ->
  match Objfile.load_result path with
  | Ok v -> v
  | Error d ->
      Cla_obs.Metrics.incr (Diag.metric_of_phase d.Diag.phase);
      raise (Diag.Fail d)

let keep_going_arg =
  Arg.(
    value & flag
    & info [ "k"; "keep-going" ]
        ~doc:
          "Report failing inputs as diagnostics and continue with the \
           rest instead of stopping at the first failure.")

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Compile translation units on $(docv) worker domains, at most \
           one per core (a larger $(docv) is capped).  0 means auto: one \
           domain per core, less one.  Object bytes are \
           identical regardless of $(docv).")

(* Resolve a [-j N] request once per run, publishing the requested and
   resolved widths so [--stats-json] records what actually ran.  A
   negative count is a clean input error (exit 2), not an exception
   trace. *)
let resolve_jobs jobs =
  if jobs < 0 then
    err_input
      (Fmt.str "invalid job count %d: -j expects N >= 0 (0 = auto-detect)"
         jobs)
  else begin
    let j = Cla_par.Pool.resolve_jobs jobs in
    Cla_obs.Metrics.set "par.jobs_requested" jobs;
    Cla_obs.Metrics.set "par.jobs" j;
    Ok j
  end

(* ------------------------------------------------------------------ *)
(* Observability options (compile, link, analyze)                      *)
(* ------------------------------------------------------------------ *)

type obs_opts = {
  o_stats : bool;
  o_stats_json : string option;
  o_trace : string option;
}

let obs_term =
  let stats =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:"Print the span tree and metrics registry after the command.")
  in
  let stats_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "stats-json" ] ~docv:"FILE"
          ~doc:
            "Dump the full metrics registry and span tree as JSON to \
             $(docv).")
  in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write Chrome trace_event JSON to $(docv) (load in \
             chrome://tracing or ui.perfetto.dev).")
  in
  Term.(
    const (fun o_stats o_stats_json o_trace ->
        { o_stats; o_stats_json; o_trace })
    $ stats $ stats_json $ trace)

(* Enable span recording iff some sink asked for it (spans are no-ops
   otherwise), run, then emit to every requested sink.  Sinks are
   written even when the command fails: a keep-going run's error
   counters ([compile.errors], [load.corrupt], ...) are part of its
   result. *)
let with_obs o f =
  let active = o.o_stats || o.o_stats_json <> None || o.o_trace <> None in
  if active then Cla_obs.Span.set_enabled true;
  let r = f () in
  if not active then r
  else begin
    if o.o_stats then
      Fmt.pr "%a" (fun ppf () -> Cla_obs.Export.pp_table ppf ()) ();
    try
      Option.iter (fun p -> Cla_obs.Export.write_json p) o.o_stats_json;
      Option.iter
        (fun p -> Cla_obs.Trace.write p (Cla_obs.Span.roots ()))
        o.o_trace;
      r
    with Sys_error msg -> ( match r with Ok () -> err_input msg | Error _ -> r)
  end

(* ------------------------------------------------------------------ *)
(* Common options                                                      *)
(* ------------------------------------------------------------------ *)

let mode_arg =
  let field_independent =
    Arg.(
      value & flag
      & info [ "field-independent" ]
          ~doc:
            "Treat struct field accesses as accesses to the whole base \
             object (the default is the paper's field-based mode).")
  in
  Term.(
    const (fun fi ->
        if fi then Cla_cfront.Normalize.Field_independent
        else Cla_cfront.Normalize.Field_based)
    $ field_independent)

let include_dirs_arg =
  Arg.(
    value & opt_all dir []
    & info [ "I" ] ~docv:"DIR" ~doc:"Add $(docv) to the #include search path.")

let defines_arg =
  Arg.(
    value & opt_all string []
    & info [ "D" ] ~docv:"NAME[=VALUE]"
        ~doc:"Predefine $(docv) for the preprocessor.")

let parse_defines ds =
  List.map
    (fun d ->
      match String.index_opt d '=' with
      | Some i -> (String.sub d 0 i, String.sub d (i + 1) (String.length d - i - 1))
      | None -> (d, "1"))
    ds

let options_term =
  Term.(
    const (fun mode include_dirs defines ->
        {
          Compilep.mode;
          include_dirs;
          defines = parse_defines defines;
          virtual_fs = [];
          drop_bodies = (fun _ -> false);
        })
    $ mode_arg $ include_dirs_arg $ defines_arg)

(* ------------------------------------------------------------------ *)
(* compile                                                             *)
(* ------------------------------------------------------------------ *)

let compile_cmd =
  let sources =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE.c")
  in
  let output =
    Arg.(
      value & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE.clo"
          ~doc:"Output object file (default: source with .clo extension).")
  in
  let run options sources output keep_going jobs obs =
    with_obs obs (fun () ->
        handle_errors (fun () ->
            let* jobs = resolve_jobs jobs in
            (* Compile every unit (fanning out across a domain pool when
               -j > 1; compilation is file-local, so units are
               independent and each unit's bytes are scheduling-
               independent), then write outputs and report diagnostics
               strictly in input order — -jN output is byte-identical
               and diagnostic-identical to -j1. *)
            let out_for src =
              match (output, sources) with
              | Some o, [ _ ] -> o
              | _ -> Filename.remove_extension src ^ ".clo"
            in
            (* Incremental compile: when the output object already
               exists and records the same TU content hash (preprocessed
               source + flags), the expensive parse/serialize is
               skipped.  A hash probe is just the preprocessor plus a
               digest; mismatches, unreadable objects, and pre-hash
               objects all fall through to a fresh compile. *)
            let up_to_date src =
              let out = out_for src in
              Sys.file_exists out
              && (match Objfile.load_result out with
                 | Error _ -> false
                 | Ok v -> (
                     match v.Objfile.rtuhash with
                     | None -> false
                     | Some h -> (
                         match
                           Compilep.tu_hash ~options ~file:src
                             (Binio.read_file src)
                         with
                         | h' -> String.equal h h'
                         | exception _ -> false)))
            in
            let results =
              let compile src =
                if up_to_date src then begin
                  Cla_obs.Metrics.incr "compile.cache.hits";
                  (src, `Cached)
                end
                else begin
                  Cla_obs.Metrics.incr "compile.cache.misses";
                  (src, `Fresh (Compilep.compile_file_result ~options src))
                end
              in
              Pipeline.compile_units ~jobs compile sources
            in
            let c = Diag.collector () in
            List.iter
              (fun (src, result) ->
                let out = out_for src in
                match result with
                | `Cached -> Fmt.pr "%s -> %s (cached)@." src out
                | `Fresh (Ok db) ->
                    Objfile.save out db;
                    Fmt.pr "%s -> %s@." src out
                | `Fresh (Error d) ->
                    if keep_going then begin
                      Diag.add c d;
                      Fmt.epr "cla: %a@." Diag.pp d
                    end
                    else raise (Diag.Fail d))
              results;
            match Diag.error_count c with
            | 0 -> Ok ()
            | n ->
                err_input
                  (Fmt.str "%d of %d unit(s) failed" n (List.length sources))))
    |> to_exit
  in
  Cmd.v
    (Cmd.info "compile" ~doc:"Parse C sources into CLA object files (no analysis).")
    Term.(
      const run $ options_term $ sources $ output $ keep_going_arg $ jobs_arg
      $ obs_term)

(* ------------------------------------------------------------------ *)
(* link                                                                *)
(* ------------------------------------------------------------------ *)

let open_world_arg =
  Arg.(
    value & flag
    & info [ "open-world" ]
        ~doc:
          "Treat the program as an incomplete fragment: synthesize havoc \
           constraints for declared-but-undefined functions and escaping \
           externs so the analysis stays sound.")

let link_cmd =
  let objects = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE.clo") in
  let output =
    Arg.(
      value
      & opt string "prog.cla"
      & info [ "o"; "output" ] ~docv:"FILE.cla" ~doc:"Linked database output.")
  in
  let run objects output keep_going open_world obs =
    with_obs obs (fun () ->
        handle_errors (fun () ->
            let undefined =
              if open_world then Linkp.Open_world else Linkp.Error
            in
            (* A Link-phase failure is the strict linker refusing an
               incomplete program — the closed-world contract cannot be
               met, which the taxonomy files under exit 3 (internal),
               not exit 2 (the inputs themselves are fine). *)
            match Linkp.link_files_result ~keep_going ~undefined ~output objects with
            | exception Diag.Fail d when d.Diag.phase = Diag.Link ->
                Error (Diag.to_string d, Diag.exit_internal)
            | stats, diags -> (
                List.iter (fun d -> Fmt.epr "cla: %a@." Diag.pp d) diags;
                match stats with
                | None -> err_input "no usable object files"
                | Some stats ->
                    Fmt.pr
                      "%d unit(s) -> %s: %d objects (%d extern references \
                       merged)@."
                      stats.Linkp.n_units output stats.Linkp.n_vars_out
                      stats.Linkp.n_extern_merged;
                    if open_world then
                      Fmt.pr
                        "open world: %d undefined function(s) havocked@."
                        stats.Linkp.n_undefined;
                    if diags = [] then Ok ()
                    else
                      err_input
                        (Fmt.str "%d object file(s) skipped"
                           (List.length diags)))))
    |> to_exit
  in
  Cmd.v
    (Cmd.info "link"
       ~doc:
         "Merge object files into one database, linking global symbols.  \
          Without $(b,--open-world), declared-but-undefined functions are \
          a link failure (exit 3); with it they are havocked soundly.")
    Term.(
      const run $ objects $ output $ keep_going_arg $ open_world_arg
      $ obs_term)

(* ------------------------------------------------------------------ *)
(* analyze                                                             *)
(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let db = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cla") in
  let algo =
    Arg.(
      value
      & opt string "pretransitive"
      & info [ "algo" ] ~docv:"NAME"
          ~doc:
            "Solver: pretransitive (paper), worklist, bitvector, or \
             steensgaard.")
  in
  let print_sets =
    Arg.(value & flag & info [ "print" ] ~doc:"Print every points-to set.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the points-to sets as JSON (for downstream tooling).")
  in
  let no_cache =
    Arg.(value & flag & info [ "no-cache" ] ~doc:"Disable reachability caching (ablation).")
  in
  let no_cycle =
    Arg.(value & flag & info [ "no-cycle-elim" ] ~doc:"Disable cycle elimination (ablation).")
  in
  let budget =
    Arg.(
      value
      & opt (some int) None
      & info [ "budget" ] ~docv:"N"
          ~doc:
            "Keep at most $(docv) retained assignments in core; \
             least-recently-used blocks are discarded and re-loaded on \
             demand (pretransitive solver only).")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS"
          ~doc:
            "Abort the analysis after $(docv) milliseconds of wall-clock \
             time (monotonic).  Without $(b,--ladder) a blown deadline \
             exits with code 4; with it the solve degrades to \
             steensgaard instead.")
  in
  let ladder =
    Arg.(
      value & flag
      & info [ "ladder" ]
          ~doc:
            "On deadline expiry, fall back from pretransitive to \
             steensgaard instead of failing; the final rung runs \
             deadline-exempt, so the command always reports a sound \
             solution labeled with the rung that produced it.  On an \
             open-world database pretransitive is the only rung and \
             runs to completion.")
  in
  let strict_deadline =
    Arg.(
      value & flag
      & info [ "strict-deadline" ]
          ~doc:
            "With $(b,--ladder): the final rung also honors the \
             deadline, so the whole ladder may time out (exit code 4) \
             instead of always answering.")
  in
  let save_snapshot =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-snapshot" ] ~docv:"FILE.snap"
          ~doc:
            "Persist the solution as a snapshot sidecar: $(b,cla serve \
             --snapshot) $(docv) then restarts in the time it takes to \
             read the file, answering from the frozen solution without a \
             single solve.  A degraded solution is refused — a snapshot \
             must never pin reduced precision.")
  in
  let print_json sol =
    let name z =
      Cla_obs.Json.(to_string ~indent:false (Str (Solution.var_name sol z)))
    in
    Fmt.pr "{@.";
    let first = ref true in
    for v = 0 to Array.length sol.Solution.pts - 1 do
      let pts = Solution.points_to sol v in
      if Lvalset.cardinal pts > 0 && Solution.is_program_var sol v then begin
        if not !first then Fmt.pr ",@.";
        first := false;
        Fmt.pr "  %s: [%s]" (name v)
          (String.concat ", " (List.map name (Lvalset.to_list pts)))
      end
    done;
    Fmt.pr "@.}@."
  in
  let run db algo print_sets json no_cache no_cycle budget deadline_ms ladder
      strict_deadline save_snapshot open_world obs =
    with_obs obs (fun () ->
        handle_errors (fun () ->
            let* algorithm =
              match Pipeline.algorithm_of_string algo with
              | Some a -> Ok a
              | None ->
                  err_input
                    (Fmt.str "unknown algorithm %S (valid: %s)" algo
                       (String.concat ", " Pipeline.algorithm_names))
            in
            (* Steensgaard unifies, and unification would collapse the
               open-world blob with every escaping object — reject the
               combination up front, like an unknown algorithm name. *)
            let* () =
              if open_world && algorithm = Pipeline.Steensgaard then
                err_input
                  (Fmt.str
                     "algorithm %S cannot analyze an open-world database \
                      (valid with --open-world: %s)"
                     algo
                     (String.concat ", "
                        (List.filter
                           (fun n -> n <> "steensgaard")
                           Pipeline.algorithm_names)))
              else Ok ()
            in
            (* --budget only reaches the pre-transitive solver's loader;
               warn instead of silently ignoring it *)
            if budget <> None && (ladder || algorithm <> Pipeline.Pretransitive)
            then
              Fmt.epr "cla: %a@." Diag.pp
                (Diag.warning ~phase:Diag.Analyze
                   (if ladder then
                      "--budget applies to the pretransitive rung only; \
                       fallback rungs ignore it"
                    else
                      Fmt.str "--budget is ignored by the %s solver \
                               (pretransitive only)"
                        (Pipeline.algorithm_name algorithm)));
            Cla_obs.Metrics.set_str "analyze.algorithm"
              (Pipeline.algorithm_name algorithm);
            let view = load_view db in
            let* () =
              if open_world && view.Objfile.ropenworld = None then
                err_input
                  (Fmt.str
                     "%s carries no open-world section: re-link with `cla \
                      link --open-world`"
                     db)
              else Ok ()
            in
            (match view.Objfile.ropenworld with
            | Some ow ->
                Cla_obs.Metrics.set "analyze.open_world.undefined"
                  (List.length ow.Objfile.owundef)
            | None -> ());
            let deadline =
              match deadline_ms with
              | Some ms -> Cla_resilience.Deadline.of_ms ms
              | None -> Cla_resilience.Deadline.never
            in
            let t0 = Unix.gettimeofday () in
            let outcome =
              if ladder then
                match
                  Pipeline.points_to_ladder ~strict:strict_deadline ?budget
                    ~deadline view
                with
                | o ->
                    List.iter
                      (fun (a, p) ->
                        Fmt.epr "cla: %a@." Diag.pp
                          (Diag.warning ~phase:Diag.Analyze
                             (Fmt.str
                                "deadline: %s rung timed out (%a); degrading"
                                (Pipeline.algorithm_name a)
                                Cla_resilience.Progress.pp p)))
                      o.Pipeline.lo_timeouts;
                    Ok
                      ( o.Pipeline.lo_solution,
                        o.Pipeline.lo_algorithm,
                        (if o.Pipeline.lo_degraded then
                           Fmt.str " [degraded: %s]" o.Pipeline.lo_note
                         else ""),
                        Some o )
                | exception Cla_resilience.Deadline.Timed_out p -> Error p
              else
                match algorithm with
                | Pipeline.Pretransitive -> (
                    let config =
                      { Pretrans.cache = not no_cache; cycle_elim = not no_cycle }
                    in
                    match Andersen.solve ~config ?budget ~deadline view with
                    | r ->
                        let ls = r.Andersen.loader_stats in
                        Ok
                          ( r.Andersen.solution,
                            algorithm,
                            Fmt.str
                              " passes=%d in-core=%d loaded=%d in-file=%d \
                               evictions=%d"
                              r.Andersen.passes ls.Loader.s_in_core
                              ls.Loader.s_loaded ls.Loader.s_in_file
                              ls.Loader.s_evictions,
                            None )
                    | exception Cla_resilience.Deadline.Timed_out p -> Error p)
                | _ -> (
                    match Pipeline.points_to ~algorithm ~deadline view with
                    | sol -> Ok (sol, algorithm, "", None)
                    | exception Cla_resilience.Deadline.Timed_out p -> Error p)
            in
            let dt = Unix.gettimeofday () -. t0 in
            match outcome with
            | Error p ->
                Error
                  ( Fmt.str "deadline of %dms expired (%a)"
                      (Option.value ~default:0 deadline_ms)
                      Cla_resilience.Progress.pp p,
                    Diag.exit_deadline )
            | Ok (sol, answered_by, extra, lo) ->
                if json then print_json sol
                else begin
                  if print_sets then Fmt.pr "%a" Solution.pp sol;
                  Fmt.pr
                    "%s: %d pointer variables, %d points-to relations, \
                     %.3fs%s@."
                    (Pipeline.algorithm_name answered_by)
                    (Solution.n_pointer_vars sol)
                    (Solution.n_relations sol) dt extra
                end;
                match save_snapshot with
                | None -> Ok ()
                | Some path ->
                    (* a plain solve has no ladder outcome; synthesize
                       one with the rung's own soundness label *)
                    let o =
                      match lo with
                      | Some o -> o
                      | None ->
                          {
                            Pipeline.lo_solution = sol;
                            lo_algorithm = answered_by;
                            lo_degraded = false;
                            lo_note = Pipeline.soundness_note answered_by;
                            lo_timeouts = [];
                          }
                    in
                    if o.Pipeline.lo_degraded then
                      err_input
                        "refusing to save a snapshot of a degraded \
                         solution: it would pin the fallback rung's \
                         precision forever (re-run with a larger \
                         --deadline-ms)"
                    else begin
                      Snapshot.save path ~view o;
                      Fmt.pr "snapshot: wrote %s (%s)@." path
                        (Pipeline.algorithm_name o.Pipeline.lo_algorithm);
                      Ok ()
                    end))
    |> to_exit
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run a points-to analysis over a linked database.")
    Term.(
      const run $ db $ algo $ print_sets $ json $ no_cache $ no_cycle $ budget
      $ deadline_ms $ ladder $ strict_deadline $ save_snapshot
      $ open_world_arg $ obs_term)

(* ------------------------------------------------------------------ *)
(* depend                                                              *)
(* ------------------------------------------------------------------ *)

let depend_cmd =
  let db = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cla") in
  let target =
    Arg.(
      required
      & opt (some string) None
      & info [ "target"; "t" ] ~docv:"NAME"
          ~doc:"The object whose type is to be changed.")
  in
  let non_targets =
    Arg.(
      value & opt_all string []
      & info [ "non-target" ] ~docv:"NAME"
          ~doc:"Objects known to be irrelevant; chains through them are pruned.")
  in
  let limit =
    Arg.(
      value & opt int 50
      & info [ "limit" ] ~docv:"N" ~doc:"Print at most $(docv) chains.")
  in
  let new_type =
    Arg.(
      value
      & opt (some string) None
      & info [ "new-type" ] ~docv:"TYPE"
          ~doc:
            "Annotate each dependent with whether it must widen when the \
             target's type becomes $(docv) (e.g. int).")
  in
  let tree =
    Arg.(
      value & flag
      & info [ "tree" ] ~doc:"Render the chains as a tree rooted at the target.")
  in
  let run db target non_targets limit new_type tree =
    handle_errors (fun () ->
        let view = load_view db in
        let pta = Andersen.solve view in
        let dep = Cla_depend.Depend.prepare view pta in
        match Cla_depend.Depend.query_by_name dep ~non_targets target with
        | None -> err_input (Fmt.str "target %S not found" target)
        | Some r ->
            let r =
              {
                r with
                Cla_depend.Depend.r_dependents =
                  List.filteri
                    (fun i _ -> i < limit)
                    r.Cla_depend.Depend.r_dependents;
              }
            in
            (match (tree, new_type) with
            | true, _ -> Fmt.pr "%a" (Cla_depend.Depend.pp_tree dep) r
            | false, Some ty ->
                Fmt.pr "%a" (Cla_depend.Depend.pp_report_narrowing dep ~new_type:ty) r
            | false, None -> Fmt.pr "%a" (Cla_depend.Depend.pp_report dep) r);
            Ok ())
    |> to_exit
  in
  Cmd.v
    (Cmd.info "depend"
       ~doc:"Forward data-dependence analysis: find objects that take values from the target.")
    Term.(const run $ db $ target $ non_targets $ limit $ new_type $ tree)

(* ------------------------------------------------------------------ *)
(* transform                                                           *)
(* ------------------------------------------------------------------ *)

let transform_cmd =
  let db = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cla") in
  let output =
    Arg.(
      value
      & opt string "out.cla"
      & info [ "o"; "output" ] ~docv:"FILE.cla" ~doc:"Transformed database.")
  in
  let substitute =
    Arg.(
      value & flag
      & info [ "substitute" ]
          ~doc:"Offline variable substitution: merge copy-equivalent objects.")
  in
  let duplicate =
    Arg.(
      value & flag
      & info [ "duplicate-contexts" ]
          ~doc:
            "Simulate context-sensitivity by cloning functions per direct \
             call site.")
  in
  let run db output substitute duplicate =
    handle_errors (fun () ->
        let view = load_view db in
        let d = fst (Linkp.link_views [ view ]) in
        let d =
          if duplicate then begin
            let d', st = Transform.duplicate_contexts d in
            Fmt.pr "duplicate-contexts: %d function(s) cloned, %d clone(s)@."
              st.Transform.cloned_functions st.Transform.clones;
            d'
          end
          else d
        in
        let d =
          if substitute then begin
            let d', st = Transform.substitute_variables d in
            Fmt.pr "substitute: %d variable(s) merged, %d assignment(s) dropped@."
              st.Transform.merged_vars st.Transform.dropped_assignments;
            d'
          end
          else d
        in
        Objfile.save output d;
        Fmt.pr "%s -> %s@." db output;
        Ok ())
    |> to_exit
  in
  Cmd.v
    (Cmd.info "transform"
       ~doc:"Apply database-to-database pre-analysis optimizers (Section 4).")
    Term.(const run $ db $ output $ substitute $ duplicate)

(* ------------------------------------------------------------------ *)
(* dump                                                                *)
(* ------------------------------------------------------------------ *)

let dump_cmd =
  let db = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE") in
  let blocks =
    Arg.(value & flag & info [ "blocks" ] ~doc:"Also dump every dynamic block.")
  in
  let run db blocks =
    handle_errors (fun () ->
        let view = load_view db in
        let m = view.Objfile.rmeta in
        Fmt.pr "files: %a@." Fmt.(list ~sep:comma string) m.Objfile.mfiles;
        Fmt.pr "source lines: %d, preprocessed lines: %d@."
          m.Objfile.msource_lines m.Objfile.mpreproc_lines;
        Fmt.pr "assignments: %a@." Cla_ir.Prim.pp_counts m.Objfile.mcounts;
        Fmt.pr "objects: %d; fundefs: %d; indirect call sites: %d@."
          (Objfile.n_vars view)
          (Array.length view.Objfile.rfundefs)
          (Array.length view.Objfile.rindirects);
        Fmt.pr "@.static section (always loaded):@.";
        Array.iter
          (fun (p : Objfile.prim_rec) ->
            Fmt.pr "  %s = &%s %a@."
              view.Objfile.rvars.(p.Objfile.pdst).Objfile.vname
              view.Objfile.rvars.(p.Objfile.psrc).Objfile.vname Cla_ir.Loc.pp
              p.Objfile.ploc)
          view.Objfile.rstatics;
        if blocks then begin
          Fmt.pr "@.dynamic section (loaded on demand, by source object):@.";
          for v = 0 to Objfile.n_vars view - 1 do
            if Objfile.has_block view v then begin
              let vi = view.Objfile.rvars.(v) in
              Fmt.pr "  %s @@ %a@." vi.Objfile.vname Cla_ir.Loc.pp vi.Objfile.vloc;
              List.iter
                (fun (p : Objfile.prim_rec) ->
                  let dst = view.Objfile.rvars.(p.Objfile.pdst).Objfile.vname in
                  let src = vi.Objfile.vname in
                  let txt =
                    match p.Objfile.pkind with
                    | Objfile.Pcopy -> Fmt.str "%s = %s" dst src
                    | Objfile.Paddr -> Fmt.str "%s = &%s" dst src
                    | Objfile.Pstore -> Fmt.str "*%s = %s" dst src
                    | Objfile.Pload -> Fmt.str "%s = *%s" dst src
                    | Objfile.Pderef2 -> Fmt.str "*%s = *%s" dst src
                  in
                  let op =
                    match p.Objfile.pop with
                    | Some (o, s) ->
                        Fmt.str " [%s/%s]" o (Cla_ir.Strength.to_string s)
                    | None -> ""
                  in
                  Fmt.pr "    %s%s %a@." txt op Cla_ir.Loc.pp p.Objfile.ploc)
                (Objfile.read_block view v)
            end
          done
        end;
        Ok ())
    |> to_exit
  in
  Cmd.v
    (Cmd.info "dump" ~doc:"Inspect an object file or linked database (Figure 4's view).")
    Term.(const run $ db $ blocks)

(* ------------------------------------------------------------------ *)
(* faults                                                              *)
(* ------------------------------------------------------------------ *)

let faults_cmd =
  let db = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cla") in
  let n =
    Arg.(
      value & opt int 500
      & info [ "n"; "mutations" ] ~docv:"N"
          ~doc:"Number of random mutations to inject.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Mutation seed.")
  in
  let run db n seed obs =
    with_obs obs (fun () ->
        handle_errors (fun () ->
            let data = Binio.read_file db in
            (* the unmutated file must be sound before we corrupt it *)
            let baseline =
              (Andersen.solve ~demand:false (Objfile.view_of_string data))
                .Andersen.solution
            in
            match
              Cla_workload.Faults.sweep ~baseline ~seed:(Int64.of_int seed) ~n
                data
            with
            | stats ->
                Fmt.pr
                  "%s: %d mutation(s), %d accepted (identical solution), %d \
                   rejected as corrupt@."
                  db stats.Cla_workload.Faults.n_total
                  stats.Cla_workload.Faults.n_accepted
                  stats.Cla_workload.Faults.n_rejected;
                Ok ()
            | exception Cla_workload.Faults.Invariant_violation (m, e) ->
                Error
                  ( Fmt.str "fault invariant violated on %S: %s raised %s" db
                      (Cla_workload.Faults.describe m)
                      (Printexc.to_string e),
                    Diag.exit_internal )))
    |> to_exit
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:
         "Fault-injection sweep: corrupt the database N ways and check \
          every mutant is either analyzed identically or rejected cleanly.")
    Term.(const run $ db $ n $ seed $ obs_term)

(* ------------------------------------------------------------------ *)
(* fuzz                                                                *)
(* ------------------------------------------------------------------ *)

let fuzz_cmd =
  let cases =
    Arg.(
      value & opt int 200
      & info [ "cases" ] ~docv:"N" ~doc:"Number of random programs to try.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Stream seed.")
  in
  let out =
    Arg.(
      value & opt string "fuzz-repro.c"
      & info [ "o"; "output" ] ~docv:"FILE.c"
          ~doc:"Where to write the minimized reproducer on failure.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ] ~doc:"Print a dot per finished case.")
  in
  let run cases seed out verbose obs =
    with_obs obs (fun () ->
        handle_errors (fun () ->
            let on_progress i =
              if verbose then begin
                Fmt.pr ".";
                if (i + 1) mod 50 = 0 then Fmt.pr "@.";
                Fmt.pr "%!"
              end
            in
            match
              Cla_workload.Fuzzc.run ~on_progress ~seed:(Int64.of_int seed)
                ~cases ()
            with
            | Ok s ->
                if verbose then Fmt.pr "@.";
                Fmt.pr
                  "fuzz: %d case(s), %d points-to set(s) compared, 0 \
                   divergences, 0 crashes@."
                  s.Cla_workload.Fuzzc.n_cases s.Cla_workload.Fuzzc.n_probes;
                Ok ()
            | Error f ->
                if verbose then Fmt.pr "@.";
                let oc = open_out out in
                output_string oc f.Cla_workload.Fuzzc.f_source;
                close_out oc;
                (* exit 1: a divergence is a normalizer bug, not bad
                   input (2) or an infrastructure failure (3) *)
                Error
                  ( Fmt.str "case %d (seed %d) failed — %a@.reproducer: %s"
                      f.Cla_workload.Fuzzc.f_index seed
                      Cla_workload.Fuzzc.pp_kind f.Cla_workload.Fuzzc.f_kind
                      out,
                    1 )))
    |> to_exit
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Differential frontend fuzzing: random C programs stressing \
          function pointers through structs, multi-level arrays and \
          varargs are normalized and solved, then checked against an \
          independent reference normalizer.  Exit 1 with a minimized \
          reproducer on the first divergence or crash.")
    Term.(const run $ cases $ seed $ out $ verbose $ obs_term)

(* ------------------------------------------------------------------ *)
(* gen                                                                 *)
(* ------------------------------------------------------------------ *)

let gen_cmd =
  let profile =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"PROFILE"
          ~doc:"One of nethack, burlap, vortex, emacs, povray, gcc, gimp, lucent.")
  in
  let dir =
    Arg.(
      value & opt string "."
      & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Directory for the generated sources.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Generator seed.")
  in
  let scale =
    Arg.(
      value & opt float 1.0
      & info [ "scale" ] ~docv:"F" ~doc:"Scale the profile down (0 < F <= 1).")
  in
  let run profile dir seed scale =
    handle_errors (fun () ->
        let* p =
          match Cla_workload.Profile.find profile with
          | Some p -> Ok p
          | None -> err_input (Fmt.str "unknown profile %S" profile)
        in
        let p =
          if scale < 1.0 then Cla_workload.Profile.scaled scale p else p
        in
        let files = Cla_workload.Genc.generate ~seed:(Int64.of_int seed) p in
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        List.iter
          (fun (name, content) ->
            let path = Filename.concat dir name in
            let oc = open_out path in
            output_string oc content;
            close_out oc;
            Fmt.pr "%s@." path)
          files;
        Ok ())
    |> to_exit
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a synthetic C workload matching a Table 2 profile.")
    Term.(const run $ profile $ dir $ seed $ scale)

(* ------------------------------------------------------------------ *)
(* serve / query / serve-bench                                         *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  Arg.(
    value
    & opt string "cla.sock"
    & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let serve_cmd =
  let db = Arg.(value & pos 0 (some file) None & info [] ~docv:"FILE.cla") in
  let watch =
    Arg.(
      value
      & opt (some dir) None
      & info [ "watch" ] ~docv:"DIR"
          ~doc:
            "Serve a directory of .c / .clo files instead of a linked \
             database: compile-link-analyze it once, then keep the served \
             solution in sync with edits — only changed units recompile \
             (a digest of the source and of each header it includes), \
             the linker patches a delta, the solver resumes from its \
             surviving state, and the fresh solution is swapped in \
             atomically.  The $(b,reanalyze) protocol op forces a rescan \
             on demand.")
  in
  let watch_poll =
    Arg.(
      value & opt int 500
      & info [ "watch-poll-ms" ] ~docv:"MS"
          ~doc:"How often --watch polls the directory for changes.")
  in
  let save_snapshot =
    Arg.(
      value
      & opt (some string) None
      & info [ "save-snapshot" ] ~docv:"FILE.snap"
          ~doc:
            "Rewrite $(docv) after every non-degraded solution swap (and \
             at --watch boot), so the served answer stays backed by a \
             snapshot of the new view.  Pair with --snapshot $(docv) to \
             also thaw it at the next restart.")
  in
  let max_inflight =
    Arg.(
      value & opt int 4
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Queries executing at once; more wait in the queue.")
  in
  let max_queue =
    Arg.(
      value & opt int 16
      & info [ "max-queue" ] ~docv:"N"
          ~doc:"Queries allowed to wait for a slot; beyond this, shed.")
  in
  let default_deadline =
    Arg.(
      value & opt int 2000
      & info [ "default-deadline-ms" ] ~docv:"MS"
          ~doc:"Deadline for queries that do not name one.")
  in
  let watchdog_grace =
    Arg.(
      value & opt int 200
      & info [ "watchdog-grace-ms" ] ~docv:"MS"
          ~doc:
            "The watchdog cancels a query this long after its deadline \
             if it has not unwound on its own.")
  in
  let allow_sleep =
    Arg.(
      value & flag
      & info [ "allow-sleep" ]
          ~doc:"Enable the debug sleep op (load tests drive it).")
  in
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"N"
          ~doc:
            "Run solves on $(docv) supervised solver shards, each a \
             worker domain fed round-robin.  Every query answers from \
             one shared answer cell; shards only add room for fresh or \
             concurrent solves.  1 (the default) is one solver domain.")
  in
  let query_log =
    Arg.(
      value
      & opt (some string) None
      & info [ "query-log" ] ~docv:"FILE"
          ~doc:"Append one JSON line per finished query to $(docv).")
  in
  let ring =
    Arg.(
      value & opt int 256
      & info [ "ring" ] ~docv:"N"
          ~doc:
            "Keep the last $(docv) queries in memory (feeds --trace and \
             the serve.recent_total_us series).")
  in
  let snapshot =
    Arg.(
      value
      & opt (some file) None
      & info [ "snapshot" ] ~docv:"FILE.snap"
          ~doc:
            "Thaw a solution persisted by $(b,cla analyze \
             --save-snapshot) and answer every non-fresh query from it — \
             restart cost is the file read, no solve.  A \
             corrupt or wrong-database snapshot is rejected and the \
             server falls back to live solves.")
  in
  let no_supervise =
    Arg.(
      value & flag
      & info [ "no-supervise" ]
          ~doc:
            "Disable shard supervision (heartbeats, automatic restart of \
             dead or wedged solver shards).  Chaos testing only.")
  in
  let heartbeat_grace =
    Arg.(
      value & opt int 30_000
      & info [ "heartbeat-grace-ms" ] ~docv:"MS"
          ~doc:
            "A busy shard silent for $(docv) is declared wedged and \
             restarted.")
  in
  let restart_budget =
    Arg.(
      value & opt int 5
      & info [ "restart-budget" ] ~docv:"N"
          ~doc:
            "Circuit breaker: after $(docv) restarts of one shard inside \
             the restart window, leave it down and route around it.")
  in
  let restart_window =
    Arg.(
      value & opt int 60_000
      & info [ "restart-window-ms" ] ~docv:"MS"
          ~doc:"The restart budget's sliding window.")
  in
  let run db watch watch_poll save_snapshot socket max_inflight max_queue
      default_deadline watchdog_grace allow_sleep shards query_log ring
      snapshot no_supervise heartbeat_grace restart_budget restart_window obs =
    handle_errors (fun () ->
        (* [--trace] here means the serving timeline (per-query lanes,
           written by the server at drain), not the batch span tree *)
        with_obs { obs with o_trace = None } @@ fun () ->
        let* () =
          if shards < 1 then
            err_input
              (Fmt.str "invalid shard count %d: --shards expects N >= 1"
                 shards)
          else begin
            (* Each shard is a dedicated solver domain; asking for more
               than the host can park (cores minus the supervisor)
               oversubscribes the runtime, so refuse it up front like
               any other invalid count. *)
            let cap = Cla_par.Pool.auto_cap () in
            if shards > cap then
              err_input
                (Fmt.str
                   "invalid shard count %d: this host supports at most %d \
                    solver shard(s) (cores minus the supervisor domain)"
                   shards cap)
            else Ok ()
          end
        in
        let* source =
          match (db, watch) with
          | Some db, None -> Ok (`Db db)
          | None, Some dir -> Ok (`Watch dir)
          | Some _, Some _ ->
              err_input "pass either FILE.cla or --watch DIR, not both"
          | None, None -> err_input "pass a FILE.cla to serve, or --watch DIR"
        in
        let config =
          {
            Cla_serve.Server.socket_path = socket;
            max_inflight;
            max_queue;
            default_deadline_ms = default_deadline;
            watchdog_grace_ms = watchdog_grace;
            allow_sleep;
            shards;
            query_log;
            trace_path = obs.o_trace;
            ring_capacity = max 1 ring;
            snapshot_path = snapshot;
            supervise = not no_supervise;
            heartbeat_grace_ms = max 1 heartbeat_grace;
            restart_budget = max 1 restart_budget;
            restart_window_ms = max 1 restart_window;
            watch_poll_ms = max 10 watch_poll;
            save_snapshot;
          }
        in
        Fmt.pr "cla serve: %s on %s (inflight<=%d queue<=%d shards=%d%s)@."
          (match source with `Db db -> db | `Watch dir -> "--watch " ^ dir)
          socket max_inflight max_queue shards
          (match snapshot with Some p -> " snapshot=" ^ p | None -> "");
        let stats =
          match source with
          | `Db db -> Cla_serve.Server.run ~config (load_view db)
          | `Watch dir -> Cla_serve.Server.run_watch ~config dir
        in
        Fmt.pr "cla serve: drained.";
        List.iter
          (fun (k, v) -> Fmt.pr " %s=%d" k v)
          (Cla_serve.Server.stats_counters stats);
        Fmt.pr "@.";
        Ok ())
    |> to_exit
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve points-to and alias queries over a linked database until \
          SIGINT/SIGTERM, then drain gracefully.  --stats/--stats-json \
          report the merged per-shard latency histograms at exit; --trace \
          writes the recent-query serving timeline.")
    Term.(
      const run $ db $ watch $ watch_poll $ save_snapshot $ socket_arg
      $ max_inflight $ max_queue $ default_deadline $ watchdog_grace
      $ allow_sleep $ shards $ query_log $ ring $ snapshot $ no_supervise
      $ heartbeat_grace $ restart_budget $ restart_window $ obs_term)

let query_cmd =
  let points_to =
    Arg.(
      value
      & opt (some string) None
      & info [ "points-to" ] ~docv:"VAR" ~doc:"Ask for $(docv)'s points-to set.")
  in
  let alias =
    Arg.(
      value
      & opt (some (pair ~sep:',' string string)) None
      & info [ "alias" ] ~docv:"V1,V2" ~doc:"Ask whether $(docv) may alias.")
  in
  let ping = Arg.(value & flag & info [ "ping" ] ~doc:"Liveness check.") in
  let stats =
    Arg.(value & flag & info [ "server-stats" ] ~doc:"Fetch server counters.")
  in
  let raw =
    Arg.(
      value
      & opt (some string) None
      & info [ "raw" ] ~docv:"JSON" ~doc:"Send $(docv) verbatim as the request line.")
  in
  let deadline_ms =
    Arg.(
      value
      & opt (some int) None
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Per-query deadline.")
  in
  let fresh =
    Arg.(
      value & flag
      & info [ "fresh" ] ~doc:"Bypass the server's cached solution and re-solve.")
  in
  let verbose =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ]
          ~doc:
            "After the reply, print the server-reported timing (queue, \
             solve, total), shard id, and ladder provenance for the \
             answered query.")
  in
  let retry =
    Arg.(
      value & flag
      & info [ "retry" ]
          ~doc:
            "Retry transient failures (connection refused, shed, \
             draining) with exponential backoff and jitter.")
  in
  let attempts =
    Arg.(
      value & opt int 5
      & info [ "attempts" ] ~docv:"N"
          ~doc:"Total tries with $(b,--retry), including the first.")
  in
  let run socket points_to alias ping stats raw deadline_ms fresh verbose retry
      attempts =
    handle_errors (fun () ->
        let base op extra =
          let fields =
            (("id", Cla_obs.Json.Int (Unix.getpid ()))
            :: ("op", Cla_obs.Json.Str op)
            :: extra)
            @ (match deadline_ms with
              | Some ms -> [ ("deadline_ms", Cla_obs.Json.Int ms) ]
              | None -> [])
            @ if fresh then [ ("fresh", Cla_obs.Json.Bool true) ] else []
          in
          Cla_obs.Json.to_string ~indent:false (Cla_obs.Json.Obj fields)
        in
        let* line =
          match (points_to, alias, ping, stats, raw) with
          | Some v, None, false, false, None ->
              Ok (base "points-to" [ ("var", Cla_obs.Json.Str v) ])
          | None, Some (a, b), false, false, None ->
              Ok
                (base "alias"
                   [ ("var", Cla_obs.Json.Str a); ("var2", Cla_obs.Json.Str b) ])
          | None, None, true, false, None -> Ok (base "ping" [])
          | None, None, false, true, None -> Ok (base "stats" [])
          | None, None, false, false, Some l -> Ok l
          | None, None, false, false, None ->
              err_input
                "nothing to ask: pass --points-to, --alias, --ping, \
                 --server-stats or --raw"
          | _ -> err_input "pass exactly one of --points-to/--alias/--ping/--server-stats/--raw"
        in
        let reply, tries =
          if retry then begin
            let policy =
              { Cla_serve.Client.default_policy with attempts = max 1 attempts }
            in
            let o = Cla_serve.Client.with_retry ~policy ~socket line in
            (o.Cla_serve.Client.reply, o.Cla_serve.Client.tries)
          end
          else (Cla_serve.Client.round_trip ~socket line, 1)
        in
        match reply with
        | Error e ->
            Error
              ( Fmt.str "%s (%d attempt(s); is `cla serve` running on %s?)"
                  (Cla_serve.Client.describe e) tries socket,
                Diag.exit_input )
        | Ok l -> (
            print_endline l;
            if verbose then begin
              (* server-reported per-query telemetry; absent on old
                 servers and non-query ops, in which case say so *)
              match Cla_obs.Json.of_string l with
              | exception Cla_obs.Json.Parse_error _ -> ()
              | j -> (
                  let jf o k =
                    Option.bind (Cla_obs.Json.member k o) Cla_obs.Json.to_float
                  in
                  let js o k =
                    match Cla_obs.Json.member k o with
                    | Some (Cla_obs.Json.Str s) -> Some s
                    | _ -> None
                  in
                  match Cla_obs.Json.member "server" j with
                  | Some srv ->
                      let shard =
                        Option.bind (Cla_obs.Json.member "shard" srv)
                          Cla_obs.Json.to_int
                      in
                      let cache_hit =
                        match Cla_obs.Json.member "cache_hit" srv with
                        | Some (Cla_obs.Json.Bool b) -> b
                        | _ -> false
                      in
                      Fmt.epr "server: shard=%s queue=%.3fms solve=%.3fms \
                               total=%.3fms cache=%s rung=%s degraded=%b@."
                        (match shard with
                        | Some s when s >= 0 -> string_of_int s
                        | _ -> "-")
                        (Option.value ~default:0. (jf srv "queue_ms"))
                        (Option.value ~default:0. (jf srv "solve_ms"))
                        (Option.value ~default:0. (jf srv "server_ms"))
                        (if cache_hit then "hit" else "miss")
                        (Option.value ~default:"-" (js j "rung"))
                        (match Cla_obs.Json.member "degraded" j with
                        | Some (Cla_obs.Json.Bool b) -> b
                        | _ -> false)
                  | None ->
                      Fmt.epr
                        "server: no telemetry in reply (old server or \
                         non-query op)@.")
            end;
            match Cla_serve.Protocol.status_of_line l with
            | Cla_serve.Protocol.S_ok -> Ok ()
            | Cla_serve.Protocol.S_error -> Error ("query rejected", Diag.exit_input)
            | Cla_serve.Protocol.S_timeout ->
                Error ("query timed out", Diag.exit_deadline)
            | Cla_serve.Protocol.S_shed | Cla_serve.Protocol.S_bye ->
                Error ("server refused the query", Diag.exit_deadline)
            | Cla_serve.Protocol.S_malformed ->
                Error ("malformed server response", Diag.exit_internal)))
    |> to_exit
  in
  Cmd.v
    (Cmd.info "query"
       ~doc:
         "Ask a running `cla serve` one question.  Exit: 0 answered, 2 \
          rejected, 4 timed out or refused for capacity.")
    Term.(
      const run $ socket_arg $ points_to $ alias $ ping $ stats $ raw
      $ deadline_ms $ fresh $ verbose $ retry $ attempts)

(* Live server introspection: one stats round-trip rendered as the usual
   metrics table (or raw JSON), optionally repeated --watch style.  The
   reply is flattened into a private registry so Export.pp_table does
   the rendering — the same look as --stats everywhere else. *)
let stats_cmd =
  let watch =
    Arg.(
      value & flag
      & info [ "watch" ]
          ~doc:"Refresh the snapshot every --interval-ms until interrupted.")
  in
  let interval_ms =
    Arg.(
      value & opt int 1000
      & info [ "interval-ms" ] ~docv:"MS" ~doc:"Refresh period for --watch.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print the raw stats reply instead of a table.")
  in
  let flatten_reply reg reply =
    let rec go prefix (j : Cla_obs.Json.t) =
      let join k = if prefix = "" then k else prefix ^ "." ^ k in
      match j with
      | Cla_obs.Json.Obj fields ->
          List.iter (fun (k, v) -> go (join k) v) fields
      | Cla_obs.Json.Arr items ->
          List.iteri (fun i v -> go (join (string_of_int i)) v) items
      | Cla_obs.Json.Int n -> Cla_obs.Metrics.set ~reg prefix n
      | Cla_obs.Json.Float f -> Cla_obs.Metrics.setf ~reg prefix f
      | Cla_obs.Json.Str s -> Cla_obs.Metrics.set_str ~reg prefix s
      | Cla_obs.Json.Bool b ->
          Cla_obs.Metrics.set_str ~reg prefix (string_of_bool b)
      | Cla_obs.Json.Null -> ()
    in
    match reply with
    | Cla_obs.Json.Obj fields ->
        List.iter
          (fun (k, v) ->
            match k with
            | "id" | "status" | "code" | "op" -> ()
            | "counters" -> go "" v (* counters carry their own dotted names *)
            | k -> go k v)
          fields
    | j -> go "" j
  in
  let snapshot ~socket ~json () =
    let line =
      Cla_obs.Json.to_string ~indent:false
        (Cla_obs.Json.Obj
           [
             ("id", Cla_obs.Json.Int (Unix.getpid ()));
             ("op", Cla_obs.Json.Str "stats");
           ])
    in
    match Cla_serve.Client.round_trip ~socket line with
    | Error e ->
        Error
          ( Fmt.str "%s (is `cla serve` running on %s?)"
              (Cla_serve.Client.describe e) socket,
            Diag.exit_input )
    | Ok reply -> (
        match Cla_serve.Protocol.status_of_line reply with
        | Cla_serve.Protocol.S_ok ->
            if json then print_endline reply
            else begin
              let reg = Cla_obs.Metrics.create () in
              (match Cla_obs.Json.of_string reply with
              | j -> flatten_reply reg j
              | exception Cla_obs.Json.Parse_error _ -> ());
              Fmt.pr "%a" (fun ppf () -> Cla_obs.Export.pp_table ~reg ppf ()) ()
            end;
            Ok ()
        | _ -> Error ("server refused the stats query", Diag.exit_deadline))
  in
  let run socket watch interval_ms json =
    handle_errors (fun () ->
        if not watch then snapshot ~socket ~json ()
        else
          let rec loop () =
            (* clear + home, like watch(1) *)
            Fmt.pr "\027[2J\027[H";
            let* () = snapshot ~socket ~json () in
            Fmt.pr "%!";
            Unix.sleepf (float_of_int (max 100 interval_ms) /. 1000.);
            loop ()
          in
          loop ())
    |> to_exit
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Fetch a live stats snapshot (uptime, inflight, per-shard \
          counters and latency percentiles) from a running `cla serve` \
          without restarting it.")
    Term.(const run $ socket_arg $ watch $ interval_ms $ json)

(* Drive a serve instance with Servebench's mixed good/poison/slow
   stream from [clients] threads and tally what comes back.  The checked
   invariant: every query gets exactly one classified response — the
   sum of the tallies equals the stream length, with zero malformed
   replies and zero transport errors. *)
let serve_bench_cmd =
  let n =
    Arg.(
      value & opt int 60
      & info [ "n"; "queries" ] ~docv:"N" ~doc:"Stream length.")
  in
  let clients =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client threads.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Stream seed.")
  in
  let deadline_ms =
    Arg.(
      value & opt int 2000
      & info [ "deadline-ms" ] ~docv:"MS" ~doc:"Deadline on good queries.")
  in
  let slow_ms =
    Arg.(
      value & opt int 120
      & info [ "slow-ms" ] ~docv:"MS" ~doc:"How long slow queries sleep.")
  in
  let vars =
    Arg.(
      value & opt_all string []
      & info [ "var" ] ~docv:"NAME"
          ~doc:
            "Variable names for good queries (repeatable; default: a \
             sample of the database's globals).")
  in
  let run socket db n clients seed deadline_ms slow_ms vars =
    handle_errors (fun () ->
        let view = load_view db in
        let vars =
          match vars with
          | _ :: _ -> Array.of_list vars
          | [] -> Cla_workload.Servebench.sample_vars view
        in
        let* () =
          if Array.length vars = 0 then
            err_input "database has no named variables to query"
          else Ok ()
        in
        let queries =
          Cla_workload.Servebench.generate ~seed:(Int64.of_int seed) ~n ~vars
            ~deadline_ms ~slow_ms ()
        in
        (* one tally slot per query, filled by whichever client ran it *)
        let results = Array.make (List.length queries) None in
        let qs = Array.of_list queries in
        let next = Atomic.make 0 in
        let worker _ =
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if i < Array.length qs then begin
              let q = qs.(i) in
              let o =
                Cla_serve.Client.with_retry
                  ~policy:
                    { Cla_serve.Client.default_policy with seed = seed + i }
                  ~socket q.Cla_workload.Servebench.q_line
              in
              results.(i) <- Some (q, o);
              loop ()
            end
          in
          loop ()
        in
        let threads = List.init (max 1 clients) (Thread.create worker) in
        List.iter Thread.join threads;
        let tally = Hashtbl.create 8 in
        let bump k = Hashtbl.replace tally k (1 + Option.value ~default:0 (Hashtbl.find_opt tally k)) in
        let transport_errors = ref 0 and answered = ref 0 in
        Array.iter
          (function
            | None -> ()
            | Some (_, o) -> (
                incr answered;
                match o.Cla_serve.Client.reply with
                | Error _ -> incr transport_errors
                | Ok l ->
                    bump (Cla_serve.Protocol.status_name (Cla_serve.Protocol.status_of_line l))))
          results;
        let shown k = Option.value ~default:0 (Hashtbl.find_opt tally k) in
        Fmt.pr
          "serve-bench: %d queries via %d client(s): ok=%d error=%d \
           timeout=%d shed=%d bye=%d malformed=%d transport-errors=%d@."
          n clients (shown "ok") (shown "error") (shown "timeout")
          (shown "shed") (shown "bye") (shown "malformed") !transport_errors;
        if !answered <> n then
          Error
            ( Fmt.str "%d of %d queries got no verdict" (n - !answered) n,
              Diag.exit_internal )
        else if !transport_errors > 0 || shown "malformed" > 0 then
          Error
            ( "server dropped connections or emitted malformed replies",
              Diag.exit_internal )
        else Ok ())
    |> to_exit
  in
  let db = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.cla") in
  Cmd.v
    (Cmd.info "serve-bench"
       ~doc:
         "Drive a running `cla serve` with a mixed good/poisoned/slow query \
          stream and check every query is answered, shed, or timed out — \
          never dropped.")
    Term.(
      const run $ socket_arg $ db $ n $ clients $ seed $ deadline_ms $ slow_ms
      $ vars)

let main =
  Cmd.group
    (Cmd.info "cla" ~version:"1.0.0"
       ~doc:"Compile-link-analyze points-to and dependence analysis for C.")
    [
      compile_cmd; link_cmd; analyze_cmd; depend_cmd; transform_cmd; dump_cmd;
      faults_cmd; fuzz_cmd; gen_cmd; serve_cmd; query_cmd; stats_cmd;
      serve_bench_cmd;
    ]

let () = exit (Cmd.eval' main)
