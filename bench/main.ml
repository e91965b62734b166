(* Benchmark harness: regenerates every table and figure of the paper.

   Sections (all run by default; select with command-line flags):

     table2    benchmark characteristics (Table 2)
     table3    field-based analysis results + demand-loading stats (Table 3)
     table4    field-based vs field-independent (Table 4)
     ablation  caching / cycle-elimination ablation (Section 5's ">50K x")
     solvers   pre-transitive vs worklist vs bit-vector vs Steensgaard
     transforms offline variable substitution (reference [21])
     figures   the worked examples (Figures 1, 3, 4)
     bechamel  one Bechamel micro-benchmark per table
     parallel  compile / verify / solve sweep over --jobs=N,N,... x
               --units=N,N,... synthesized compile units (writes
               BENCH_parallel.json v2; -jN bytes and bit-vector
               solutions must match -j1, bit-vector solve speedup
               gated at the largest unit count on multi-core hosts,
               informational under --quick;
               --inject-divergence proves the solution gate fires)
     solver    solver micro-bench: sparse/dense/cyclic workloads x every
               solver and Pretrans.config cell, hybrid lval-sets vs the
               sorted-array baseline (writes BENCH_solver.json; any
               divergence from the baseline solution is a hard failure)
     serve     serving sweep: shard count (--shards=N,N,...) x offered
               load (--load=N,N,... concurrent closed-loop clients) over
               an in-process server driven by the Servebench stream;
               client-measured latency percentiles + throughput per cell
               land in BENCH_serve.json (schema cla.bench.serve/v1)
     openworld open-world soundness gate: delete function bodies from a
               complete Genc program in a seeded stream and check the
               havocked analysis keeps every surviving closed-world fact
               (⊇ at every step; --inject-unsound must make it exit 1)
     chaos     self-healing serve gate: freeze a snapshot, boot a sharded
               server from it, and drive the Servebench stream while a
               deterministic fault schedule kills and wedges the solver
               shards mid-flight.  Gates: a corrupt snapshot falls back
               to live solves, a good one answers without a single shard
               solve, zero well-formed queries fail across the faults,
               recovery p99 over the kill windows stays bounded (a
               wall-time check: gated on the full run, informational
               under --quick), and the supervisor logged the restarts.  Writes BENCH_chaos.json
               (cla.bench.chaos/v1); --inject-no-supervise disables the
               supervisor and must make the gate exit 1.
     incremental delta-solve gate: replay a seeded one-TU edit stream
               (--steps=N, --p-remove=P, --seed=S) through the
               Incremental driver and, at every step, redo the honest
               from-scratch pipeline (every unit recompiled, full link,
               cold solve).  Solution.equal at every step is a hard
               gate; additions must resume the solver; the compile
               cache must score 1 miss / n-1 hits per one-TU edit; and
               the incremental-vs-scratch speedup at the stream's tail
               must beat 1.0 (a wall-time check: gated on the full run,
               informational under --quick).  Writes
               BENCH_incremental.json (schema
               cla.bench.incremental/v1); --inject-stale checks each
               step against the previous step's solution and must make
               the gate exit 1.

   Every table prints the paper's reported row (p:) next to the measured
   row (m:).  Absolute times are not comparable (the paper used an 800MHz
   Pentium III and hand-tuned C; we run synthetic workloads matched to
   Table 2 on an OCaml implementation) — the *shape* is the claim: which
   configuration wins, by roughly what factor, and where the blowups are.

   Usage:
     dune exec bench/main.exe                 # every section, full scale
     dune exec bench/main.exe -- --quick      # scale the big profiles down
     dune exec bench/main.exe -- table3       # one section
     dune exec bench/main.exe -- --budget=N table3
                # bound retained assignments in core (LRU block eviction)
     dune exec bench/main.exe -- --scale=0.5 solver
                # scale the solver workloads (default 1.0; --quick: 0.25)
     dune exec bench/main.exe -- --check-against=BENCH_solver.json solver
                # warn when a cell regresses > 25% vs a previous run
                # (add --check-hard to turn the warning into exit 1)
*)

open Cla_core
open Cla_workload
module Obs = Cla_obs.Obs
module Span = Cla_obs.Span
module Json = Cla_obs.Json

let quick = ref false
let budget = ref None
let sections = ref []
let jobs_sweep = ref [ 1; 2; 4 ]
let units_sweep = ref []
let serve_shards = ref [ 1; 2; 4 ]
let serve_load = ref [ 2; 8 ]
let solver_scale = ref None
let check_against = ref None
let check_hard = ref false
let inject_divergence = ref false
let inject_unsound = ref false
let inject_no_supervise = ref false
let inject_stale = ref false
let incr_steps = ref 8
let incr_seed = ref 1 (* seed 1's default stream includes a removal step *)
let incr_p_remove = ref 0.2

(* shared "--flag=value" parsing — every sweep used to hand-roll its own
   String.sub prefix dance; these cover them all *)
let chop s prefix =
  let np = String.length prefix and ns = String.length s in
  if ns > np && String.sub s 0 np = prefix then
    Some (String.sub s np (ns - np))
  else None

let has s prefix = chop s prefix <> None

let int_list_arg ?(min = 1) s prefix tgt =
  let body = Option.value ~default:"" (chop s prefix) in
  match List.map int_of_string_opt (String.split_on_char ',' body) with
  | js
    when js <> []
         && List.for_all (function Some j -> j >= min | None -> false) js ->
      tgt := List.map Option.get js
  | _ -> Fmt.epr "bad %s value %S, ignored@." prefix s

let int_arg ?(min = 1) s prefix tgt =
  match int_of_string_opt (Option.value ~default:"" (chop s prefix)) with
  | Some n when n >= min -> tgt := n
  | _ -> Fmt.epr "bad %s value %S, ignored@." prefix s

let float_arg ~lo s prefix tgt =
  match float_of_string_opt (Option.value ~default:"" (chop s prefix)) with
  | Some f when f >= lo -> tgt := f
  | _ -> Fmt.epr "bad %s value %S, ignored@." prefix s

let () =
  Array.iteri
    (fun i arg ->
      if i > 0 then
        match arg with
        | "--quick" -> quick := true
        | "--check-hard" -> check_hard := true
        | "--inject-divergence" -> inject_divergence := true
        | "--inject-unsound" -> inject_unsound := true
        | "--inject-no-supervise" -> inject_no_supervise := true
        | "--inject-stale" -> inject_stale := true
        | s when has s "--scale=" -> (
            match float_of_string_opt (Option.get (chop s "--scale=")) with
            | Some f when f > 0. -> solver_scale := Some f
            | _ -> Fmt.epr "bad --scale value %S, ignored@." s)
        | s when has s "--check-against=" ->
            check_against := chop s "--check-against="
        | s when has s "--budget=" -> (
            match int_of_string_opt (Option.get (chop s "--budget=")) with
            | Some n when n > 0 -> budget := Some n
            | _ -> Fmt.epr "bad --budget value %S, ignored@." s)
        | s when has s "--units=" -> int_list_arg s "--units=" units_sweep
        | s when has s "--shards=" -> int_list_arg s "--shards=" serve_shards
        | s when has s "--load=" -> int_list_arg s "--load=" serve_load
        | s when has s "--jobs=" -> int_list_arg ~min:0 s "--jobs=" jobs_sweep
        | s when has s "--steps=" -> int_arg s "--steps=" incr_steps
        | s when has s "--seed=" -> int_arg ~min:0 s "--seed=" incr_seed
        | s when has s "--p-remove=" ->
            float_arg ~lo:0. s "--p-remove=" incr_p_remove
        | s -> sections := s :: !sections)
    Sys.argv

let want name = !sections = [] || List.mem name !sections

(* scale the two large profiles down in quick mode *)
let profiles () =
  List.map
    (fun p ->
      if !quick && (p.Profile.name = "gimp" || p.Profile.name = "lucent") then
        Profile.scaled 0.25 p
      else p)
    Profile.all

let heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.heap_words * 8) /. 1e6

(* All timing below goes through Cla_obs spans: run [f] with recording
   on and return its result plus the recorded top-level spans. *)
let with_recording f =
  Obs.enable ();
  Obs.reset ();
  let r = f () in
  Obs.disable ();
  (r, Span.roots ())

(* Wall-clock a thunk that carries no spans of its own. *)
let time f =
  let (), spans =
    with_recording (fun () -> Obs.with_span "run" (fun () -> ignore (f ())))
  in
  match Span.find "run" spans with Some s -> s.Span.wall_s | None -> 0.

(* The analyze span of a recorded Andersen.solve run. *)
let analyze_span spans =
  match Span.find "analyze" spans with
  | Some s -> s
  | None -> failwith "no analyze span recorded"

(* One row per profile run lands here and is written to
   BENCH_pipeline.json at exit — the start of the repo's perf
   trajectory. *)
let bench_rows : Json.t list ref = ref []

(* Per-profile workload cache: generating + compiling gimp takes a while,
   so each (profile, mode) is compiled once and reused across sections. *)
let workload_cache : (string, Objfile.view) Hashtbl.t = Hashtbl.create 16

let compiled ?(mode = Cla_cfront.Normalize.Field_based) (p : Profile.t) =
  let key =
    Fmt.str "%s/%s/%.2f" p.Profile.name
      (match mode with
      | Cla_cfront.Normalize.Field_based -> "fb"
      | Cla_cfront.Normalize.Field_independent -> "fi")
      p.Profile.scale
  in
  match Hashtbl.find_opt workload_cache key with
  | Some v -> v
  | None ->
      let files = Genc.generate p in
      let options = { Compilep.default_options with Compilep.mode } in
      let v = Pipeline.compile_link ~options files in
      Hashtbl.replace workload_cache key v;
      v

let hr () = Fmt.pr "%s@." (String.make 100 '-')

let k n =
  if n >= 10_000 then Fmt.str "%dK" (n / 1000) else string_of_int n

(* ------------------------------------------------------------------ *)
(* Table 2: benchmark characteristics                                  *)
(* ------------------------------------------------------------------ *)

let table2 () =
  hr ();
  Fmt.pr "TABLE 2: benchmarks (m: measured on the synthetic workload, p: paper)@.";
  hr ();
  Fmt.pr "%-10s %2s %10s %10s %9s %9s %8s %8s %8s %8s@." "bench" "" "obj bytes"
    "variables" "x=y" "x=&y" "*x=y" "*x=*y" "x=*y" "LOC";
  List.iter
    (fun (p : Profile.t) ->
      let v = compiled p in
      let c = v.Objfile.rmeta.Objfile.mcounts in
      let obj_bytes = String.length (Objfile.write (fst (Linkp.link_views [ v ]))) in
      Fmt.pr "%-10s %2s %10d %10d %9d %9d %8d %8d %8d %8d@." p.Profile.name
        "m:" obj_bytes (Objfile.n_vars v) c.Cla_ir.Prim.n_copy
        c.Cla_ir.Prim.n_addr c.Cla_ir.Prim.n_store c.Cla_ir.Prim.n_deref2
        c.Cla_ir.Prim.n_load v.Objfile.rmeta.Objfile.msource_lines;
      let pc = p.Profile.counts in
      Fmt.pr "%-10s %2s %10s %10d %9d %9d %8d %8d %8d %8s@." "" "p:" "-"
        p.Profile.variables pc.Cla_ir.Prim.n_copy pc.Cla_ir.Prim.n_addr
        pc.Cla_ir.Prim.n_store pc.Cla_ir.Prim.n_deref2 pc.Cla_ir.Prim.n_load
        p.Profile.loc_display)
    (profiles ())

(* ------------------------------------------------------------------ *)
(* Table 3: analysis results                                           *)
(* ------------------------------------------------------------------ *)

(* The Table-3 row of one profile run, as a BENCH_pipeline.json record:
   profile identity, per-phase span timings, the paper's Table 3 metrics,
   and the pre-transitive graph statistics with per-pass convergence. *)
let bench_row (p : Profile.t) ~compile_link_s ~heap_mb (a : Span.t)
    (r : Andersen.result) : Json.t =
  let sol = r.Andersen.solution in
  let ls = r.Andersen.loader_stats in
  let gs = r.Andersen.graph_stats in
  Json.Obj
    [
      ("profile", Json.Str p.Profile.name);
      ("scale", Json.Float p.Profile.scale);
      ( "phases",
        Json.Obj
          [
            ("compile_link_wall_s", Json.Float compile_link_s);
            ("analyze_wall_s", Json.Float a.Span.wall_s);
            ("analyze_user_s", Json.Float a.Span.user_s);
            ("analyze_gc_minor_words", Json.Float a.Span.gc_minor_words);
            ("analyze_gc_major_words", Json.Float a.Span.gc_major_words);
          ] );
      ( "table3",
        Json.Obj
          [
            ("pointer_vars", Json.Int (Solution.n_pointer_vars sol));
            ("relations", Json.Int (Solution.n_relations sol));
            ("heap_mb", Json.Float heap_mb);
            ("in_core", Json.Int ls.Loader.s_in_core);
            ("loaded", Json.Int ls.Loader.s_loaded);
            ("in_file", Json.Int ls.Loader.s_in_file);
            ("reloads", Json.Int ls.Loader.s_reloads);
          ] );
      ( "graph",
        Json.Obj
          [
            ("nodes", Json.Int gs.Pretrans.nodes);
            ("edges", Json.Int gs.Pretrans.edges);
            ("unified", Json.Int gs.Pretrans.unified);
            ("queries", Json.Int gs.Pretrans.queries);
            ("visits", Json.Int gs.Pretrans.visits);
            ("cache_hits", Json.Int gs.Pretrans.cache_hits);
          ] );
      ("passes", Json.Int r.Andersen.passes);
      ( "pass_log",
        Json.Arr
          (List.map
             (fun (ps : Andersen.pass_stats) ->
               Json.Obj
                 [
                   ("pass", Json.Int ps.Andersen.ps_pass);
                   ("edges_added", Json.Int ps.Andersen.ps_edges_added);
                   ( "lvals_discovered",
                     Json.Int ps.Andersen.ps_lvals_discovered );
                   ("unified", Json.Int ps.Andersen.ps_unified);
                   ("queries", Json.Int ps.Andersen.ps_queries);
                 ])
             r.Andersen.pass_log) );
    ]

let table3 () =
  hr ();
  Fmt.pr "TABLE 3: field-based points-to analysis, demand loading@.";
  hr ();
  Fmt.pr "%-10s %2s %8s %10s %8s %8s %8s %9s %9s %9s@." "bench" "" "ptrs"
    "relations" "real" "user" "heap MB" "in core" "loaded" "in file";
  List.iter
    (fun (p : Profile.t) ->
      (* record compile+link spans too (zero if the workload is cached) *)
      let v, cspans = with_recording (fun () -> compiled p) in
      let compile_link_s =
        Span.total_wall "compile" cspans +. Span.total_wall "link" cspans
      in
      Gc.compact ();
      let h0 = heap_mb () in
      let r, aspans =
        with_recording (fun () -> Andersen.solve ?budget:!budget v)
      in
      let h1 = heap_mb () in
      let a = analyze_span aspans in
      let heap = Float.max 0. (h1 -. h0) in
      let ls = r.Andersen.loader_stats in
      Fmt.pr "%-10s %2s %8d %10s %7.2fs %7.2fs %8.1f %9d %9d %9d@."
        p.Profile.name "m:"
        (Solution.n_pointer_vars r.Andersen.solution)
        (k (Solution.n_relations r.Andersen.solution))
        a.Span.wall_s a.Span.user_s heap ls.Loader.s_in_core
        ls.Loader.s_loaded ls.Loader.s_in_file;
      Option.iter
        (fun b ->
          Fmt.pr "%-10s     budget=%d: evictions=%d reloads=%d@." "" b
            ls.Loader.s_evictions ls.Loader.s_reloads)
        !budget;
      let t3 = p.Profile.table3 in
      Fmt.pr "%-10s %2s %8d %10s %7.2fs %7.2fs %8.1f %9d %9d %9d@." "" "p:"
        t3.Profile.t3_pointer_vars
        (k t3.Profile.t3_relations)
        t3.Profile.t3_real_s t3.Profile.t3_user_s t3.Profile.t3_size_mb
        t3.Profile.t3_in_core t3.Profile.t3_loaded t3.Profile.t3_in_file;
      bench_rows :=
        bench_row p ~compile_link_s ~heap_mb:heap a r :: !bench_rows)
    (profiles ())

(* ------------------------------------------------------------------ *)
(* Table 4: field-based vs field-independent                           *)
(* ------------------------------------------------------------------ *)

let table4 () =
  hr ();
  Fmt.pr "TABLE 4: effect of a field-independent treatment of structs@.";
  hr ();
  Fmt.pr "%-10s %2s | %8s %10s %8s | %8s %10s %8s %9s@." "bench" ""
    "fb ptrs" "fb rel" "fb utime" "fi ptrs" "fi rel" "fi utime" "slowdown";
  List.iter
    (fun (p : Profile.t) ->
      let run mode =
        let v = compiled ~mode p in
        let r, spans = with_recording (fun () -> Andersen.solve v) in
        ( Solution.n_pointer_vars r.Andersen.solution,
          Solution.n_relations r.Andersen.solution,
          (analyze_span spans).Span.user_s )
      in
      let fb_p, fb_r, fb_t = run Cla_cfront.Normalize.Field_based in
      let fi_p, fi_r, fi_t = run Cla_cfront.Normalize.Field_independent in
      Fmt.pr "%-10s %2s | %8d %10s %7.2fs | %8d %10s %7.2fs %8.1fx@."
        p.Profile.name "m:" fb_p (k fb_r) fb_t fi_p (k fi_r) fi_t
        (if fb_t > 1e-4 then fi_t /. fb_t else Float.nan);
      let t3 = p.Profile.table3 and t4 = p.Profile.table4 in
      Fmt.pr "%-10s %2s | %8d %10s %7.2fs | %8d %10s %7.2fs %8.1fx@." "" "p:"
        t3.Profile.t3_pointer_vars (k t3.Profile.t3_relations)
        t3.Profile.t3_user_s t4.Profile.t4_pointer_vars
        (k t4.Profile.t4_relations) t4.Profile.t4_user_s
        (if t3.Profile.t3_user_s > 0. then
           t4.Profile.t4_user_s /. t3.Profile.t3_user_s
         else Float.nan))
    (profiles ())

(* ------------------------------------------------------------------ *)
(* Ablation (Section 5): caching and cycle elimination                 *)
(* ------------------------------------------------------------------ *)

exception Timeout

let run_ablation_config v config budget_s =
  let t0 = Unix.gettimeofday () in
  let deadline = t0 +. budget_s in
  try
    let st = Andersen.init ~config v in
    let cont = ref true in
    while !cont do
      if Unix.gettimeofday () > deadline then raise Timeout;
      cont := Andersen.pass st
    done;
    Pretrans.new_pass st.Andersen.g;
    for var = 0 to Objfile.n_vars v - 1 do
      if var land 63 = 0 && Unix.gettimeofday () > deadline then raise Timeout;
      ignore (Pretrans.get_lvals st.Andersen.g var)
    done;
    Some (Unix.gettimeofday () -. t0)
  with Timeout -> None

let ablation_row label v budget =
  let cell = function
    | Some t -> Fmt.str "%11.3fs" t
    | None -> Fmt.str "%11s" "t/o"
  in
  let full = run_ablation_config v { Pretrans.cache = true; cycle_elim = true } budget in
  let nc = run_ablation_config v { Pretrans.cache = false; cycle_elim = true } budget in
  let ne = run_ablation_config v { Pretrans.cache = true; cycle_elim = false } budget in
  let nn = run_ablation_config v { Pretrans.cache = false; cycle_elim = false } budget in
  Fmt.pr "%-22s %12s %12s %12s %12s@." label (cell full) (cell nc) (cell ne)
    (cell nn);
  match (full, nn) with
  | Some f, Some n when f > 1e-4 ->
      Fmt.pr "%-22s neither/full slowdown: %.0fx@." "" (n /. f)
  | Some f, None when f > 0. ->
      Fmt.pr "%-22s neither/full slowdown: > %.0fx (timed out)@." ""
        (budget /. f)
  | _ -> ()

let ablation () =
  hr ();
  Fmt.pr "ABLATION (Section 5): caching of reachability + cycle elimination@.";
  Fmt.pr "(the paper reports a > 50,000x slowdown on gimp with both off —@.";
  Fmt.pr " 45,000s vs 0.8s.  The ablated configurations blow up superlinearly,@.";
  Fmt.pr " so the sweep runs growing constraint graphs until timeout; the@.";
  Fmt.pr " factor's growth is the claim)@.";
  hr ();
  Fmt.pr "%-22s %12s %12s %12s %12s@." "workload" "full" "no cache"
    "no cyc-elim" "neither";
  (* dense random constraint graphs: the regime where reachability caching
     and cycle collapsing carry the algorithm *)
  List.iter
    (fun n ->
      let params =
        {
          Cla_workload.Genir.n_vars = n;
          n_addr = n;
          n_copy = 2 * n;
          n_store = n / 2;
          n_load = n / 2;
          n_deref2 = n / 10;
          n_funcs = 4;
          n_indirect = 4;
        }
      in
      let v = Cla_workload.Genir.view ~params 7L in
      ablation_row (Fmt.str "dense graph n=%d" n) v 30.)
    (if !quick then [ 250; 500 ] else [ 250; 500; 1000; 2000 ]);
  (* and one realistic pipeline workload for reference *)
  let p = Profile.scaled 0.05 Profile.gimp in
  ablation_row "gimp x 0.05 (C code)" (compiled p) 30.

(* ------------------------------------------------------------------ *)
(* Solver comparison (Section 6's related-work discussion)             *)
(* ------------------------------------------------------------------ *)

let solvers () =
  hr ();
  Fmt.pr "SOLVERS: pre-transitive vs transitively-closed vs bit-vector vs unification@.";
  Fmt.pr "(the paper's positioning: subset-based precision at near-unification speed)@.";
  hr ();
  Fmt.pr "%-10s %14s %14s %14s %14s@." "bench" "pretransitive" "worklist"
    "bitvector" "steensgaard";
  List.iter
    (fun (p : Profile.t) ->
      let v = compiled p in
      let pre = time (fun () -> Andersen.solve v) in
      let wl = time (fun () -> Worklist.solve v) in
      let bv = time (fun () -> Bitsolver.solve v) in
      let st = time (fun () -> Steensgaard.solve v) in
      Fmt.pr "%-10s %13.3fs %13.3fs %13.3fs %13.3fs@." p.Profile.name pre wl
        bv st)
    [ Profile.nethack; Profile.burlap; Profile.vortex; Profile.povray; Profile.gcc ]

(* ------------------------------------------------------------------ *)
(* Transformers: offline variable substitution (reference [21])        *)
(* ------------------------------------------------------------------ *)

let transforms () =
  hr ();
  Fmt.pr "TRANSFORMERS: offline variable substitution before analysis@.";
  Fmt.pr "(the paper's database-to-database optimizer hook, instantiated@.";
  Fmt.pr " with Rountev-Chandra-style substitution — its PLDI'00 table is@.";
  Fmt.pr " variables/assignments removed and the analysis-time effect)@.";
  hr ();
  Fmt.pr "%-10s %10s %10s %10s %10s %10s %10s@." "bench" "vars" "vars'"
    "assigns" "assigns'" "t before" "t after";
  List.iter
    (fun (p : Profile.t) ->
      let v = compiled p in
      let db = fst (Linkp.link_views [ v ]) in
      let n_assigns (d : Objfile.db) =
        List.length d.Objfile.statics
        + Array.fold_left (fun a l -> a + List.length l) 0 d.Objfile.blocks
      in
      let t_before = time (fun () -> Andersen.solve v) in
      let db', _ = Transform.substitute_variables db in
      let v' = Objfile.view_of_string (Objfile.write db') in
      let t_after = time (fun () -> Andersen.solve v') in
      Fmt.pr "%-10s %10d %10d %10d %10d %9.3fs %9.3fs@." p.Profile.name
        (Array.length db.Objfile.vars)
        (Array.length db'.Objfile.vars)
        (n_assigns db) (n_assigns db') t_before t_after)
    [ Profile.nethack; Profile.burlap; Profile.vortex; Profile.gcc ]

(* ------------------------------------------------------------------ *)
(* Figures                                                             *)
(* ------------------------------------------------------------------ *)

let figures () =
  hr ();
  Fmt.pr "FIGURES: the paper's worked examples@.";
  hr ();
  (* Figure 3 *)
  let v3 =
    Pipeline.compile_link
      [ ("fig3.c", "int x, *y;\nint **z;\nvoid main(void) { z = &y; *z = &x; }") ]
  in
  let s3 = Pipeline.points_to v3 in
  let show sol name =
    match Solution.find sol name with
    | Some v ->
        Fmt.str "%s -> {%s}" name
          (String.concat ", "
             (List.map (Solution.var_name sol)
                (Lvalset.to_list (Solution.points_to sol v))))
    | None -> name ^ " -> ?"
  in
  Fmt.pr "Figure 3 (expect y -> {x}):   %s ; %s@." (show s3 "y") (show s3 "z");
  (* Figure 4: object file layout *)
  let db4 =
    Compilep.compile_string ~file:"a.c"
      "int x, y, z, *p, *q;\n\
       void f(void) { x = y; x = z; *p = z; p = q; q = &y; x = *p; }"
  in
  let v4 = Objfile.view_of_string (Objfile.write db4) in
  Fmt.pr "Figure 4 (object file for a.c): %d bytes, %d static record(s), blocks:@."
    (String.length (Objfile.write db4))
    (Array.length v4.Objfile.rstatics);
  for var = 0 to Objfile.n_vars v4 - 1 do
    if Objfile.has_block v4 var then
      Fmt.pr "  block %-4s: %d assignment(s)@."
        v4.Objfile.rvars.(var).Objfile.vname
        (List.length (Objfile.read_block v4 var))
  done;
  (* Figure 1: dependence chains *)
  let v1 =
    Pipeline.compile_link
      [
        ( "eg1.c",
          "short target;\n\
           struct S { short x; short y; };\n\
           short u, *v, w;\n\
           struct S s, t;\n\
           void main(void) {\n\
           v = &w;\n\
           u = target;\n\
           *v = u;\n\
           s.x = w;\n\
           }" );
      ]
  in
  let pta = Andersen.solve v1 in
  let dep = Cla_depend.Depend.prepare v1 pta in
  match Cla_depend.Depend.query_by_name dep "target" with
  | Some r ->
      Fmt.pr "Figure 1 (dependence chains for 'target'):@.%a"
        (Cla_depend.Depend.pp_report dep) r
  | None -> Fmt.pr "Figure 1: target not found?!@."

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one Test.make per table                  *)
(* ------------------------------------------------------------------ *)

let bechamel () =
  hr ();
  Fmt.pr "BECHAMEL: micro-benchmarks (one Test.make per table)@.";
  hr ();
  let open Bechamel in
  let p = Profile.scaled 0.1 Profile.nethack in
  let files = Genc.generate p in
  let view = Pipeline.compile_link files in
  let view_fi =
    Pipeline.compile_link
      ~options:
        {
          Compilep.default_options with
          Compilep.mode = Cla_cfront.Normalize.Field_independent;
        }
      files
  in
  let tests =
    Test.make_grouped ~name:"cla"
      [
        (* Table 2's cost: the compile+link phases *)
        Test.make ~name:"table2.compile_link"
          (Staged.stage (fun () -> ignore (Pipeline.compile_link files)));
        (* Table 3's cost: field-based demand-driven analysis *)
        Test.make ~name:"table3.analyze_field_based"
          (Staged.stage (fun () -> ignore (Andersen.solve view)));
        (* Table 4's cost: field-independent analysis *)
        Test.make ~name:"table4.analyze_field_independent"
          (Staged.stage (fun () -> ignore (Andersen.solve view_fi)));
        (* Table 1 drives the dependence ranking *)
        Test.make ~name:"table1.dependence_query"
          (Staged.stage (fun () ->
               let pta = Andersen.solve view in
               let dep = Cla_depend.Depend.prepare view pta in
               match Objfile.find_targets view "g0_0" with
               | t :: _ -> ignore (Cla_depend.Depend.query dep t)
               | [] -> ()));
      ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) () in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> Fmt.pr "%-45s %12.3f ms/run@." name (est /. 1e6)
      | _ -> Fmt.pr "%-45s (no estimate)@." name)
    results

(* ------------------------------------------------------------------ *)
(* Parallel: compile / verify / solve sweep over units x job counts    *)
(* ------------------------------------------------------------------ *)

(* v2 methodology.  For each --units entry, synthesize a corpus of that
   many compile units (Genc over a scaled nethack profile); for each
   --jobs entry (0 = auto) on that corpus: compile across the shared
   pool, byte-compare every object and the linked database against the
   corpus's fresh -j1 baseline, time the pooled CRC verify, then run
   the row-parallel bit-vector solver (the one solver with a parallel
   path) and require [Solution.equal] against the -j1 solve.  Any
   divergence, bytes or solution, in any cell is a hard failure
   (exit 1); --inject-divergence perturbs one j>=2 solution to prove
   that gate fires.

   The speedup gate is the part v1 got wrong: it measured 3 units at
   whole-pool spawn cost per call and could only report the loss.  Now
   domains are spawned once (Pool.shared) and the gate asserts
   solve_bitvector_speedup_vs_j1 > 1.0 at the LARGEST unit count, where
   there is enough work to amortize chunking — hard on multi-core hosts
   in the full run, informational under --quick (whose few small units
   cannot amortize the pool) and on a 1-core box where j>=2 resolves to
   1 domain. *)
let parallel () =
  hr ();
  let units_list =
    match !units_sweep with
    | [] -> if !quick then [ 2; 8 ] else [ 2; 8; 32 ]
    | u -> u
  in
  let host_cores = Domain.recommended_domain_count () in
  Fmt.pr "PARALLEL: compile/verify/solve sweep (--units=%s x --jobs=%s, %d core(s))@."
    (String.concat "," (List.map string_of_int units_list))
    (String.concat "," (List.map string_of_int !jobs_sweep))
    host_cores;
  hr ();
  let options = Compilep.default_options in
  (* perturb one points-to set so the Solution.equal gate provably
     fires (same shape as the solver bench's --inject-divergence) *)
  let perturb v (sol : Solution.t) =
    let pool = Lvalset.create_pool () in
    let pts = Array.copy sol.Solution.pts in
    if Array.length pts > 0 then
      pts.(0) <-
        (if Lvalset.cardinal pts.(0) = 0 then Lvalset.of_list pool [ 0 ]
         else Lvalset.empty);
    Solution.create v pts
  in
  let largest = List.fold_left max 0 units_list in
  let best_solve_speedup_at_largest = ref 0. in
  let rows = ref [] in
  let divergent = ref false in
  Fmt.pr "%-6s %-5s %-5s %10s %9s %9s %11s %9s  %s@." "units" "req" "jobs"
    "compile_s" "link_s" "verify_s" "bitvec_s" "speedup" "identical";
  List.iter
    (fun n_units ->
      (* scale the profile so Genc emits ~n_units translation units
         (it cuts one file per ~1200 variables) *)
      let scale =
        float_of_int n_units *. 1200. /. float_of_int Profile.nethack.Profile.variables
      in
      let p = Profile.scaled scale Profile.nethack in
      let files = Genc.generate p in
      let compile_one (file, src) =
        Objfile.write (Compilep.compile_string ~options ~file src)
      in
      let compile_all ~jobs =
        if jobs <= 1 then List.map compile_one files
        else
          let pool = Cla_par.Pool.shared ~jobs in
          Cla_par.Pool.map pool compile_one files
      in
      let link objs =
        let views = List.map Objfile.view_of_string objs in
        let db, _stats = Linkp.link_views views in
        Objfile.write db
      in
      (* per-corpus -j1 baseline: bytes and the exact solution *)
      let t0 = Unix.gettimeofday () in
      let base_objs = compile_all ~jobs:1 in
      let base_compile_s = Unix.gettimeofday () -. t0 in
      let base_db = link base_objs in
      let base_view = Objfile.view_of_string base_db in
      let t0 = Unix.gettimeofday () in
      let base_bv = Bitsolver.solve base_view in
      let base_bv_s = Unix.gettimeofday () -. t0 in
      List.iter
        (fun jobs_requested ->
          let jobs = Cla_par.Pool.resolve_jobs jobs_requested in
          let t0 = Unix.gettimeofday () in
          let objs = compile_all ~jobs in
          let compile_s = Unix.gettimeofday () -. t0 in
          let t1 = Unix.gettimeofday () in
          let db = link objs in
          let link_s = Unix.gettimeofday () -. t1 in
          let t2 = Unix.gettimeofday () in
          let view =
            if jobs <= 1 then Objfile.view_of_string db
            else
              let pool = Cla_par.Pool.shared ~jobs in
              Loader.view_par ~pool db
          in
          let verify_s = Unix.gettimeofday () -. t2 in
          let solve_pool =
            if jobs > 1 then Some (Cla_par.Pool.shared ~jobs) else None
          in
          let t3 = Unix.gettimeofday () in
          let bv = Bitsolver.solve ?pool:solve_pool view in
          let bv_s = Unix.gettimeofday () -. t3 in
          let bv =
            if !inject_divergence && jobs >= 2 then perturb view bv else bv
          in
          let bytes_ok =
            List.equal String.equal objs base_objs && String.equal db base_db
          in
          let identical = bytes_ok && Solution.equal base_bv bv in
          if not identical then divergent := true;
          let speedup base s = if s > 0. then base /. s else 0. in
          let compile_speedup = speedup base_compile_s compile_s in
          let bv_speedup = speedup base_bv_s bv_s in
          if n_units = largest && jobs_requested >= 2 then
            best_solve_speedup_at_largest :=
              Float.max !best_solve_speedup_at_largest bv_speedup;
          Fmt.pr "%-6d %-5d %-5d %10.3f %9.3f %9.3f %11.3f %8.2fx  %s@."
            n_units jobs_requested jobs compile_s link_s verify_s bv_s
            bv_speedup
            (if identical then "yes"
             else if not bytes_ok then "NO — BYTES DIVERGED"
             else "NO — SOLUTION DIVERGED");
          rows :=
            Json.Obj
              [
                ("units", Json.Int (List.length files));
                ("jobs_requested", Json.Int jobs_requested);
                ("jobs", Json.Int jobs);
                ("compile_wall_s", Json.Float compile_s);
                ("link_wall_s", Json.Float link_s);
                ("verify_wall_s", Json.Float verify_s);
                ("solve_bitvector_wall_s", Json.Float bv_s);
                ("compile_speedup_vs_j1", Json.Float compile_speedup);
                ("solve_bitvector_speedup_vs_j1", Json.Float bv_speedup);
                ("identical", Json.Bool identical);
              ]
            :: !rows)
        !jobs_sweep)
    units_list;
  Json.write_file "BENCH_parallel.json"
    (Json.Obj
       [
         ("schema", Json.Str "cla.bench.parallel/v2");
         ("quick", Json.Bool !quick);
         ("profile", Json.Str Profile.nethack.Profile.name);
         ("host_cores", Json.Int host_cores);
         ("units_sweep", Json.Arr (List.map (fun u -> Json.Int u) units_list));
         ("rows", Json.Arr (List.rev !rows));
       ]);
  Fmt.pr "wrote BENCH_parallel.json (%d row(s))@." (List.length !rows);
  if !divergent then begin
    Fmt.epr
      "parallel: FAIL — a -jN run diverged from -j1 (bytes or solution)@.";
    exit 1
  end;
  if host_cores > 1 && not !quick then begin
    if !best_solve_speedup_at_largest <= 1.0 then begin
      Fmt.epr
        "parallel: FAIL — bit-vector solve speedup_vs_j1 %.2fx <= 1.0 at \
         the largest unit count (%d units) on a %d-core host@."
        !best_solve_speedup_at_largest largest host_cores;
      exit 1
    end
  end
  else
    Fmt.pr
      "parallel: bit-vector solve speedup %.2fx at %d units is \
       informational only (%s)@."
      !best_solve_speedup_at_largest largest
      (if !quick then "--quick" else "1-core host")

(* ------------------------------------------------------------------ *)
(* Solver micro-bench: hybrid lval-sets + allocation-free reachability *)
(* ------------------------------------------------------------------ *)

(* Sweep the sparse/dense/cyclic Genir shapes over every solver and
   every Pretrans.config cell, at the hybrid lval-set threshold and at
   the sorted-array baseline (threshold = max_int).  The baseline
   solution is the correctness oracle: any exact solver or configuration
   that diverges from it is a hard failure (exit 1); Steensgaard is
   checked as a sound superset.  Wall time, allocation per query, and
   the pool's set-representation histogram land in BENCH_solver.json
   (schema cla.bench.solver/v1).  --check-against=FILE compares each
   cell's wall time against a previous run and warns on > 25%
   regressions (informational; --check-hard exits 1 instead).
   --inject-divergence deliberately perturbs one solution to prove the
   hard-fail path fires — the smoke script asserts exit 1. *)

let solver () =
  hr ();
  let scale =
    match !solver_scale with
    | Some s -> s
    | None -> if !quick then 0.25 else 1.0
  in
  Fmt.pr
    "SOLVER: micro-bench over shaped workloads (scale %.2f, dense threshold %d)@."
    scale
    (Lvalset.default_dense_threshold ());
  hr ();
  let saved_threshold = Lvalset.default_dense_threshold () in
  let rows = ref [] in
  let divergent = ref false in
  let dense_hybrid_t = ref None and dense_array_t = ref None in
  let alloc_timed f =
    let a0 = Gc.allocated_bytes () in
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0, Gc.allocated_bytes () -. a0)
  in
  let superset (big : Solution.t) (small : Solution.t) nvars =
    let ok = ref true in
    for var = 0 to nvars - 1 do
      Lvalset.iter
        (fun z -> if not (Lvalset.mem z (Solution.points_to big var)) then ok := false)
        (Solution.points_to small var)
    done;
    !ok
  in
  let perturb v (sol : Solution.t) =
    let pool = Lvalset.create_pool () in
    let pts = Array.copy sol.Solution.pts in
    if Array.length pts > 0 then
      pts.(0) <-
        (if Lvalset.cardinal pts.(0) = 0 then Lvalset.of_list pool [ 0 ]
         else Lvalset.empty);
    Solution.create v pts
  in
  Fmt.pr "%-8s %-22s %9s %6s %8s %12s %8s %8s  %s@." "workload" "cell"
    "wall_s" "passes" "queries" "alloc/query" "arrays" "bitmaps" "ok";
  List.iter
    (fun shape ->
      let wname = Genir.shape_name shape in
      let v = Genir.shaped ~scale shape 42L in
      let nvars = Objfile.n_vars v in
      (* histogram of the solution's set representations *)
      let sol_histo (sol : Solution.t) =
        let arrays = ref 0 and bitmaps = ref 0 in
        Array.iter
          (fun s ->
            if Lvalset.cardinal s > 0 then
              if Lvalset.is_bitmap s then incr bitmaps else incr arrays)
          sol.Solution.pts;
        (!arrays, !bitmaps)
      in
      let emit ~cell ~wall_s ~alloc ~sol ~ok ?result () =
        let arrays, bitmaps = sol_histo sol in
        let queries, passes, pool_fields, pass_wall =
          match result with
          | Some (r : Andersen.result) ->
              let gs = r.Andersen.graph_stats in
              ( gs.Pretrans.queries,
                r.Andersen.passes,
                [
                  ( "pool",
                    Json.Obj
                      [
                        ("hits", Json.Int gs.Pretrans.pool_hits);
                        ("misses", Json.Int gs.Pretrans.pool_misses);
                        ("small_sets", Json.Int gs.Pretrans.pool_small);
                        ("dense_sets", Json.Int gs.Pretrans.pool_dense);
                      ] );
                ],
                [
                  ( "pass_wall_s",
                    Json.Arr
                      (List.map
                         (fun (ps : Andersen.pass_stats) ->
                           Json.Float ps.Andersen.ps_wall_s)
                         r.Andersen.pass_log) );
                ] )
          | None -> (0, 0, [], [])
        in
        let alloc_per_query =
          if queries > 0 then alloc /. float_of_int queries else Float.nan
        in
        Fmt.pr "%-8s %-22s %8.3fs %6d %8d %12s %8d %8d  %s@." wname cell
          wall_s passes queries
          (if queries > 0 then Fmt.str "%.0fB" alloc_per_query else "-")
          arrays bitmaps
          (if ok then "yes" else "NO — DIVERGED");
        if not ok then divergent := true;
        rows :=
          Json.Obj
            ([
               ("workload", Json.Str wname);
               ("cell", Json.Str cell);
               ("scale", Json.Float scale);
               ("wall_s", Json.Float wall_s);
               ("passes", Json.Int passes);
               ("queries", Json.Int queries);
               ("alloc_bytes", Json.Float alloc);
               ("alloc_bytes_per_query", Json.Float alloc_per_query);
               ("solution_arrays", Json.Int arrays);
               ("solution_bitmaps", Json.Int bitmaps);
               ("equal_to_baseline", Json.Bool ok);
             ]
            @ pool_fields @ pass_wall)
          :: !rows
      in
      (* correctness oracle: pre-transitive, pure sorted-array pool *)
      Lvalset.set_default_dense_threshold max_int;
      let base_r, base_t, base_alloc =
        alloc_timed (fun () -> Andersen.solve v)
      in
      Lvalset.set_default_dense_threshold saved_threshold;
      let base_sol = base_r.Andersen.solution in
      if shape = Genir.Dense then dense_array_t := Some base_t;
      emit ~cell:"pretrans/full/array" ~wall_s:base_t ~alloc:base_alloc
        ~sol:base_sol ~ok:true ~result:base_r ();
      (* pre-transitive ablation cells, hybrid sets *)
      List.iter
        (fun (cname, config) ->
          let r, t, alloc =
            alloc_timed (fun () -> Andersen.solve ~config v)
          in
          let sol = r.Andersen.solution in
          if cname = "pretrans/full" && shape = Genir.Dense then
            dense_hybrid_t := Some t;
          emit ~cell:cname ~wall_s:t ~alloc ~sol
            ~ok:(Solution.equal base_sol sol)
            ~result:r ())
        [
          ("pretrans/full", { Pretrans.cache = true; cycle_elim = true });
          ("pretrans/nocache", { Pretrans.cache = false; cycle_elim = true });
          ("pretrans/nocycle", { Pretrans.cache = true; cycle_elim = false });
          ("pretrans/neither", { Pretrans.cache = false; cycle_elim = false });
        ];
      (* the other exact solvers *)
      let wl, wl_t, wl_alloc = alloc_timed (fun () -> Worklist.solve v) in
      let wl = if !inject_divergence then perturb v wl else wl in
      emit ~cell:"worklist" ~wall_s:wl_t ~alloc:wl_alloc ~sol:wl
        ~ok:(Solution.equal base_sol wl) ();
      let bv, bv_t, bv_alloc = alloc_timed (fun () -> Bitsolver.solve v) in
      emit ~cell:"bitvector" ~wall_s:bv_t ~alloc:bv_alloc ~sol:bv
        ~ok:(Solution.equal base_sol bv) ();
      (* unification: sound over-approximation, checked as a superset *)
      let st, st_t, st_alloc = alloc_timed (fun () -> Steensgaard.solve v) in
      emit ~cell:"steensgaard" ~wall_s:st_t ~alloc:st_alloc ~sol:st
        ~ok:(superset st base_sol nvars) ())
    Genir.all_shapes;
  let speedup =
    match (!dense_array_t, !dense_hybrid_t) with
    | Some a, Some h when h > 1e-6 -> a /. h
    | _ -> Float.nan
  in
  if not (Float.is_nan speedup) then
    Fmt.pr
      "dense profile: hybrid pretransitive %.2fx vs sorted-array baseline \
       (target >= 1.5x, informational)@."
      speedup;
  Json.write_file "BENCH_solver.json"
    (Json.Obj
       [
         ("schema", Json.Str "cla.bench.solver/v1");
         ("quick", Json.Bool !quick);
         ("host_cores", Json.Int (Domain.recommended_domain_count ()));
         ("scale", Json.Float scale);
         ("dense_threshold", Json.Int saved_threshold);
         ("rows", Json.Arr (List.rev !rows));
         ( "summary",
           Json.Obj
             [
               ("dense_speedup_vs_array", Json.Float speedup);
               ("dense_speedup_target", Json.Float 1.5);
             ] );
       ]);
  Fmt.pr "wrote BENCH_solver.json (%d row(s))@." (List.length !rows);
  (* regression gate against a previous run *)
  (match !check_against with
  | None -> ()
  | Some file ->
      let prev =
        try Some (Json.of_string (In_channel.with_open_bin file In_channel.input_all))
        with _ ->
          Fmt.epr "solver: cannot read %s, skipping regression check@." file;
          None
      in
      Option.iter
        (fun prev ->
          let prev_rows =
            match Json.member "rows" prev with
            | Some (Json.Arr rs) -> rs
            | _ -> []
          in
          let key r =
            match (Json.member "workload" r, Json.member "cell" r) with
            | Some (Json.Str w), Some (Json.Str c) -> Some (w ^ "/" ^ c)
            | _ -> None
          in
          let prev_wall = Hashtbl.create 32 in
          List.iter
            (fun r ->
              match (key r, Option.bind (Json.member "wall_s" r) Json.to_float) with
              | Some k, Some t -> Hashtbl.replace prev_wall k t
              | _ -> ())
            prev_rows;
          let regressions = ref [] in
          List.iter
            (fun r ->
              match (key r, Option.bind (Json.member "wall_s" r) Json.to_float) with
              | Some k, Some t -> (
                  match Hashtbl.find_opt prev_wall k with
                  (* ignore sub-5ms cells: pure timer noise *)
                  | Some t0 when t0 > 0.005 && t > t0 *. 1.25 ->
                      regressions := (k, t0, t) :: !regressions
                  | _ -> ())
              | _ -> ())
            (List.rev !rows);
          match !regressions with
          | [] -> Fmt.pr "regression check vs %s: clean@." file
          | rs ->
              List.iter
                (fun (k, t0, t) ->
                  Fmt.epr
                    "solver: REGRESSION %s: %.3fs -> %.3fs (+%.0f%%)@." k t0 t
                    ((t /. t0 -. 1.) *. 100.))
                rs;
              if !check_hard then exit 1)
        prev);
  if !divergent then begin
    Fmt.epr "solver: FAIL — a solver diverged from the sorted-array baseline@.";
    exit 1
  end

(* ------------------------------------------------------------------ *)
(* Open world: the body-deletion soundness gate                        *)
(* ------------------------------------------------------------------ *)

(* Delete function bodies from a complete program in a seeded stream and
   check at every step that open-world havoc keeps the closed-world
   facts (set inclusion over surviving objects, Deletion's contract).
   --inject-unsound analyzes the stripped fragments closed-world
   instead, which must make the gate fail (exit 1) — the smoke script
   asserts both directions. *)
let openworld () =
  let profile = Profile.scaled 0.12 Profile.nethack in
  let seed = 42L in
  Fmt.pr "openworld: deletion gate on %s (scale %.2f, seed %Ld%s)@."
    profile.Profile.name profile.Profile.scale seed
    (if !inject_unsound then ", INJECTING unsoundness" else "");
  match Deletion.run ~inject_unsound:!inject_unsound ~seed profile with
  | Ok o ->
      Fmt.pr
        "openworld: ok — %d step(s), %d/%d bodies deleted by the last, %d \
         inclusion check(s)@."
        o.Deletion.n_steps o.Deletion.n_dropped o.Deletion.n_funcs
        o.Deletion.n_checked
  | Error v ->
      Fmt.epr
        "openworld: FAIL — step %d (%d bodies deleted): %s lost {%s}@."
        v.Deletion.v_step
        (List.length v.Deletion.v_dropped)
        v.Deletion.v_var
        (String.concat ", " v.Deletion.v_missing);
      exit 1

(* ------------------------------------------------------------------ *)
(* Serve: shard-count x offered-load sweep (BENCH_serve.json)          *)
(* ------------------------------------------------------------------ *)

(* Each cell boots an in-process server ([shards] solver shards) and
   drives it with the Servebench stream from [load] closed-loop client
   threads; latency is measured client-side on the monotonic clock into
   a Histo, so the percentiles carry the same bucket error bound as the
   server's own telemetry.  Before shutdown the cell asks the live
   server for a [stats] snapshot and embeds its merged latency block —
   proof live introspection survives load.  The committed
   BENCH_serve.json is a full (non---quick) run: the baseline a change
   to the serve path compares its p50/p99 against. *)
let serve () =
  hr ();
  Fmt.pr "SERVE: shard x load sweep (shards=%s, load=%s)@."
    (String.concat "," (List.map string_of_int !serve_shards))
    (String.concat "," (List.map string_of_int !serve_load));
  hr ();
  let module Sv = Cla_serve.Server in
  let module Cl = Cla_serve.Client in
  let module Pr = Cla_serve.Protocol in
  let module D = Cla_resilience.Deadline in
  let module H = Cla_obs.Histo in
  let p =
    Profile.scaled (if !quick then 0.05 else 0.1) Profile.nethack
  in
  let view = compiled p in
  (* named program variables for the good queries *)
  let vars =
    let out = ref [] and count = ref 0 in
    Array.iter
      (fun (vi : Objfile.varinfo) ->
        if
          !count < 32 && vi.Objfile.vname <> ""
          && (not (String.contains vi.Objfile.vname '$'))
          && vi.Objfile.vkind <> Cla_ir.Var.Temp
        then begin
          incr count;
          out := vi.Objfile.vname :: !out
        end)
      view.Objfile.rvars;
    Array.of_list (List.rev !out)
  in
  if Array.length vars = 0 then failwith "serve: no named variables to query";
  let n = if !quick then 80 else 240 in
  let slow_ms = if !quick then 40 else 80 in
  let rows = ref [] in
  let cell_idx = ref 0 in
  Fmt.pr "%-7s %-5s %6s %8s %10s %9s %9s %9s %9s  %s@." "shards" "load" "n"
    "wall_s" "qps" "p50_ms" "p90_ms" "p99_ms" "max_ms" "ok/shed/tmo/err";
  List.iter
    (fun shards ->
      List.iter
        (fun load ->
          incr cell_idx;
          let socket =
            Filename.concat
              (Filename.get_temp_dir_name ())
              (Fmt.str "cla-bs-%d-%d.sock" (Unix.getpid ()) !cell_idx)
          in
          let config =
            {
              Sv.default_config with
              Sv.socket_path = socket;
              shards;
              allow_sleep = true;
            }
          in
          let ready_m = Mutex.create () and ready_c = Condition.create () in
          let handle = ref None in
          let on_ready t =
            Mutex.lock ready_m;
            handle := Some t;
            Condition.broadcast ready_c;
            Mutex.unlock ready_m
          in
          let srv =
            Thread.create (fun () -> ignore (Sv.run ~config ~on_ready view)) ()
          in
          Mutex.lock ready_m;
          while !handle = None do
            Condition.wait ready_c ready_m
          done;
          Mutex.unlock ready_m;
          let queries =
            Array.of_list
              (Servebench.generate
                 ~mix:{ Servebench.m_good = 8; m_poison = 1; m_slow = 1 }
                 ~seed:(Int64.of_int (1000 + !cell_idx))
                 ~n ~vars ~deadline_ms:2000 ~slow_ms ())
          in
          let histo = H.create () in
          let next = Atomic.make 0 in
          let results = Array.make n None in
          let worker _ =
            let rec loop () =
              let i = Atomic.fetch_and_add next 1 in
              if i < n then begin
                let t0 = D.now_ns () in
                let r = Cl.round_trip ~socket queries.(i).Servebench.q_line in
                H.record histo (D.now_ns () - t0);
                results.(i) <- Some r;
                loop ()
              end
            in
            loop ()
          in
          let t0 = D.now_s () in
          let threads = List.init (max 1 load) (Thread.create worker) in
          List.iter Thread.join threads;
          let wall_s = D.now_s () -. t0 in
          (* live introspection under this cell's residue, pre-shutdown *)
          let stats_reply =
            Cl.round_trip ~socket "{\"id\":0,\"op\":\"stats\"}"
          in
          (match !handle with Some t -> Sv.request_shutdown t | None -> ());
          Thread.join srv;
          let ok = ref 0 and shed = ref 0 and tmo = ref 0 and err = ref 0 in
          let transport = ref 0 in
          Array.iter
            (function
              | None -> ()
              | Some (Error _) -> incr transport
              | Some (Ok l) -> (
                  match Pr.status_of_line l with
                  | Pr.S_ok -> incr ok
                  | Pr.S_shed -> incr shed
                  | Pr.S_timeout -> incr tmo
                  | Pr.S_error -> incr err
                  | Pr.S_bye | Pr.S_malformed -> incr transport))
            results;
          let answered = !ok + !shed + !tmo + !err in
          let qps = if wall_s > 0. then float_of_int answered /. wall_s else 0. in
          let pms q = float_of_int (H.quantile histo q) /. 1e6 in
          let server_latency =
            match stats_reply with
            | Error _ -> Json.Null
            | Ok l -> (
                match Json.of_string l with
                | exception Json.Parse_error _ -> Json.Null
                | j -> Option.value ~default:Json.Null (Json.member "latency" j))
          in
          Fmt.pr "%-7d %-5d %6d %8.3f %10.1f %9.3f %9.3f %9.3f %9.3f  %d/%d/%d/%d@."
            shards load n wall_s qps (pms 0.5) (pms 0.9) (pms 0.99)
            (float_of_int (H.max_value histo) /. 1e6)
            !ok !shed !tmo !err;
          rows :=
            Json.Obj
              [
                ("shards", Json.Int shards);
                ("load", Json.Int load);
                ("n", Json.Int n);
                ("wall_s", Json.Float wall_s);
                ("throughput_qps", Json.Float qps);
                ("ok", Json.Int !ok);
                ("shed", Json.Int !shed);
                ("timeout", Json.Int !tmo);
                ("error", Json.Int !err);
                ("transport_errors", Json.Int !transport);
                ( "latency",
                  Json.Obj
                    [
                      ("count", Json.Int (H.count histo));
                      ("mean_ms", Json.Float (H.mean histo /. 1e6));
                      ("p50_ms", Json.Float (pms 0.5));
                      ("p90_ms", Json.Float (pms 0.9));
                      ("p99_ms", Json.Float (pms 0.99));
                      ("p999_ms", Json.Float (pms 0.999));
                      ( "max_ms",
                        Json.Float (float_of_int (H.max_value histo) /. 1e6) );
                    ] );
                ("server_latency", server_latency);
              ]
            :: !rows)
        !serve_load)
    !serve_shards;
  Json.write_file "BENCH_serve.json"
    (Json.Obj
       [
         ("schema", Json.Str "cla.bench.serve/v1");
         ("quick", Json.Bool !quick);
         ("profile", Json.Str p.Profile.name);
         ("scale", Json.Float p.Profile.scale);
         ("queries_per_cell", Json.Int n);
         ("rows", Json.Arr (List.rev !rows));
       ]);
  Fmt.pr "wrote BENCH_serve.json (%d row(s))@." (List.length !rows)

(* ------------------------------------------------------------------ *)
(* Chaos: self-healing serve gate (BENCH_chaos.json)                   *)
(* ------------------------------------------------------------------ *)

(* The resilience exam for the self-healing stack as one harness:
   snapshot persistence (answering must be O(read), corruption must fall
   back, never mis-answer), shard supervision (killed and wedged worker
   domains must be restarted with their queued jobs intact), and the
   client retry loop (a restart window must be invisible to well-formed
   queries).  Faults are fired at deterministic points of the query
   stream, not wall-clock times, so the schedule cannot miss a fast run.

   Gates (each lands in BENCH_chaos.json; any failure exits 1):
     corrupt_fallback   bit-flipped snapshot rejected, live answer correct
     snapshot_oread     good snapshot: zero shard solves for the stream
     zero_failed_good   every well-formed query answered ok under faults
     recovery_p99       p99 latency of the queries right behind each kill
                        (wall time: full run only; --quick prints it)
     restarts_observed  the supervisor actually restarted shards *)
let chaos () =
  hr ();
  Fmt.pr "CHAOS: snapshot + supervision gate%s@."
    (if !inject_no_supervise then " [INJECTED: supervisor disabled]" else "");
  hr ();
  let module Sv = Cla_serve.Server in
  let module Cl = Cla_serve.Client in
  let module Pr = Cla_serve.Protocol in
  let module D = Cla_resilience.Deadline in
  let module H = Cla_obs.Histo in
  let p = Profile.scaled (if !quick then 0.05 else 0.1) Profile.nethack in
  let view = compiled p in
  let vars =
    let out = ref [] and count = ref 0 in
    Array.iter
      (fun (vi : Objfile.varinfo) ->
        if
          !count < 32 && vi.Objfile.vname <> ""
          && (not (String.contains vi.Objfile.vname '$'))
          && vi.Objfile.vkind <> Cla_ir.Var.Temp
        then begin
          incr count;
          out := vi.Objfile.vname :: !out
        end)
      view.Objfile.rvars;
    Array.of_list (List.rev !out)
  in
  if Array.length vars = 0 then failwith "chaos: no named variables to query";
  let tmp name =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "cla-chaos-%d-%s" (Unix.getpid ()) name)
  in
  (* boot an in-process server, run [body handle socket], drain *)
  let with_server config body =
    let ready_m = Mutex.create () and ready_c = Condition.create () in
    let handle = ref None in
    let on_ready t =
      Mutex.lock ready_m;
      handle := Some t;
      Condition.broadcast ready_c;
      Mutex.unlock ready_m
    in
    let srv = Thread.create (fun () -> ignore (Sv.run ~config ~on_ready view)) () in
    Mutex.lock ready_m;
    while !handle = None do
      Condition.wait ready_c ready_m
    done;
    Mutex.unlock ready_m;
    let h = Option.get !handle in
    let r = body h config.Sv.socket_path in
    Sv.request_shutdown h;
    Thread.join srv;
    r
  in
  let probe_var = vars.(0) in
  let points_to_line ?(fresh = false) id var =
    Cla_obs.Json.to_string ~indent:false
      (Json.Obj
         ([
            ("id", Json.Int id);
            ("op", Json.Str "points-to");
            ("var", Json.Str var);
            ("deadline_ms", Json.Int 4000);
          ]
         @ if fresh then [ ("fresh", Json.Bool true) ] else []))
  in
  let targets_of_line l =
    match Json.of_string l with
    | exception Json.Parse_error _ -> None
    | j -> (
        match Json.member "targets" j with
        | Some (Json.Arr ts) ->
            Some
              (List.sort compare
                 (List.filter_map
                    (function Json.Str s -> Some s | _ -> None)
                    ts))
        | _ -> None)
  in
  let stat_of_line l path =
    match Json.of_string l with
    | exception Json.Parse_error _ -> None
    | j ->
        List.fold_left
          (fun acc k -> Option.bind acc (Json.member k))
          (Some j) path
  in
  (* -- phase 0: freeze the reference solution ----------------------- *)
  let outcome = Pipeline.points_to_ladder view in
  let snap = tmp "good.snap" in
  Snapshot.save snap ~view outcome;
  let live_targets =
    with_server { Sv.default_config with socket_path = tmp "live.sock" }
      (fun _ socket ->
        match Cl.round_trip ~socket (points_to_line 1 probe_var) with
        | Ok l -> targets_of_line l
        | Error e -> failwith ("chaos: live probe failed: " ^ Cl.describe e))
  in
  (* -- gate: corrupt snapshot is rejected, answer still correct ----- *)
  let bad = tmp "bad.snap" in
  let b = Bytes.of_string (Binio.read_file snap) in
  let mid = Bytes.length b / 2 in
  Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xff));
  let oc = open_out_bin bad in
  output_bytes oc b;
  close_out oc;
  let corrupt_fallback_ok =
    with_server
      {
        Sv.default_config with
        socket_path = tmp "corrupt.sock";
        snapshot_path = Some bad;
        shards = 2;
      }
      (fun _ socket ->
        let answer =
          match Cl.round_trip ~socket (points_to_line 2 probe_var) with
          | Ok l -> targets_of_line l
          | Error _ -> None
        in
        let snapshot_active =
          match Cl.round_trip ~socket "{\"id\":3,\"op\":\"stats\"}" with
          | Ok l -> stat_of_line l [ "snapshot" ] = Some (Json.Bool true)
          | Error _ -> true
        in
        answer <> None && answer = live_targets && not snapshot_active)
  in
  Fmt.pr "corrupt snapshot: rejected + correct live answer  %s@."
    (if corrupt_fallback_ok then "ok" else "FAIL");
  (* -- gate: good snapshot answers without a single shard solve ----- *)
  let n_warm = 40 in
  let snapshot_oread_ok, snapshot_targets_ok =
    with_server
      {
        Sv.default_config with
        socket_path = tmp "snap.sock";
        snapshot_path = Some snap;
        shards = 2;
      }
      (fun _ socket ->
        let all_ok = ref true in
        let first_targets = ref None in
        for i = 0 to n_warm - 1 do
          let var = vars.(i mod Array.length vars) in
          match Cl.round_trip ~socket (points_to_line (100 + i) var) with
          | Ok l ->
              if Pr.status_of_line l <> Pr.S_ok then all_ok := false;
              if var = probe_var && !first_targets = None then
                first_targets := targets_of_line l
          | Error _ -> all_ok := false
        done;
        let solves =
          match Cl.round_trip ~socket "{\"id\":4,\"op\":\"stats\"}" with
          | Error _ -> max_int
          | Ok l -> (
              match stat_of_line l [ "shards" ] with
              | Some (Json.Arr shards) ->
                  List.fold_left
                    (fun acc sh ->
                      acc
                      + Option.value ~default:0
                          (Option.bind (Json.member "solves" sh) Json.to_int))
                    0 shards
              | _ -> max_int)
        in
        (!all_ok && solves = 0, !first_targets = live_targets))
  in
  Fmt.pr "good snapshot: %d queries, zero shard solves      %s@." n_warm
    (if snapshot_oread_ok then "ok" else "FAIL");
  Fmt.pr "good snapshot: answers match the live solve       %s@."
    (if snapshot_targets_ok then "ok" else "FAIL");
  (* -- the chaos run: faults under load ----------------------------- *)
  let shards = 3 in
  let n = if !quick then 160 else 400 in
  let load = 4 in
  let kills = 2 and wedges = 1 in
  let wedge_ms = 300 in
  let recovery_bound_ms = 2000. in
  let queries =
    Array.of_list
      (Servebench.generate
         ~mix:{ Servebench.m_good = 8; m_poison = 2; m_slow = 0 }
         ~fresh_frac:0.5 ~seed:4242L ~n ~vars ~deadline_ms:4000 ~slow_ms:40 ())
  in
  (* map the time-based schedule onto query indices: fault f lands when
     the stream reaches index at_ms * n / span_ms — deterministic and
     immune to how fast the queries actually drain *)
  let span_ms = 1000 in
  let schedule =
    Servebench.fault_schedule ~kills ~wedges ~seed:99L ~shards ~span_ms
      ~wedge_ms ()
  in
  let faults_at = Array.make n [] in
  let kill_indices = ref [] in
  List.iter
    (fun ev ->
      let idx = min (n - 1) (ev.Servebench.f_at_ms * n / span_ms) in
      (match ev.Servebench.f_fault with
      | Servebench.Kill_shard _ -> kill_indices := idx :: !kill_indices
      | Servebench.Wedge_shard _ -> ());
      faults_at.(idx) <- ev.Servebench.f_fault :: faults_at.(idx))
    schedule;
  let config =
    {
      Sv.default_config with
      socket_path = tmp "chaos.sock";
      snapshot_path = Some snap;
      shards;
      supervise = not !inject_no_supervise;
      heartbeat_grace_ms = 150;
      restart_budget = 8;
      restart_window_ms = 10_000;
    }
  in
  let lat_ns = Array.make n 0 in
  let failed_good = ref 0 and answered = ref 0 in
  let fired = ref [] in
  let restarts_seen, shards_down =
    with_server config (fun h socket ->
        let next = Atomic.make 0 in
        let fired_m = Mutex.create () in
        let worker _ =
          let rec loop () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              List.iter
                (fun f ->
                  let okay =
                    match f with
                    | Servebench.Kill_shard s -> Sv.chaos_kill_shard h s
                    | Servebench.Wedge_shard (s, ms) ->
                        Sv.chaos_wedge_shard h s ~wedge_ms:ms
                  in
                  if okay then begin
                    Mutex.lock fired_m;
                    fired := Servebench.fault_name f :: !fired;
                    Mutex.unlock fired_m
                  end)
                faults_at.(i);
              let q = queries.(i) in
              let t0 = D.now_ns () in
              let outcome =
                Cl.with_retry
                  ~policy:{ Cl.default_policy with attempts = 4; seed = i }
                  ~socket q.Servebench.q_line
              in
              lat_ns.(i) <- D.now_ns () - t0;
              (match (q.Servebench.q_kind, outcome.Cl.reply) with
              | Servebench.Good, Ok l ->
                  incr answered;
                  if Pr.status_of_line l <> Pr.S_ok then incr failed_good
              | Servebench.Good, Error _ ->
                  incr answered;
                  incr failed_good
              | _, _ -> incr answered);
              loop ()
            end
          in
          loop ()
        in
        let threads = List.init load (Thread.create worker) in
        List.iter Thread.join threads;
        (* supervision counters, read live before drain *)
        match Cl.round_trip ~socket "{\"id\":5,\"op\":\"stats\"}" with
        | Error _ -> (-1, -1)
        | Ok l ->
            let counter k =
              Option.value ~default:(-1)
                (Option.bind (stat_of_line l [ "counters"; k ]) Json.to_int)
            in
            (counter "serve.shard_restarts", counter "serve.shards_down"))
  in
  (* recovery: the tail of queries issued right behind each kill *)
  let recovery_window = max 8 (n / 20) in
  let recovery_lats =
    List.concat_map
      (fun k ->
        Array.to_list (Array.sub lat_ns k (min recovery_window (n - k))))
      !kill_indices
  in
  let recovery_p99_ms =
    match List.sort compare recovery_lats with
    | [] -> 0.
    | sorted ->
        let arr = Array.of_list sorted in
        float_of_int arr.(min (Array.length arr - 1)
                            (Array.length arr * 99 / 100))
        /. 1e6
  in
  let zero_failed_good = !failed_good = 0 && !answered = n in
  let recovery_ok = recovery_p99_ms <= recovery_bound_ms in
  let restarts_ok =
    if !inject_no_supervise then true (* nothing to observe by design *)
    else restarts_seen >= 1
  in
  Fmt.pr "chaos stream: n=%d faults=[%s] failed_good=%d     %s@." n
    (String.concat ", " (List.rev !fired))
    !failed_good
    (if zero_failed_good then "ok" else "FAIL");
  Fmt.pr "recovery p99 over kill windows: %.1fms (<= %.0fms) %s@."
    recovery_p99_ms recovery_bound_ms
    (if !quick then "(informational under --quick)"
     else if recovery_ok then "ok"
     else "FAIL");
  Fmt.pr "supervisor restarts observed: %d down: %d         %s@." restarts_seen
    shards_down
    (if restarts_ok then "ok" else "FAIL");
  let gates =
    [
      ("corrupt_fallback", corrupt_fallback_ok);
      ("snapshot_oread", snapshot_oread_ok);
      ("snapshot_answers_match", snapshot_targets_ok);
      ("zero_failed_good", zero_failed_good);
      ("restarts_observed", restarts_ok);
    ]
    @ if !quick then [] else [ ("recovery_p99", recovery_ok) ]
  in
  Json.write_file "BENCH_chaos.json"
    (Json.Obj
       [
         ("schema", Json.Str "cla.bench.chaos/v1");
         ("quick", Json.Bool !quick);
         ("profile", Json.Str p.Profile.name);
         ("scale", Json.Float p.Profile.scale);
         ("supervised", Json.Bool (not !inject_no_supervise));
         ("shards", Json.Int shards);
         ("n", Json.Int n);
         ("load", Json.Int load);
         ( "faults",
           Json.Arr (List.map (fun s -> Json.Str s) (List.rev !fired)) );
         ("failed_good", Json.Int !failed_good);
         ("recovery_p99_ms", Json.Float recovery_p99_ms);
         ("recovery_bound_ms", Json.Float recovery_bound_ms);
         ("shard_restarts", Json.Int restarts_seen);
         ("shards_down", Json.Int shards_down);
         ( "gates",
           Json.Obj (List.map (fun (k, v) -> (k, Json.Bool v)) gates) );
       ]);
  Fmt.pr "wrote BENCH_chaos.json@.";
  if List.exists (fun (_, v) -> not v) gates then begin
    Fmt.pr "CHAOS GATE FAILED: %s@."
      (String.concat ", "
         (List.filter_map (fun (k, v) -> if v then None else Some k) gates));
    exit 1
  end

(* --- incremental: delta compile-link-solve vs from-scratch ----------- *)

(* The hard gate behind the incremental pipeline: replay a seeded
   Editstream (one-TU append-only edits; with probability --p-remove a
   step instead removes a prior edit) and, at every step, redo the
   from-scratch pipeline over the same sources — every unit recompiled
   through Compilep.compile_string (the compile cache never sees them),
   a full Linkp.link_views merge, and a cold Andersen.solve.  The cold
   solve runs over the incremental driver's own linked view so
   Solution.equal compares like ids (the full merge interleaves ids
   where the delta linker appends; the constraint sets are identical —
   the delta-link tests check that equivalence name-wise).

   --inject-stale swaps the previous step's from-scratch solution into
   the equality check, so the gate must fail and the section must exit
   1 — proof the gate can fire. *)

let incremental () =
  hr ();
  (* vortex, not burlap: unit count is what the compile cache leverages
     (Genc splits ~1200 variables per file), and vortex's 11.4K
     variables give 9 units at full scale where burlap gives 5 *)
  let scale =
    match !solver_scale with
    | Some s -> s
    | None -> if !quick then 0.5 else 1.0
  in
  let steps = !incr_steps and p_remove = !incr_p_remove in
  let p = Profile.scaled scale Profile.vortex in
  Fmt.pr
    "INCREMENTAL: %d-step edit stream over %s (scale %.2f, p_remove %.2f, \
     seed %d)%s@."
    steps p.Profile.name p.Profile.scale p_remove !incr_seed
    (if !inject_stale then " [INJECTING STALE SOLUTION]" else "");
  hr ();
  let es =
    Editstream.create ~seed:(Int64.of_int !incr_seed) ~p_remove p
  in
  (* from-scratch baseline: recompile every unit (no compile cache),
     full link, cold solve — serialization round-trips included, exactly
     like the incremental driver's own unit handling *)
  let scratch sources view =
    let t0 = Unix.gettimeofday () in
    let views =
      List.map
        (fun (file, src) ->
          Objfile.view_of_string
            (Objfile.write (Compilep.compile_string ~file src)))
        sources
    in
    let t1 = Unix.gettimeofday () in
    let _db, _stats = Linkp.link_views views in
    let t2 = Unix.gettimeofday () in
    let sol = (Andersen.solve view).Andersen.solution in
    let t3 = Unix.gettimeofday () in
    (sol, t1 -. t0, t2 -. t1, t3 -. t2)
  in
  let t, s0 = Incremental.create (Editstream.sources es) in
  let n_files = s0.Incremental.sources in
  let base_scratch, _, _, _ =
    scratch (Editstream.sources es) (Incremental.view t)
  in
  let base_ok = Solution.equal (Incremental.solution t) base_scratch in
  Fmt.pr "base: %d unit(s), solution %s scratch@." n_files
    (if base_ok then "==" else "!=");
  let prev_scratch = ref base_scratch in
  let rows = ref [] in
  let all_equal = ref base_ok in
  let cache_ok = ref true in
  let adds_resumed = ref true in
  let totals = ref [] in
  for _ = 1 to steps do
    let step = Editstream.next es in
    let s = Incremental.update t step.Editstream.ssources in
    let inc_total =
      s.Incremental.wall_compile_s +. s.Incremental.wall_link_s
      +. s.Incremental.wall_solve_s
    in
    let sol_scratch, sc_compile, sc_link, sc_solve =
      scratch step.Editstream.ssources (Incremental.view t)
    in
    let sc_total = sc_compile +. sc_link +. sc_solve in
    (* the gate; --inject-stale deliberately compares against the
       previous step's solution, which each edit invalidates *)
    let oracle = if !inject_stale then !prev_scratch else sol_scratch in
    let equal = Solution.equal (Incremental.solution t) oracle in
    prev_scratch := sol_scratch;
    let speedup = if inc_total > 0. then sc_total /. inc_total else 0. in
    totals := (inc_total, sc_total) :: !totals;
    if not equal then all_equal := false;
    if s.Incremental.cache_misses <> 1
       || s.Incremental.cache_hits <> n_files - 1
    then cache_ok := false;
    if (not step.Editstream.sremoval) && not s.Incremental.resumed then
      adds_resumed := false;
    Fmt.pr
      "step %2d %-9s %-28s inc %6.1fms  scratch %6.1fms  %5.1fx  %s@."
      step.Editstream.snum
      (if step.Editstream.sremoval then "(remove)"
       else if s.Incremental.resumed then "(resume)"
       else "(fallback)")
      step.Editstream.sdesc (inc_total *. 1e3) (sc_total *. 1e3) speedup
      (if equal then "ok" else "STALE");
    rows :=
      Json.Obj
        [
          ("step", Json.Int step.Editstream.snum);
          ("desc", Json.Str step.Editstream.sdesc);
          ("removal", Json.Bool step.Editstream.sremoval);
          ("resumed", Json.Bool s.Incremental.resumed);
          ("cache_hits", Json.Int s.Incremental.cache_hits);
          ("cache_misses", Json.Int s.Incremental.cache_misses);
          ("inc_compile_s", Json.Float s.Incremental.wall_compile_s);
          ("inc_link_s", Json.Float s.Incremental.wall_link_s);
          ("inc_solve_s", Json.Float s.Incremental.wall_solve_s);
          ("inc_total_s", Json.Float inc_total);
          ("scratch_compile_s", Json.Float sc_compile);
          ("scratch_link_s", Json.Float sc_link);
          ("scratch_solve_s", Json.Float sc_solve);
          ("scratch_total_s", Json.Float sc_total);
          ("speedup", Json.Float speedup);
          ("equal", Json.Bool equal);
        ]
      :: !rows
  done;
  (* the steady-state claim: aggregate the last three steps (noise at
     millisecond walls makes a single step an unfair judge either way) *)
  let tail = List.filteri (fun i _ -> i < 3) !totals in
  let tail_speedup =
    let inc = List.fold_left (fun a (i, _) -> a +. i) 0. tail
    and sc = List.fold_left (fun a (_, s) -> a +. s) 0. tail in
    if inc > 0. then sc /. inc else 0.
  in
  (* a wall-time check: gated on the full run only, printed under
     --quick, where the answer gates above carry the test *)
  let speedup_ok = tail_speedup > 1.0 in
  Fmt.pr "tail speedup (last %d step(s)): %.1fx (> 1.0) %s@."
    (List.length tail) tail_speedup
    (if !quick then "(informational under --quick)"
     else if speedup_ok then "ok"
     else "FAIL");
  let gates =
    [
      ("solutions_equal", !all_equal);
      ("cache_discipline", !cache_ok);
      ("additions_resumed", !adds_resumed);
    ]
    @ if !quick then [] else [ ("tail_speedup_gt_1", speedup_ok) ]
  in
  Json.write_file "BENCH_incremental.json"
    (Json.Obj
       [
         ("schema", Json.Str "cla.bench.incremental/v1");
         ("quick", Json.Bool !quick);
         ("profile", Json.Str p.Profile.name);
         ("scale", Json.Float p.Profile.scale);
         ("steps", Json.Int steps);
         ("p_remove", Json.Float p_remove);
         ("seed", Json.Int !incr_seed);
         ("injected_stale", Json.Bool !inject_stale);
         ("units", Json.Int n_files);
         ("tail_speedup", Json.Float tail_speedup);
         ("rows", Json.Arr (List.rev !rows));
         ( "gates",
           Json.Obj (List.map (fun (k, v) -> (k, Json.Bool v)) gates) );
       ]);
  Fmt.pr "wrote BENCH_incremental.json@.";
  if List.exists (fun (_, v) -> not v) gates then begin
    Fmt.pr "INCREMENTAL GATE FAILED: %s@."
      (String.concat ", "
         (List.filter_map (fun (k, v) -> if v then None else Some k) gates));
    exit 1
  end

let () =
  let t0 = Unix.gettimeofday () in
  if want "table2" then table2 ();
  if want "table3" then table3 ();
  if want "table4" then table4 ();
  if want "ablation" then ablation ();
  if want "solvers" then solvers ();
  if want "transforms" then transforms ();
  if want "figures" then figures ();
  if want "bechamel" then bechamel ();
  if want "parallel" then parallel ();
  if want "solver" then solver ();
  if want "openworld" then openworld ();
  if want "serve" then serve ();
  if want "chaos" then chaos ();
  if want "incremental" then incremental ();
  if !bench_rows <> [] then begin
    Json.write_file "BENCH_pipeline.json"
      (Json.Obj
         [
           ("schema", Json.Str "cla.bench.pipeline/v1");
           ("quick", Json.Bool !quick);
           ("rows", Json.Arr (List.rev !bench_rows));
         ]);
    Fmt.pr "wrote BENCH_pipeline.json (%d row(s))@."
      (List.length !bench_rows)
  end;
  hr ();
  Fmt.pr "total bench time: %.1fs@." (Unix.gettimeofday () -. t0)
