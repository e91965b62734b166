(* Benchmark harness: regenerates the paper's tables and experiments.

   Sections (all run by default; name one or more to run only those):

     pipeline  field-based analysis results + demand-loading stats (Table 3)
     paper     per profile: Table 2's characteristics, Table 4's
               field-based vs field-independent solves, and offline
               variable substitution (a Section 4 transformer)
     parallel  -jN unit compilation + link vs -j1
               (--jobs=N,N,... x --units=N,N,...)
     solver    every solver and Pretrans.config cell vs the sorted-array
               baseline on the sparse/dense/cyclic shapes and five C
               profiles: Section 5's ablation and Section 6's comparison
     serve     shard count (--shards=N,...) x offered load (--load=N,...)
     openworld body-deletion soundness gate for open-world havoc
     chaos     self-healing serve gate: snapshots, shard kills and wedges
     incremental delta compile-link-solve vs from-scratch over a seeded
               edit stream (--steps=N, --p-remove=P, --seed=S)

   The paper's Figures 1, 3 and 4 are pinned by test_depend,
   test_pipeline/test_solvers and test_objfile.

   pipeline and paper print the paper's reported row under each measured
   one.  Absolute times are not comparable (the paper used an 800MHz
   Pentium III and hand-tuned C; we run synthetic workloads matched to
   Table 2 on an OCaml implementation) — the *shape* is the claim: which
   configuration wins, by roughly what factor, and where the blowups are.

   Every section but openworld writes through one harness (below): a row
   adds its table line and becomes its JSON row, and [finish] prints the
   table, writes BENCH_<section>.json and enforces the gates.  Answer
   gates hold every run; timed gates hold full runs on multi-core hosts
   and are printed otherwise.  A failed gate exits 1.
   --inject feeds each gated section its one fault, which must fail it.

   Usage:
     dune exec bench/main.exe                 # every section, full scale
     dune exec bench/main.exe -- --quick      # scale the big profiles down
     dune exec bench/main.exe -- pipeline     # one section
     dune exec bench/main.exe -- --budget=N pipeline
                # bound retained assignments in core (LRU block eviction)
     dune exec bench/main.exe -- --scale=0.5 solver
                # scale the profiles and shapes of pipeline, paper, solver
                # and incremental (solver default 1.0; --quick: 0.25)
     dune exec bench/main.exe -- --check-against=BENCH_serve.json serve
                # report each *wall_s or *total_s over 25% slower than
                # in a previous file of the same section (--check-hard:
                # a timed gate)
     dune exec bench/main.exe -- --quick --inject chaos   # must fail

   An unknown section or flag, or a bad flag value, exits 2.
*)

open Cla_core
open Cla_workload
module Span = Cla_obs.Span
module Json = Cla_obs.Json

let quick = ref false
let budget = ref None
let jobs_sweep = ref [ 1; 2; 4 ]
let units_sweep = ref []
let serve_shards = ref [ 1; 2; 4 ]
let serve_load = ref [ 2; 8 ]
let workload_scale = ref None
let baseline = ref None (* --check-against: the file and its parse *)
let check_hard = ref false
let inject = ref false
let incr_steps = ref 8
let incr_seed = ref 1 (* seed 1's default stream includes a removal step *)
let incr_p_remove = ref 0.2
let host_cores = Domain.recommended_domain_count ()

(* the eight profiles, scaled by --scale, or with the two large ones
   scaled down in quick mode *)
let profiles () =
  List.map
    (fun p ->
      match !workload_scale with
      | Some f -> Profile.scaled f p
      | None when !quick && (p.Profile.name = "gimp" || p.Profile.name = "lucent") ->
          Profile.scaled 0.25 p
      | None -> p)
    Profile.all

let heap_mb () =
  let s = Gc.quick_stat () in
  float_of_int (s.Gc.heap_words * 8) /. 1e6

(* Run [f] with Cla_obs recording on and return its result plus the
   recorded top-level spans (the paper tables' phase timings). *)
let with_recording f =
  Span.set_enabled true;
  Span.reset ();
  Cla_obs.Metrics.reset ();
  let r = f () in
  Span.set_enabled false;
  (r, Span.roots ())

(* [f ()] and its wall time *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

(* The analyze span of a recorded Andersen.solve run. *)
let analyze_span spans =
  match Span.find "analyze" spans with
  | Some s -> s
  | None -> failwith "no analyze span recorded"

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

(* a section's title, between rules *)
let banner fmt =
  Fmt.kstr
    (fun title ->
      hr ();
      Fmt.pr "%s@." title;
      hr ())
    fmt

(* ------------------------------------------------------------------ *)
(* The harness: one row, gate, writer and regression check             *)
(* ------------------------------------------------------------------ *)

(* A result row is one ordered list of named, typed fields.  It gives
   a table line — an [O] group flattens into its columns, a [J] field
   is JSON-only — and becomes the JSON row. *)
type value =
  | I of int
  | F of float
  | S of string
  | B of bool
  | O of (string * value) list
  | J of Json.t

let rec json_of = function
  | I n -> Json.Int n
  | F f -> Json.Float f
  | S s -> Json.Str s
  | B b -> Json.Bool b
  | O fields -> Json.Obj (List.map (fun (k, v) -> (k, json_of v)) fields)
  | J j -> j

(* a JSON-only group of int fields *)
let ints kvs = J (Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) kvs))

let rec columns fields =
  List.concat_map
    (fun (k, v) ->
      match v with
      | I n -> [ (k, string_of_int n) ]
      | F f -> [ (k, Fmt.str "%.3f" f) ]
      | S s -> [ (k, s) ]
      | B b -> [ (k, if b then "yes" else "NO") ]
      | O fields -> columns fields
      | J _ -> [])
    fields

(* One section's results; [key] names the fields that identify a row
   across runs, for the regression check. *)
type report = {
  section : string;
  key : string list;
  mutable rows : (string * value) list list;
  mutable lines : string list list;  (* table cells, header first; reversed *)
}

let report ?(key = []) section = { section; key; rows = []; lines = [] }

(* Add one table line; the section's first also adds the header. *)
let show r fields =
  let cols = columns fields in
  if r.lines = [] then r.lines <- [ List.map fst cols ];
  r.lines <- List.map snd cols :: r.lines

(* Print the section's table, each column right-aligned to its widest
   cell over every line. *)
let print_table r =
  let lines = List.rev r.lines in
  let widths = Array.make (List.fold_left (fun n l -> max n (List.length l)) 0 lines) 0 in
  List.iter (List.iteri (fun i c -> widths.(i) <- max widths.(i) (String.length c))) lines;
  List.iter
    (fun cells ->
      Fmt.pr "%s@." (String.concat " " (List.mapi (fun i -> Fmt.str "%*s" widths.(i)) cells)))
    lines

let row r fields =
  show r fields;
  r.rows <- fields :: r.rows

(* An answer gate holds every run; a timed gate (a wall-time claim)
   holds a full run on a multi-core host and is only printed elsewhere. *)
type kind = Answer | Timed

type gate = { name : string; ok : bool; kind : kind; detail : string }

let gate ?(kind = Answer) name ok fmt =
  Fmt.kstr (fun detail -> { name; ok; kind; detail }) fmt

let enforced g = g.kind = Answer || ((not !quick) && host_cores > 1)

(* Print every gate's verdict; if an enforced gate failed, name the
   failures on stdout and their detail lines on stderr, and fail the
   run with status 1. *)
let enforce section gates =
  let verdict g =
    Fmt.str "%s: %s %s — %s" section
      (if enforced g then if g.ok then "ok" else "FAIL"
       else if !quick then "info (--quick)"
       else "info (1 core)")
      g.name g.detail
  in
  List.iter (fun g -> Fmt.pr "%s@." (verdict g)) gates;
  match List.filter (fun g -> enforced g && not g.ok) gates with
  | [] -> ()
  | failed ->
      Fmt.pr "%s GATE FAILED: %s@."
        (String.uppercase_ascii section)
        (String.concat ", " (List.map (fun g -> g.name) failed));
      List.iter (fun g -> Fmt.epr "%s@." (verdict g)) failed;
      exit 1

(* The timings of a JSON row: every field named *wall_s or *total_s,
   nested groups included, keyed by the row's [key] fields and the
   field's path. *)
let timings r row =
  let id =
    List.map
      (fun k ->
        match Json.member k row with
        | Some (Json.Str s) -> s
        | Some j -> Json.to_string ~indent:false j
        | None -> "-")
      r.key
  in
  let rec walk path = function
    | Json.Obj kvs ->
        List.concat_map (fun (k, v) -> walk (if path = "" then k else path ^ "." ^ k) v) kvs
    | v -> (
        match Json.to_float v with
        | Some t
          when String.ends_with ~suffix:"wall_s" path
               || String.ends_with ~suffix:"total_s" path ->
            [ (String.concat "/" id ^ " " ^ path, t) ]
        | _ -> [])
  in
  walk "" row

(* --check-against FILE, when FILE holds this section's schema: a timing
   over 25% slower than the same row's in FILE is a regression, unless
   it took under 5 ms there (timer noise).  A check that matched no
   timing says so rather than "clean".  Under --check-hard the verdict
   is a timed gate, which an empty check fails. *)
let regression_gates r schema rows =
  match !baseline with
  | Some (file, None) ->
      Fmt.epr "%s: cannot read %s, skipping regression check@." r.section file;
      []
  | Some (file, Some prev) when Json.member "schema" prev = Some (Json.Str schema) ->
      let prev_rows =
        match Json.member "rows" prev with Some (Json.Arr rs) -> rs | _ -> []
      in
      let before =
        Hashtbl.of_seq (List.to_seq (List.concat_map (timings r) prev_rows))
      in
      let compared =
        List.filter_map
          (fun (k, t) -> Option.map (fun t0 -> (k, t0, t)) (Hashtbl.find_opt before k))
          (List.concat_map (timings r) rows)
      in
      let slower = List.filter (fun (_, t0, t) -> t0 > 0.005 && t > t0 *. 1.25) compared in
      if compared = [] then Fmt.pr "regression check vs %s: no comparable timings@." file
      else if slower = [] then
        Fmt.pr "regression check vs %s: clean (%d timing(s))@." file (List.length compared);
      List.iter
        (fun (k, t0, t) ->
          Fmt.epr "%s: REGRESSION %s: %.3fs -> %.3fs (+%.0f%%)@." r.section k
            t0 t
            ((t /. t0 -. 1.) *. 100.))
        slower;
      if !check_hard then
        [
          gate ~kind:Timed "no_regression" (compared <> [] && slower = [])
            "%d of %d timing(s) over 25%% slower than %s" (List.length slower)
            (List.length compared) file;
        ]
      else []
  | Some (file, Some prev) ->
      let other =
        match Json.member "schema" prev with
        | Some (Json.Str s) -> s
        | _ -> "no schema"
      in
      Fmt.epr "%s: %s holds %s, not %s; no regression check@." r.section file other
        schema;
      []
  | None -> []

(* Run the regression check, write BENCH_<section>.json — schema, run
   header, [meta], the rows and the enforced gates — and enforce every
   gate. *)
let finish ?(v = 1) ?(meta = []) ?(gates = []) r =
  print_table r;
  let schema = Fmt.str "cla.bench.%s/v%d" r.section v in
  let rows = List.rev_map (fun fields -> json_of (O fields)) r.rows in
  let gates = gates @ regression_gates r schema rows in
  let file = Fmt.str "BENCH_%s.json" r.section in
  let held = List.filter enforced gates in
  Json.write_file file
    (json_of
       (O
          ((("schema", S schema) :: ("quick", B !quick) :: ("host_cores", I host_cores) :: meta)
          @ [
              ("rows", J (Json.Arr rows));
              ("gates", O (List.map (fun g -> (g.name, B g.ok)) held));
            ])));
  Fmt.pr "wrote %s (%d row(s))@." file (List.length rows);
  enforce r.section gates

(* The solution fault --inject feeds the solver and paper gates: one
   points-to set flipped between empty and {0}. *)
let perturb v (sol : Solution.t) =
  let pts = Array.copy sol.Solution.pts in
  if Array.length pts > 0 then
    pts.(0) <-
      (if Lvalset.cardinal pts.(0) = 0 then
         Lvalset.of_list (Lvalset.create_pool ()) [ 0 ]
       else Lvalset.empty);
  Solution.create v pts

(* Boot an in-process server over [view], run [body handle socket], and
   drain the server. *)
let with_server view (config : Cla_serve.Server.config) body =
  let module Sv = Cla_serve.Server in
  let ready = Event.new_channel () in
  let on_ready t = Event.sync (Event.send ready t) in
  let srv = Thread.create (fun () -> ignore (Sv.run ~config ~on_ready view)) () in
  let h = Event.sync (Event.receive ready) in
  Fun.protect
    ~finally:(fun () ->
      Sv.request_shutdown h;
      Thread.join srv)
    (fun () -> body h config.Sv.socket_path)

(* ------------------------------------------------------------------ *)
(* Table 3: analysis results                                           *)
(* ------------------------------------------------------------------ *)

(* One BENCH_pipeline.json row per profile: per-phase span timings, the
   paper's Table 3 metrics, and the pre-transitive graph statistics with
   per-pass convergence.  The paper's row follows each measured one. *)
let pipeline () =
  banner "TABLE 3: field-based points-to analysis, demand loading";
  let r = report ~key:[ "profile"; "scale" ] "pipeline" in
  List.iter
    (fun (p : Profile.t) ->
      (* record compile+link spans too (zero if the workload is cached) *)
      let v, cspans = with_recording (fun () -> compiled p) in
      let compile_link_s =
        Span.total_wall "compile" cspans +. Span.total_wall "link" cspans
      in
      Gc.compact ();
      let h0 = heap_mb () in
      let res, aspans =
        with_recording (fun () -> Andersen.solve ?budget:!budget v)
      in
      let heap = Float.max 0. (heap_mb () -. h0) in
      let a = analyze_span aspans in
      let sol = res.Andersen.solution in
      let ls = res.Andersen.loader_stats and gs = res.Andersen.graph_stats in
      row r
        [
          ("profile", S p.Profile.name);
          ("scale", F p.Profile.scale);
          ( "phases",
            O
              [
                ("compile_link_wall_s", J (Json.Float compile_link_s));
                ("analyze_wall_s", F a.Span.wall_s);
                ("analyze_user_s", F a.Span.user_s);
                ("analyze_gc_minor_words", J (Json.Float a.Span.gc_minor_words));
                ("analyze_gc_major_words", J (Json.Float a.Span.gc_major_words));
              ] );
          ( "table3",
            O
              [
                ("pointer_vars", I (Solution.n_pointer_vars sol));
                ("relations", I (Solution.n_relations sol));
                ("heap_mb", F heap);
                ("in_core", I ls.s_in_core);
                ("loaded", I ls.s_loaded);
                ("in_file", I ls.s_in_file);
                ("reloads", I ls.s_reloads);
                ("evictions", I ls.s_evictions);
              ] );
          ( "graph",
            ints
              [ ("nodes", gs.nodes); ("edges", gs.edges); ("unified", gs.unified);
                ("queries", gs.queries); ("visits", gs.visits); ("cache_hits", gs.cache_hits) ] );
          ("passes", J (Json.Int res.passes));
          ( "pass_log",
            J
              (Json.Arr
                 (List.map
                    (fun (ps : Andersen.pass_stats) ->
                      json_of
                        (ints
                           [ ("pass", ps.ps_pass); ("edges_added", ps.ps_edges_added);
                             ("lvals_discovered", ps.ps_lvals_discovered);
                             ("unified", ps.ps_unified); ("queries", ps.ps_queries) ]))
                    res.pass_log)) );
        ];
      let t3 = p.Profile.table3 in
      show r
        (List.map
           (fun v -> ("", v))
           [ S "(paper)"; S ""; F t3.t3_real_s; F t3.t3_user_s; I t3.t3_pointer_vars;
             I t3.t3_relations; F t3.t3_size_mb; I t3.t3_in_core; I t3.t3_loaded;
             I t3.t3_in_file; S "-"; S "-" ]))
    (profiles ());
  finish r

(* ------------------------------------------------------------------ *)
(* Paper: Table 2, Table 4 and variable substitution per profile       *)
(* ------------------------------------------------------------------ *)

(* One BENCH_paper.json row per profile, with three groups: [table2],
   the compiled workload's characteristics; [table4], its field-based
   and field-independent solves; [subst], offline variable substitution
   (the paper's reference [21], one of Section 4's database-to-database
   transformers) and the solve before and after it.  The paper's row
   follows each measured one (its Table 2 counts scaled like the
   workload; its Table 4 times are user seconds).

   Two answer gates.  Genc generates the profile's x=&y, *x=y, *x=*y and
   x=*y counts exactly; variables and x=y drift by a few percent and are
   only reported.  Substitution keeps every variable's points-to set
   through its mapping (the property test_transform checks on random
   programs).  --inject perturbs the substituted solution. *)
let paper () =
  banner "PAPER: Table 2, Table 4 and variable substitution per profile";
  let r = report ~key:[ "profile"; "scale" ] "paper" in
  let profiles = profiles () in
  let inexact = ref [] and unpreserved = ref [] in
  let solve v = timed (fun () -> (Andersen.solve v).Andersen.solution) in
  let slowdown fb fi = if fb > 1e-4 then fi /. fb else Float.nan in
  let n_assigns (d : Objfile.db) =
    List.length d.Objfile.statics
    + Array.fold_left (fun a l -> a + List.length l) 0 d.Objfile.blocks
  in
  List.iter
    (fun (p : Profile.t) ->
      let v = compiled p in
      let c = v.Objfile.rmeta.Objfile.mcounts and pc = p.Profile.counts in
      let kinds (c : Cla_ir.Prim.counts) = [ c.n_addr; c.n_store; c.n_deref2; c.n_load ] in
      if kinds c <> kinds pc then inexact := p.Profile.name :: !inexact;
      let fb, fb_s = solve v in
      let fi, fi_s = solve (compiled ~mode:Cla_cfront.Normalize.Field_independent p) in
      (* both substitution solves run on encoded databases, whose ids
         the mapping relates *)
      let db = fst (Linkp.link_views [ v ]) in
      let db', st = Transform.substitute_variables db in
      let before, before_s = solve (Objfile.encode db) in
      let v' = Objfile.encode db' in
      let after, after_s = solve v' in
      let after = if !inject then perturb v' after else after in
      let m = st.Transform.mapping in
      let preserves =
        Seq.for_all
          (fun var ->
            let mapped =
              List.map (fun z -> m.(z)) (Lvalset.to_list (Solution.points_to before var))
            in
            List.sort compare mapped = Lvalset.to_list (Solution.points_to after m.(var)))
          (Seq.init (Array.length m) Fun.id)
      in
      if not preserves then unpreserved := p.Profile.name :: !unpreserved;
      row r
        [
          ("profile", S p.Profile.name);
          ("scale", F p.Profile.scale);
          ( "table2",
            O
              [
                ("variables", I (Objfile.n_vars v)); ("x=y", I c.n_copy);
                ("x=&y", I c.n_addr); ("*x=y", I c.n_store); ("*x=*y", I c.n_deref2);
                ("x=*y", I c.n_load); ("obj_bytes", I (String.length v.Objfile.data));
                ("loc", I v.Objfile.rmeta.Objfile.msource_lines);
              ] );
          ( "table4",
            O
              [
                ("fb_ptrs", I (Solution.n_pointer_vars fb));
                ("fb_rel", I (Solution.n_relations fb)); ("fb_wall_s", F fb_s);
                ("fi_ptrs", I (Solution.n_pointer_vars fi));
                ("fi_rel", I (Solution.n_relations fi)); ("fi_wall_s", F fi_s);
                ("slowdown", F (slowdown fb_s fi_s));
              ] );
          ( "subst",
            O
              [
                ("merged_vars", I st.Transform.merged_vars); ("assigns", I (n_assigns db));
                ("dropped", I st.Transform.dropped_assignments);
                ("before_wall_s", F before_s); ("after_wall_s", F after_s);
                ("preserves", B preserves);
              ] );
        ];
      let t3 = p.Profile.table3 and t4 = p.Profile.table4 in
      show r
        (List.map
           (fun v -> ("", v))
           ([ S "(paper)"; S ""; I p.Profile.variables; I pc.n_copy; I pc.n_addr;
              I pc.n_store; I pc.n_deref2; I pc.n_load; S "-"; S p.Profile.loc_display;
              I t3.t3_pointer_vars; I t3.t3_relations; F t3.t3_user_s;
              I t4.t4_pointer_vars; I t4.t4_relations; F t4.t4_user_s;
              F (slowdown t3.t3_user_s t4.t4_user_s) ]
           @ List.init 6 (fun _ -> S "-"))))
    profiles;
  let n = List.length profiles in
  let names l = String.concat ", " (List.rev l) in
  finish r
    ~gates:
      [
        gate "table2_exact_kinds" (!inexact = [])
          "%d of %d profile(s) off their x=&y, *x=y, *x=*y, x=*y counts [%s]"
          (List.length !inexact) n (names !inexact);
        gate "subst_preserves" (!unpreserved = [])
          "%d of %d profile(s) changed a points-to set through substitution [%s]"
          (List.length !unpreserved) n (names !unpreserved);
      ]

(* ------------------------------------------------------------------ *)
(* Parallel: compile + link sweep over units x job counts              *)
(* ------------------------------------------------------------------ *)

(* v3 methodology.  For each --units entry, synthesize a corpus of that
   many compile units (Genc over a scaled nethack profile); for each
   --jobs entry (0 = auto) on that corpus: compile across the pool, link
   the objects, and byte-compare every object and the linked database
   against the corpus's fresh -j1 baseline.  Any divergence in any cell
   fails the [identical] gate; --inject flips one byte of one j>=2
   object to prove it fires.  Unit compilation is the one parallel
   phase, so compile_speedup_vs_j1 is the number to read; the pool's
   worker domains are spawned once per process and parked between
   batches. *)
let parallel () =
  let units_list =
    if !units_sweep <> [] then !units_sweep
    else if !quick then [ 2; 8 ]
    else [ 2; 8; 32 ]
  in
  banner "PARALLEL: compile/link sweep (--units=%s x --jobs=%s, %d core(s))"
    (String.concat "," (List.map string_of_int units_list))
    (String.concat "," (List.map string_of_int !jobs_sweep))
    host_cores;
  let options = Compilep.default_options in
  let diverged = ref 0 in
  let r = report ~key:[ "units"; "jobs_requested" ] "parallel" in
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
      let compile_all jobs = Cla_par.Pool.map ~jobs compile_one files in
      let link objs =
        Objfile.write (fst (Linkp.link_views (List.map Objfile.view_of_string objs)))
      in
      let base_objs, base_compile_s = timed (fun () -> compile_all 1) in
      let base_db = link base_objs in
      List.iter
        (fun jobs_requested ->
          let jobs = Cla_par.Pool.resolve_jobs jobs_requested in
          let objs, compile_s = timed (fun () -> compile_all jobs) in
          (* the width the compile batch actually ran at, as the pool
             published it *)
          let jobs =
            Option.value ~default:jobs (Cla_obs.Metrics.get_int "par.jobs")
          in
          let db, link_s = timed (fun () -> link objs) in
          (* the fault --inject feeds the gate, after the link so the
             flipped object is only compared, never decoded *)
          let objs =
            match objs with
            | o :: rest when !inject && jobs >= 2 ->
                String.mapi (fun k c -> if k = 0 then Char.chr (Char.code c lxor 1) else c) o
                :: rest
            | _ -> objs
          in
          let ok = List.equal String.equal objs base_objs && String.equal db base_db in
          if not ok then incr diverged;
          row r
            [
              ("units", I (List.length files));
              ("jobs_requested", I jobs_requested);
              ("jobs", I jobs);
              ("compile_wall_s", F compile_s);
              ("link_wall_s", F link_s);
              ( "compile_speedup_vs_j1",
                F (if compile_s > 0. then base_compile_s /. compile_s else 0.) );
              ("identical", B ok);
            ])
        !jobs_sweep)
    units_list;
  finish ~v:3 r
    ~meta:
      [
        ("profile", S Profile.nethack.Profile.name);
        ("units_sweep", J (Json.Arr (List.map (fun u -> Json.Int u) units_list)));
      ]
    ~gates:
      [
        gate "identical" (!diverged = 0)
          "%d cell(s) diverged from -j1 in object or linked bytes" !diverged;
      ]

(* ------------------------------------------------------------------ *)
(* Solver matrix: Section 5's ablation and Section 6's comparison      *)
(* ------------------------------------------------------------------ *)

(* Every solver and every Pretrans.config cell on every workload: the
   sparse/dense/cyclic Genir shapes and five C profiles, all scaled by
   --scale.  The pretrans/{nocache,nocycle,neither} cells against
   pretrans/full are Section 5's ablation; worklist, bitvector and
   steensgaard are Section 6's comparison.  Each workload first runs at
   the sorted-array baseline (threshold = max_int), the correctness
   oracle: any exact solver or configuration that diverges from it
   fails the gate; Steensgaard is checked as a sound superset.  Wall
   time, allocation per query, and the pool's set-representation
   histogram land in BENCH_solver.json.  --inject perturbs the worklist
   solution to prove the gate fires. *)
let solver () =
  let scale = Option.value !workload_scale ~default:(if !quick then 0.25 else 1.0) in
  let saved_threshold = Lvalset.default_dense_threshold () in
  banner "SOLVER: every solver and configuration per workload (scale %.2f, dense threshold %d)"
    scale saved_threshold;
  let r = report ~key:[ "workload"; "cell" ] "solver" in
  let diverged = ref 0 in
  let dense_hybrid_t = ref None and dense_array_t = ref None in
  let ablation = ref [] in
  let superset big small nvars =
    Seq.for_all
      (fun var ->
        Lvalset.fold
          (fun ok z -> ok && Lvalset.mem z (Solution.points_to big var))
          true (Solution.points_to small var))
      (Seq.init nvars Fun.id)
  in
  let workloads =
    List.map (fun shape -> (Genir.shape_name shape, Genir.shaped ~scale shape 42L)) Genir.all_shapes
    @ List.map
        (fun p -> (p.Profile.name, compiled (Profile.scaled scale p)))
        [ Profile.nethack; Profile.burlap; Profile.vortex; Profile.povray; Profile.gcc ]
  in
  List.iter
    (fun (wname, v) ->
      (* time [solve], check its solution and emit the cell's row *)
      let cell name solve check =
        let a0 = Gc.allocated_bytes () in
        let (sol, res), wall_s = timed solve in
        let alloc = Gc.allocated_bytes () -. a0 in
        let ok = check sol in
        if not ok then incr diverged;
        let queries, passes, pretrans =
          match res with
          | Some (res : Andersen.result) ->
              let gs = res.graph_stats in
              ( gs.queries,
                res.passes,
                [
                  ( "pool",
                    ints
                      [ ("hits", gs.pool_hits); ("misses", gs.pool_misses);
                        ("small_sets", gs.pool_small); ("dense_sets", gs.pool_dense) ] );
                  ( "pass_wall_s",
                    J
                      (Json.Arr
                         (List.map
                            (fun (ps : Andersen.pass_stats) -> Json.Float ps.ps_wall_s)
                            res.pass_log)) );
                ] )
          | None -> (0, 0, [])
        in
        (* the solution's set representations *)
        let sets = List.filter (fun s -> Lvalset.cardinal s > 0) (Array.to_list sol.Solution.pts) in
        let bitmaps = List.length (List.filter Lvalset.is_bitmap sets) in
        row r
          ([
             ("workload", S wname);
             ("cell", S name);
             ("scale", J (Json.Float scale));
             ("wall_s", F wall_s);
             ("passes", I passes);
             ("queries", I queries);
             ("alloc_bytes", J (Json.Float alloc));
             ( "alloc_bytes_per_query",
               F (if queries > 0 then alloc /. float_of_int queries else Float.nan) );
             ("solution_arrays", I (List.length sets - bitmaps));
             ("solution_bitmaps", I bitmaps);
             ("equal_to_baseline", B ok);
           ]
          @ pretrans);
        (sol, wall_s)
      in
      let pretrans ?config () =
        let res = Andersen.solve ?config v in
        (res.Andersen.solution, Some res)
      in
      let plain solve () = (solve v, None) in
      (* correctness oracle: pre-transitive, pure sorted-array pool *)
      Lvalset.set_default_dense_threshold max_int;
      let base, base_t =
        Fun.protect
          ~finally:(fun () -> Lvalset.set_default_dense_threshold saved_threshold)
          (fun () -> cell "pretrans/full/array" pretrans (fun _ -> true))
      in
      let exact sol = Solution.equal base sol in
      if wname = "dense" then dense_array_t := Some base_t;
      (* pre-transitive ablation cells, hybrid sets *)
      let ablated =
        List.map
          (fun (name, config) -> (name, snd (cell name (pretrans ~config) exact)))
          [
            ("pretrans/full", { Pretrans.cache = true; cycle_elim = true });
            ("pretrans/nocache", { Pretrans.cache = false; cycle_elim = true });
            ("pretrans/nocycle", { Pretrans.cache = true; cycle_elim = false });
            ("pretrans/neither", { Pretrans.cache = false; cycle_elim = false });
          ]
      in
      let full = List.assoc "pretrans/full" ablated in
      if wname = "dense" then dense_hybrid_t := Some full;
      let neither = List.assoc "pretrans/neither" ablated in
      ablation := (wname, F (if full > 1e-6 then neither /. full else Float.nan)) :: !ablation;
      (* the other exact solvers; --inject perturbs the worklist's *)
      ignore
        (cell "worklist"
           (fun () ->
             let sol = Worklist.solve v in
             ((if !inject then perturb v sol else sol), None))
           exact);
      ignore (cell "bitvector" (plain Bitsolver.solve) exact);
      (* unification: sound over-approximation, checked as a superset *)
      ignore
        (cell "steensgaard" (plain Steensgaard.solve) (fun sol ->
             superset sol base (Objfile.n_vars v))))
    workloads;
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
  finish r
    ~meta:
      [
        ("scale", F scale);
        ("dense_threshold", I saved_threshold);
        ( "summary",
          O
            [
              ("dense_speedup_vs_array", F speedup);
              ("dense_speedup_target", F 1.5);
              ("neither_over_full", O (List.rev !ablation));
            ] );
      ]
    ~gates:
      [
        gate "equal_to_baseline" (!diverged = 0)
          "%d cell(s) diverged from the sorted-array baseline" !diverged;
      ]

(* ------------------------------------------------------------------ *)
(* Open world: the body-deletion soundness gate                        *)
(* ------------------------------------------------------------------ *)

(* Delete function bodies from a complete program in a seeded stream and
   check at every step that open-world havoc keeps the closed-world
   facts (set inclusion over surviving objects, Deletion's contract).
   --inject analyzes the stripped fragments closed-world instead, which
   must fail the gate. *)
let openworld () =
  let profile = Profile.scaled 0.12 Profile.nethack in
  let seed = 42L in
  Fmt.pr "openworld: deletion gate on %s (scale %.2f, seed %Ld%s)@."
    profile.Profile.name profile.Profile.scale seed
    (if !inject then ", INJECTING unsoundness" else "");
  enforce "openworld"
    [
      (match Deletion.run ~inject_unsound:!inject ~seed profile with
      | Ok o ->
          gate "sound" true
            "%d step(s), %d/%d bodies deleted by the last, %d inclusion \
             check(s)"
            o.Deletion.n_steps o.Deletion.n_dropped o.Deletion.n_funcs
            o.Deletion.n_checked
      | Error v ->
          gate "sound" false "step %d (%d bodies deleted): %s lost {%s}"
            v.Deletion.v_step
            (List.length v.Deletion.v_dropped)
            v.Deletion.v_var
            (String.concat ", " v.Deletion.v_missing));
    ]

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
  banner "SERVE: shard x load sweep (shards=%s, load=%s)"
    (String.concat "," (List.map string_of_int !serve_shards))
    (String.concat "," (List.map string_of_int !serve_load));
  let module Sv = Cla_serve.Server in
  let module Cl = Cla_serve.Client in
  let module Pr = Cla_serve.Protocol in
  let module D = Cla_resilience.Deadline in
  let module H = Cla_obs.Histo in
  let p = Profile.scaled (if !quick then 0.05 else 0.1) Profile.nethack in
  let view = compiled p in
  let vars = Servebench.sample_vars view in
  if Array.length vars = 0 then failwith "serve: no named variables to query";
  let n = if !quick then 80 else 240 and slow_ms = if !quick then 40 else 80 in
  let r = report ~key:[ "shards"; "load" ] "serve" in
  let cells =
    List.concat_map (fun s -> List.map (fun l -> (s, l)) !serve_load) !serve_shards
  in
  List.iteri
    (fun i (shards, load) ->
      let cell = i + 1 in
      let config =
        {
          Sv.default_config with
          socket_path =
            Filename.concat
              (Filename.get_temp_dir_name ())
              (Fmt.str "cla-bs-%d-%d.sock" (Unix.getpid ()) cell);
          shards;
          allow_sleep = true;
        }
      in
      let queries =
        Array.of_list
          (Servebench.generate
             ~mix:{ Servebench.m_good = 8; m_poison = 1; m_slow = 1 }
             ~seed:(Int64.of_int (1000 + cell))
             ~n ~vars ~deadline_ms:2000 ~slow_ms ())
      in
      let histo = H.create () in
      (* each reply's status; None when it never came back *)
      let status = Array.make n None in
      let wall_s, stats_reply =
        with_server view config (fun _ socket ->
            let next = Atomic.make 0 in
            let rec worker () =
              let i = Atomic.fetch_and_add next 1 in
              if i < n then begin
                let t0 = D.now_ns () in
                let reply = Cl.round_trip ~socket queries.(i).Servebench.q_line in
                H.record histo (D.now_ns () - t0);
                status.(i) <- Result.to_option (Result.map Pr.status_of_line reply);
                worker ()
              end
            in
            let t0 = D.now_s () in
            List.iter Thread.join
              (List.init (max 1 load) (fun _ -> Thread.create worker ()));
            (* live introspection under this cell's residue *)
            (D.now_s () -. t0, Cl.round_trip ~socket {|{"id":0,"op":"stats"}|}))
      in
      let count st =
        Array.fold_left (fun a s -> if s = Some st then a + 1 else a) 0 status
      in
      let ok = count Pr.S_ok and shed = count Pr.S_shed in
      let tmo = count Pr.S_timeout and err = count Pr.S_error in
      let answered = ok + shed + tmo + err in
      let pms q = float_of_int (H.quantile histo q) /. 1e6 in
      row r
        [
          ("shards", I shards);
          ("load", I load);
          ("n", I n);
          ("wall_s", F wall_s);
          ( "throughput_qps",
            F (if wall_s > 0. then float_of_int answered /. wall_s else 0.) );
          ("ok", I ok);
          ("shed", I shed);
          ("timeout", I tmo);
          ("error", I err);
          (* dropped connections, [bye] and malformed replies *)
          ("transport_errors", I (n - answered));
          ( "latency",
            O
              [
                ("count", J (Json.Int (H.count histo)));
                ("mean_ms", J (Json.Float (H.mean histo /. 1e6)));
                ("p50_ms", F (pms 0.5));
                ("p90_ms", F (pms 0.9));
                ("p99_ms", F (pms 0.99));
                ("p999_ms", J (Json.Float (pms 0.999)));
                ("max_ms", F (float_of_int (H.max_value histo) /. 1e6));
              ] );
          ( "server_latency",
            J
              (match Result.map Json.of_string stats_reply with
              | Ok j -> Option.value ~default:Json.Null (Json.member "latency" j)
              | Error _ | (exception Json.Parse_error _) -> Json.Null) );
        ])
    cells;
  finish r
    ~meta:
      [ ("profile", S p.Profile.name); ("scale", F p.Profile.scale); ("queries_per_cell", I n) ]

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

   Every gate but the timed recovery_p99 (the p99 latency of the queries
   right behind each kill) checks answers.  --inject disables the
   supervisor, which must fail the gate.  The snapshot files are removed
   on every exit path. *)
let chaos () =
  banner "CHAOS: snapshot + supervision gate%s"
    (if !inject then " [INJECTED: supervisor disabled]" else "");
  let module Sv = Cla_serve.Server in
  let module Cl = Cla_serve.Client in
  let module Pr = Cla_serve.Protocol in
  let module D = Cla_resilience.Deadline in
  let p = Profile.scaled (if !quick then 0.05 else 0.1) Profile.nethack in
  let view = compiled p in
  let vars = Servebench.sample_vars view in
  if Array.length vars = 0 then failwith "chaos: no named variables to query";
  let tmp name =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Fmt.str "cla-chaos-%d-%s" (Unix.getpid ()) name)
  in
  let config ?snapshot ?(shards = 2) name =
    { Sv.default_config with socket_path = tmp name; snapshot_path = snapshot; shards }
  in
  (* one round trip, its reply parsed; [get] walks a path into it *)
  let ask socket line =
    match Cl.round_trip ~socket line with
    | Ok l -> ( try Some (Json.of_string l) with Json.Parse_error _ -> None)
    | Error _ -> None
  in
  let get path j = List.fold_left (fun j k -> Option.bind j (Json.member k)) j path in
  let stats socket = ask socket {|{"id":0,"op":"stats"}|} in
  (* a points-to query: answered ok?, and its sorted targets *)
  let points_to socket var =
    let j =
      ask socket
        (Fmt.str {|{"id":1,"op":"points-to","var":%s,"deadline_ms":4000}|}
           (Json.to_string (Json.Str var)))
    in
    ( get [ "status" ] j = Some (Json.Str "ok"),
      match get [ "targets" ] j with
      | Some (Json.Arr ts) -> Some (List.sort compare ts)
      | _ -> None )
  in
  let shards = 3 and load = 4 and n = if !quick then 160 else 400 in
  let recovery_bound_ms = 2000. in
  let snap = tmp "good.snap" and bad = tmp "bad.snap" in
  let meta, gates =
    Fun.protect
      ~finally:(fun () ->
        List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ snap; bad ])
    @@ fun () ->
    (* the reference: a frozen solution, and a live server's answer *)
    Snapshot.save snap ~view (Pipeline.points_to_ladder view);
    let _, live =
      with_server view (config ~shards:1 "live.sock") (fun _ s ->
          points_to s vars.(0))
    in
    if live = None then failwith "chaos: live probe failed";
    (* a bit-flipped snapshot is rejected, and the answer still right *)
    let b = Bytes.of_string (Binio.read_file snap) in
    let mid = Bytes.length b / 2 in
    Bytes.set b mid (Char.chr (Char.code (Bytes.get b mid) lxor 0xff));
    Out_channel.with_open_bin bad (fun oc -> Out_channel.output_bytes oc b);
    let corrupt_ok =
      with_server view (config ~snapshot:bad "corrupt.sock") (fun _ s ->
          snd (points_to s vars.(0)) = live
          && get [ "snapshot" ] (stats s) = Some (Json.Bool false))
    in
    (* a good snapshot answers without a single shard solve *)
    let n_warm = 40 in
    let warm, solves =
      with_server view (config ~snapshot:snap "snap.sock") (fun _ s ->
          let warm =
            List.init n_warm (fun i -> points_to s vars.(i mod Array.length vars))
          in
          let solve_count sh = Option.bind (Json.member "solves" sh) Json.to_int in
          ( warm,
            match get [ "shards" ] (stats s) with
            | Some (Json.Arr shs) ->
                List.fold_left
                  (fun acc sh -> acc + Option.value ~default:0 (solve_count sh))
                  0 shs
            | _ -> max_int ))
    in
    (* the chaos run: a fault schedule fired into the stream under load;
       fault f lands when the stream reaches index at_ms * n / span_ms —
       deterministic and immune to how fast the queries drain *)
    let queries =
      Array.of_list
        (Servebench.generate
           ~mix:{ Servebench.m_good = 8; m_poison = 2; m_slow = 0 }
           ~fresh_frac:0.5 ~seed:4242L ~n ~vars ~deadline_ms:4000 ~slow_ms:40 ())
    in
    let span_ms = 1000 in
    let faults_at = Array.make n [] in
    let kill_indices = ref [] in
    List.iter
      (fun { Servebench.f_at_ms; f_fault } ->
        let i = min (n - 1) (f_at_ms * n / span_ms) in
        (match f_fault with
        | Servebench.Kill_shard _ -> kill_indices := i :: !kill_indices
        | Servebench.Wedge_shard _ -> ());
        faults_at.(i) <- f_fault :: faults_at.(i))
      (Servebench.fault_schedule ~kills:2 ~wedges:1 ~seed:99L ~shards ~span_ms
         ~wedge_ms:300 ());
    let config =
      {
        (config ~snapshot:snap ~shards "chaos.sock") with
        supervise = not !inject;
        heartbeat_grace_ms = 150;
        restart_budget = 8;
        restart_window_ms = 10_000;
      }
    in
    let lat_ns = Array.make n 0 in
    let failed_good = ref 0 and answered = ref 0 and fired = ref [] in
    let restarts, shards_down =
      with_server view config (fun h socket ->
          let next = Atomic.make 0 and fired_m = Mutex.create () in
          let fire f =
            let fired_ok =
              match f with
              | Servebench.Kill_shard s -> Sv.chaos_kill_shard h s
              | Servebench.Wedge_shard (s, ms) -> Sv.chaos_wedge_shard h s ~wedge_ms:ms
            in
            if fired_ok then
              Mutex.protect fired_m (fun () ->
                  fired := Servebench.fault_name f :: !fired)
          in
          let rec worker () =
            let i = Atomic.fetch_and_add next 1 in
            if i < n then begin
              List.iter fire faults_at.(i);
              let q = queries.(i) in
              let t0 = D.now_ns () in
              let outcome =
                Cl.with_retry
                  ~policy:{ Cl.default_policy with attempts = 4; seed = i }
                  ~socket q.Servebench.q_line
              in
              lat_ns.(i) <- D.now_ns () - t0;
              incr answered;
              (match (q.Servebench.q_kind, outcome.Cl.reply) with
              | Servebench.Good, Ok l when Pr.status_of_line l = Pr.S_ok -> ()
              | Servebench.Good, _ -> incr failed_good
              | _ -> ());
              worker ()
            end
          in
          List.iter Thread.join
            (List.init load (fun _ -> Thread.create worker ()));
          (* supervision counters, read live before drain *)
          let counter k =
            Option.value ~default:(-1)
              (Option.bind (get [ "counters"; k ] (stats socket)) Json.to_int)
          in
          (counter "serve.shard_restarts", counter "serve.shards_down"))
    in
    (* recovery: the p99 of the queries issued right behind each kill *)
    let window = max 8 (n / 20) in
    let recovery =
      Array.of_list
        (List.sort compare
           (List.concat_map
              (fun k -> Array.to_list (Array.sub lat_ns k (min window (n - k))))
              !kill_indices))
    in
    let recovery_p99_ms =
      let m = Array.length recovery in
      if m = 0 then 0. else float_of_int recovery.(min (m - 1) (m * 99 / 100)) /. 1e6
    in
    let faults = List.rev !fired in
    ( [ ("profile", S p.Profile.name); ("scale", F p.Profile.scale);
        ("supervised", B (not !inject)); ("shards", I shards); ("n", I n); ("load", I load);
        ("faults", J (Json.Arr (List.map (fun s -> Json.Str s) faults)));
        ("failed_good", I !failed_good); ("recovery_p99_ms", F recovery_p99_ms);
        ("recovery_bound_ms", F recovery_bound_ms); ("shard_restarts", I restarts);
        ("shards_down", I shards_down) ],
      [
        gate "corrupt_fallback" corrupt_ok
          "bit-flipped snapshot rejected, live answer correct";
        gate "snapshot_oread"
          (List.for_all fst warm && solves = 0)
          "%d queries off the good snapshot, %d shard solve(s)" n_warm solves;
        gate "snapshot_answers_match"
          (snd (List.hd warm) = live)
          "snapshot answers match the live solve";
        gate "zero_failed_good"
          (!failed_good = 0 && !answered = n)
          "n=%d answered=%d faults=[%s] failed_good=%d" n !answered
          (String.concat ", " faults) !failed_good;
        (* with the supervisor injected away there is nothing to observe *)
        gate "restarts_observed" (!inject || restarts >= 1)
          "supervisor restarts %d, shards down %d" restarts shards_down;
        gate ~kind:Timed "recovery_p99"
          (recovery_p99_ms <= recovery_bound_ms)
          "recovery p99 over kill windows %.1fms (<= %.0fms)" recovery_p99_ms
          recovery_bound_ms;
      ] )
  in
  finish (report "chaos") ~meta ~gates

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

   --inject swaps the previous step's from-scratch solution into the
   equality check, so the gate must fail. *)
let incremental () =
  (* vortex, not burlap: unit count is what the compile cache leverages
     (Genc splits ~1200 variables per file), and vortex's 11.4K
     variables give 9 units at full scale where burlap gives 5 *)
  let scale = Option.value !workload_scale ~default:(if !quick then 0.5 else 1.0) in
  let steps = !incr_steps and p_remove = !incr_p_remove in
  let p = Profile.scaled scale Profile.vortex in
  banner "INCREMENTAL: %d-step edit stream over %s (scale %.2f, p_remove %.2f, seed %d)%s"
    steps p.Profile.name p.Profile.scale p_remove !incr_seed
    (if !inject then " [INJECTING STALE SOLUTION]" else "");
  let es = Editstream.create ~seed:(Int64.of_int !incr_seed) ~p_remove p in
  (* from-scratch baseline: recompile every unit (no compile cache),
     full link, cold solve.  Each unit becomes its view through
     Objfile.encode, as in the incremental driver's own unit step.  The
     link is timed without encoding its database, which the delta
     linker's inc_link_s includes: the two link columns time unlike
     work. *)
  let scratch sources view =
    let views, compile_s =
      timed (fun () ->
          List.map
            (fun (file, src) -> Objfile.encode (Compilep.compile_string ~file src))
            sources)
    in
    let _, link_s = timed (fun () -> Linkp.link_views views) in
    let sol, solve_s = timed (fun () -> (Andersen.solve view).Andersen.solution) in
    (sol, compile_s, link_s, solve_s)
  in
  let t, s0 = Incremental.create (Editstream.sources es) in
  let n_files = s0.Incremental.sources in
  let base_scratch, _, _, _ = scratch (Editstream.sources es) (Incremental.view t) in
  let prev_scratch = ref base_scratch in
  let r = report ~key:[ "step" ] "incremental" in
  let unequal =
    ref (if Solution.equal (Incremental.solution t) base_scratch then 0 else 1)
  in
  let cache_broken = ref 0 and adds_fell_back = ref 0 in
  let totals = ref [] in
  for _ = 1 to steps do
    let step = Editstream.next es in
    let s = Incremental.update t step.ssources in
    let inc_total = s.wall_compile_s +. s.wall_link_s +. s.wall_solve_s in
    let sol_scratch, sc_compile, sc_link, sc_solve =
      scratch step.ssources (Incremental.view t)
    in
    let sc_total = sc_compile +. sc_link +. sc_solve in
    let res = Incremental.result t in
    (* the gate; --inject deliberately compares against the previous
       step's solution, which each edit invalidates *)
    let oracle = if !inject then !prev_scratch else sol_scratch in
    let equal = Solution.equal (Incremental.solution t) oracle in
    prev_scratch := sol_scratch;
    totals := (inc_total, sc_total) :: !totals;
    if not equal then incr unequal;
    if s.cache_misses <> 1 || s.cache_hits <> n_files - 1 then incr cache_broken;
    if (not step.sremoval) && not s.resumed then incr adds_fell_back;
    let quiet x = J (Json.Float x) in
    row r
      [
        ("step", I step.snum);
        ( "path",
          S
            (if step.sremoval then "(remove)"
             else if s.resumed then "(resume)"
             else "(fallback)") );
        ("desc", S step.sdesc);
        ("removal", J (Json.Bool step.sremoval));
        ("resumed", J (Json.Bool s.resumed));
        ("cache_hits", I s.cache_hits);
        ("cache_misses", I s.cache_misses);
        ("vars", I (Objfile.n_vars (Incremental.view t)));
        ("resume_passes", I (if s.resumed then res.Andersen.passes else 0));
        ("extract_recomputed", I res.Andersen.extract_recomputed);
        ("inc_compile_s", quiet s.wall_compile_s);
        ("inc_link_s", quiet s.wall_link_s);
        ("inc_solve_s", quiet s.wall_solve_s);
        ("inc_total_s", F inc_total);
        ("scratch_compile_s", quiet sc_compile);
        ("scratch_link_s", quiet sc_link);
        ("scratch_solve_s", quiet sc_solve);
        ("scratch_total_s", F sc_total);
        ("speedup", F (if inc_total > 0. then sc_total /. inc_total else 0.));
        ("equal", B equal);
      ]
  done;
  (* the steady-state claim: aggregate the last three steps (noise at
     millisecond walls makes a single step an unfair judge either way) *)
  let tail = List.filteri (fun i _ -> i < 3) !totals in
  let tail_speedup =
    let inc = List.fold_left (fun a (i, _) -> a +. i) 0. tail
    and sc = List.fold_left (fun a (_, s) -> a +. s) 0. tail in
    if inc > 0. then sc /. inc else 0.
  in
  finish r
    ~meta:
      [ ("profile", S p.Profile.name); ("scale", F p.Profile.scale); ("steps", I steps);
        ("p_remove", F p_remove); ("seed", I !incr_seed); ("injected_stale", B !inject);
        ("units", I n_files); ("tail_speedup", F tail_speedup) ]
    ~gates:
      [
        gate "solutions_equal" (!unequal = 0)
          "%d of %d solve(s) (base + steps) differ from scratch" !unequal
          (steps + 1);
        gate "cache_discipline" (!cache_broken = 0)
          "%d step(s) missed 1 miss / %d hits" !cache_broken (n_files - 1);
        gate "additions_resumed" (!adds_fell_back = 0)
          "%d append-only step(s) fell back to a cold solve" !adds_fell_back;
        gate ~kind:Timed "tail_speedup_gt_1" (tail_speedup > 1.0)
          "tail speedup (last %d step(s)) %.1fx (> 1.0)" (List.length tail)
          tail_speedup;
      ]

(* ------------------------------------------------------------------ *)
(* Command line                                                        *)
(* ------------------------------------------------------------------ *)

let all_sections =
  [ ("pipeline", pipeline); ("paper", paper); ("parallel", parallel); ("solver", solver);
    ("openworld", openworld); ("serve", serve); ("chaos", chaos);
    ("incremental", incremental) ]

let usage fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "bench: %s@.sections: %s@." msg
        (String.concat " " (List.map fst all_sections));
      exit 2)
    fmt

let () =
  let num conv valid arg v =
    match conv v with Some x when valid x -> x | _ -> usage "bad value in %S" arg
  in
  let ints ?(min = 1) arg v =
    List.map (num int_of_string_opt (fun j -> j >= min) arg) (String.split_on_char ',' v)
  in
  let sections = ref [] in
  Array.iteri
    (fun i arg ->
      let flag, v =
        match String.index_opt arg '=' with
        | Some e ->
            (String.sub arg 0 (e + 1), String.sub arg (e + 1) (String.length arg - e - 1))
        | None -> (arg, "")
      in
      if i > 0 then
        match flag with
        | "--quick" -> quick := true
        | "--check-hard" -> check_hard := true
        | "--inject" -> inject := true
        | "--scale=" -> workload_scale := Some (num float_of_string_opt (fun f -> f > 0.) arg v)
        | "--budget=" -> budget := Some (num int_of_string_opt (fun n -> n > 0) arg v)
        | "--check-against=" ->
            let read () = Json.of_string (In_channel.with_open_bin v In_channel.input_all) in
            baseline := Some (v, try Some (read ()) with Sys_error _ | Json.Parse_error _ -> None)
        | "--units=" -> units_sweep := ints arg v
        | "--shards=" -> serve_shards := ints arg v
        | "--load=" -> serve_load := ints arg v
        | "--jobs=" -> jobs_sweep := ints ~min:0 arg v
        | "--steps=" -> incr_steps := num int_of_string_opt (fun n -> n >= 1) arg v
        | "--seed=" -> incr_seed := num int_of_string_opt (fun n -> n >= 0) arg v
        | "--p-remove=" ->
            incr_p_remove := num float_of_string_opt (fun f -> f >= 0.) arg v
        | _ when String.starts_with ~prefix:"-" arg -> usage "unknown flag %S" arg
        | _ when List.mem_assoc arg all_sections -> sections := arg :: !sections
        | _ -> usage "unknown section %S" arg)
    Sys.argv;
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun (name, run) -> if !sections = [] || List.mem name !sections then run ())
    all_sections;
  hr ();
  Fmt.pr "total bench time: %.1fs@." (Unix.gettimeofday () -. t0)
