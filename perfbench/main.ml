(* The CLA benchmark program.  [run.py] builds this executable and calls

     main.exe run --workload W --seed N --seconds S --trace 0|1
                  --work DIR --cla PATH [--report FILE] [--tiny]
                  [--inject solution|linked|object|served]

   It generates the workload from the seed, measures for S seconds (for
   vortex_watch: a fixed amount of work sized by S), checks every
   answer, and prints one JSON line as the last line of stdout.  It runs
   its set-ups and batch iterations as child processes of itself
   ([main.exe setup|tree|iterate|solve]).  [main.exe pin --workload W [--tiny]] prints the solution
   digest pinned in pins.ml, computed with two independent solvers.
   See README.md for the workloads and the metric map. *)

open Cla_core
module Json = Cla_obs.Json
module Normalize = Cla_cfront.Normalize
module Profile = Cla_workload.Profile
module Editstream = Cla_workload.Editstream

let now = Ledger.now
let span = Ledger.span

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

let sorted l =
  let a = Array.of_list l in
  Array.sort compare a;
  a

let median l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The tail: the highest percentile that still has ten samples beyond
   it, i.e. the eleventh-largest sample (the largest when there are
   fewer than eleven).  Returns the value, the percentile it sits at,
   the samples beyond it and the sample count. *)
let tail l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then (nan, 0., 0, 0)
  else
    let i = if n >= 11 then n - 11 else n - 1 in
    (a.(i), 100. *. float_of_int (i + 1) /. float_of_int n, n - 1 - i, n)

let mean l =
  match l with [] -> 0. | _ -> List.fold_left ( +. ) 0. l /. float_of_int (List.length l)

let mb x = x /. 1048576.

(* Peak resident set of a process, in MB ([VmHWM]). *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> nan
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | line ->
            if String.length line > 6 && String.sub line 0 6 = "VmHWM:" then
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d"
                (fun kb -> float_of_int kb /. 1024.)
            else scan ()
      in
      let v = scan () in
      close_in ic;
      v

(* ------------------------------------------------------------------ *)
(* Arguments                                                           *)
(* ------------------------------------------------------------------ *)

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  tiny : bool;  (* the benchmark's own tests: small inputs *)
  inject : string option;  (* a deliberately wrong answer, by check *)
  work : string;  (* scratch directory for this run *)
  report : string option;  (* where the detailed result goes *)
  cla : string;  (* the cla executable, for the serve workload *)
  iter : int;  (* iterate: which batch iteration this process runs *)
}

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let parse_args argv =
  let kv = Hashtbl.create 8 and flags = Hashtbl.create 4 in
  let rec go = function
    | "--tiny" :: rest ->
        Hashtbl.replace flags "tiny" ();
        go rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace kv (String.sub k 2 (String.length k - 2)) v;
        go rest
    | [] -> ()
    | x :: _ -> die "unexpected argument %S" x
  in
  go argv;
  let get ?default k =
    match (Hashtbl.find_opt kv k, default) with
    | Some v, _ -> v
    | None, Some d -> d
    | None, None -> die "missing --%s" k
  in
  let int k v = match int_of_string_opt v with Some n -> n | None -> die "--%s: not an integer: %S" k v in
  {
    workload = get "workload";
    seed = int "seed" (get ~default:"1" "seed");
    seconds = float_of_int (int "seconds" (get ~default:"10" "seconds"));
    trace = get ~default:"0" "trace" = "1";
    tiny = Hashtbl.mem flags "tiny";
    inject = Hashtbl.find_opt kv "inject";
    work = get ~default:"." "work";
    report = Hashtbl.find_opt kv "report";
    cla = get ~default:"cla" "cla";
    iter = int "iter" (get ~default:"0" "iter");
  }

let injected a kind = a.inject = Some kind

(* ------------------------------------------------------------------ *)
(* Workload inputs                                                     *)
(* ------------------------------------------------------------------ *)

type spec = {
  profile : Profile.t;
  mode : Normalize.mode;
  prepared : bool;  (* inputs are the linked bytes, compiled in set-up *)
}

let spec a =
  let scaled f p = Profile.scaled f p in
  match a.workload with
  | "gimp_batch" ->
      { profile = scaled (if a.tiny then 0.02 else 0.25) Profile.gimp;
        mode = Normalize.Field_based; prepared = false }
  | "emacs_fi_solve" ->
      { profile = scaled (if a.tiny then 0.05 else 0.5) Profile.emacs;
        mode = Normalize.Field_independent; prepared = true }
  | "vortex_watch" ->
      { profile = scaled (if a.tiny then 0.1 else 1.0) Profile.vortex;
        mode = Normalize.Field_based; prepared = false }
  | w -> die "unknown workload %S (gimp_batch, emacs_fi_solve, vortex_watch)" w

let options s = { Compilep.default_options with Compilep.mode = s.mode }

(* Each workload's program is the profile's Genc program for one fixed
   seed, so set-up and solve cost do not move with the run seed; the run
   seed picks the queries, the edited units and, for vortex_watch, where
   in the edit stream the run starts.  Editstream's base program is
   exactly that Genc program. *)
let program_seed = 1L
let stream s = Editstream.create ~seed:program_seed ~p_remove:0.25 s.profile

(* ------------------------------------------------------------------ *)
(* The compile-link-analyze layers, one call at a time                 *)
(* ------------------------------------------------------------------ *)

(* Non-blank, non-# lines: the source-line count Compilep records. *)
let count_source_lines text =
  List.fold_left
    (fun n line ->
      let t = String.trim line in
      if t <> "" && t.[0] <> '#' then n + 1 else n)
    0
    (String.split_on_char '\n' text)

let mode_name = function
  | Normalize.Field_based -> "field_based"
  | Normalize.Field_independent -> "field_independent"

(* One translation unit to object bytes, chaining the layers the way
   Compilep.compile_string does (default include dirs and defines). *)
let compile_unit ~mode (file, src) =
  let pre = span "cpp" (fun () -> Cla_cfront.Cpp.preprocess_string ~file src) in
  Ledger.count "cpp.out_bytes" (float_of_int (String.length pre));
  let parsed = span "parse" (fun () -> Cla_cfront.Cparser.parse_string ~file pre) in
  let prog = span "normalize" (fun () -> Normalize.run ~mode parsed) in
  Ledger.count "normalize.prims" (float_of_int (List.length prog.Cla_ir.Prog.assigns));
  let source_lines = count_source_lines src in
  let preproc_lines = List.length (String.split_on_char '\n' pre) in
  let db =
    span "encode" (fun () ->
        {
          (Compilep.db_of_prog ~source_lines ~preproc_lines prog) with
          Objfile.tuhash =
            Some (Digest.to_hex (Digest.string (mode_name mode ^ "\x00" ^ pre)));
        })
  in
  let bytes = span "objwrite" (fun () -> Objfile.write db) in
  Ledger.count "objwrite.bytes" (float_of_int (String.length bytes));
  bytes

(* Every unit compiled, read back and linked: the linked bytes. *)
let compile_link ~mode sources =
  let objs = span "compile" (fun () -> List.map (compile_unit ~mode) sources) in
  let views = List.map (fun o -> span "objread" (fun () -> Objfile.view_of_string o)) objs in
  let db, st = span "link" (fun () -> Linkp.link_views views) in
  Ledger.count "link.vars_out" (float_of_int st.Linkp.n_vars_out);
  Ledger.count "link.extern_merged" (float_of_int st.Linkp.n_extern_merged);
  let linked = span "linkwrite" (fun () -> Objfile.write db) in
  Ledger.count "linkwrite.bytes" (float_of_int (String.length linked));
  linked

(* Load the linked bytes (with CRC checks) and solve. *)
let analyze linked =
  let view = span "load" (fun () -> Objfile.view_of_string linked) in
  Ledger.count "load.bytes" (float_of_int (String.length linked));
  let r = span "solve" (fun () -> Andersen.solve view) in
  let g = r.Andersen.graph_stats and l = r.Andersen.loader_stats in
  List.iter
    (fun (k, v) -> Ledger.count k (float_of_int v))
    [
      ("solve.passes", r.Andersen.passes);
      ("solve.queries", g.Pretrans.queries);
      ("solve.visits", g.Pretrans.visits);
      ("solve.cache_hits", g.Pretrans.cache_hits);
      ("solve.unified", g.Pretrans.unified);
      ("solve.edges", g.Pretrans.edges);
      ("solve.dense_sets", g.Pretrans.pool_dense);
      ("solve.blocks_loaded", l.Loader.s_loaded);
      ("solve.blocks_in_file", l.Loader.s_in_file);
    ];
  Ledger.count "solve.passes_s"
    (List.fold_left (fun s p -> s +. p.Andersen.ps_wall_s) 0. r.Andersen.pass_log);
  (view, r.Andersen.solution)

(* ------------------------------------------------------------------ *)
(* Answers                                                             *)
(* ------------------------------------------------------------------ *)

(* A digest of everything Solution.equal compares: the table size and
   every program variable's points-to set. *)
let digest (sol : Solution.t) =
  let b = Buffer.create (1 lsl 16) in
  Buffer.add_string b (string_of_int (Array.length sol.Solution.pts));
  Array.iteri
    (fun v s ->
      if Solution.is_program_var sol v && Lvalset.cardinal s > 0 then begin
        Buffer.add_char b '\n';
        Buffer.add_string b (string_of_int v);
        Buffer.add_char b ':';
        Lvalset.iter
          (fun z ->
            Buffer.add_string b (string_of_int z);
            Buffer.add_char b ',')
          s
      end)
    sol.Solution.pts;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The same solution with one extra target: a wrong answer. *)
let corrupt (sol : Solution.t) =
  let pts = Array.copy sol.Solution.pts in
  let pool = Lvalset.create_pool () in
  let rec first_absent z = if Lvalset.mem z pts.(0) then first_absent (z + 1) else z in
  if Array.length pts > 0 && Solution.is_program_var sol 0 then
    pts.(0) <- Lvalset.union pool pts.(0) (Lvalset.of_list pool [ first_absent 0 ]);
  Solution.create sol.Solution.view pts

let target_names (sol : Solution.t) v =
  Lvalset.fold (fun acc z -> Solution.var_name sol z :: acc) [] (Solution.points_to sol v)
  |> List.rev

let shuffle ~seed a =
  let a = Array.copy a and rng = Random.State.make [| seed; 0x9e37 |] in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* The query probes: every program variable with a non-empty points-to
   set and a unique display name, in variable order. *)
let probes (sol : Solution.t) =
  let view = sol.Solution.view in
  List.filter
    (fun v ->
      Solution.is_program_var sol v
      && Lvalset.cardinal (Solution.points_to sol v) > 0
      && List.length (Objfile.find_targets view (Solution.var_name sol v)) = 1)
    (List.init (Array.length view.Objfile.rvars) Fun.id)
  |> List.map (Solution.var_name sol)
  |> Array.of_list

type query = Pt of string | Alias of string * string

(* One points-to query per probe and, after every fourth, an alias query
   pairing it with a fixed partner, dealt into requests of [per] queries
   by stride, so every request holds a like mix of small and large
   answers.  The seed only shuffles the order of the requests: every
   seed sends the same requests, so the query cost does not move with
   the seed. *)
let requests ~seed ~per probes =
  let k = Array.length probes in
  let qs =
    Array.to_list probes
    |> List.mapi (fun i p ->
           if i mod 4 = 3 then [ Pt p; Alias (p, probes.(i * 7919 mod k)) ] else [ Pt p ])
    |> List.concat |> Array.of_list
  in
  let n = Array.length qs / per in
  shuffle ~seed (Array.init n (fun g -> Array.init per (fun j -> qs.(g + (j * n)))))

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type outcome = {
  attempted : int;
  failed : int;
  checks_ok : bool;  (* the run-level answer checks *)
  metrics : (string * float * string) list;  (* name, value, unit *)
  detail : (string * Json.t) list;
}

let tail_detail name l =
  let v, pct, beyond, n = tail l in
  ( name,
    Json.Obj
      [
        ("value", Json.Float v);
        ("percentile", Json.Float pct);
        ("samples_beyond", Json.Int beyond);
        ("samples", Json.Int n);
      ] )

let ms_tail l = let v, _, _, _ = tail l in v

(* Per-layer metrics from the ledger, per traced iteration.  Layers a
   workload does not exercise read 0. *)
let layer_metrics ~iters ~extra =
  let per x = x /. float_of_int (max 1 iters) in
  let l = Ledger.layer and c = Ledger.get_count in
  let busy n = (per (l n).Ledger.self, "s") and alloc n = (mb (per (l n).Ledger.alloc), "MB") in
  let ratio a b = if b > 0. then a /. b else 0. in
  let solve = l "solve" in
  [
    ("cpp.busy_s", busy "cpp"); ("cpp.alloc_mb", alloc "cpp");
    ("cpp.out_mb", (mb (per (c "cpp.out_bytes")), "MB"));
    ("parse.busy_s", busy "parse"); ("parse.alloc_mb", alloc "parse");
    ("normalize.busy_s", busy "normalize"); ("normalize.alloc_mb", alloc "normalize");
    ("normalize.prims", (per (c "normalize.prims"), "count"));
    ("encode.busy_s", busy "encode"); ("encode.alloc_mb", alloc "encode");
    ("objwrite.busy_s", busy "objwrite");
    ("objwrite.mb", (mb (per (c "objwrite.bytes")), "MB"));
    ("objread.busy_s", busy "objread");
    ("link.busy_s", busy "link"); ("link.alloc_mb", alloc "link");
    ("link.vars_out", (per (c "link.vars_out"), "count"));
    ("link.extern_merged", (per (c "link.extern_merged"), "count"));
    ("linkwrite.busy_s", busy "linkwrite");
    ("linkwrite.mb", (mb (per (c "linkwrite.bytes")), "MB"));
    ("load.busy_s", busy "load");
    ("load.mb", (mb (per (c "load.bytes")), "MB"));
    ("solve.busy_s", busy "solve");
    ("solve.passes_s", (per (c "solve.passes_s"), "s"));
    ("solve.init_extract_s", (per (solve.Ledger.self -. c "solve.passes_s"), "s"));
    ("solve.passes", (per (c "solve.passes"), "count"));
    ("solve.queries", (per (c "solve.queries"), "count"));
    ("solve.visits", (per (c "solve.visits"), "count"));
    ("solve.cache_hit_ratio", (ratio (c "solve.cache_hits") (c "solve.queries"), "ratio"));
    ("solve.unified", (per (c "solve.unified"), "count"));
    ("solve.edges", (per (c "solve.edges"), "count"));
    ("solve.alloc_mb", alloc "solve");
    ("solve.dense_sets", (per (c "solve.dense_sets"), "count"));
    ( "solve.blocks_loaded_ratio",
      (ratio (c "solve.blocks_loaded") (c "solve.blocks_in_file"), "ratio") );
  ]
  @ extra

let zero_incr_serve =
  List.map
    (fun (n, u) -> (n, (0., u)))
    [
      ("incr.update_ms", "ms"); ("incr.probe_ms", "ms"); ("incr.relink_ms", "ms");
      ("incr.resume_ms", "ms"); ("incr.cache_hit_ratio", "ratio");
      ("incr.resumed_frac", "ratio"); ("incr.delta_added", "count");
      ("serve.server_ms_p50", "ms"); ("serve.server_ms_tail", "ms");
      ("serve.queue_ms_p50", "ms"); ("serve.transport_ms_p50", "ms");
      ("serve.cache_hit_ratio", "ratio"); ("serve.shed", "count");
    ]

(* ------------------------------------------------------------------ *)
(* Batch workloads: gimp_batch, emacs_fi_solve                         *)
(* ------------------------------------------------------------------ *)

(* Edited units per batch iteration; every iteration compiles all of
   them, in the seeded order. *)
let edits_per_iter = 12

(* A batch query is one request naming this many variables (single
   in-memory lookups take microseconds, and their tail would only show
   collector pauses). *)
let lookups_per_query = 256

(* Answer one query through the library, the way the server does. *)
let answer view sol = function
  | Pt n -> (
      match Objfile.find_targets view n with
      | v :: _ ->
          ignore (Sys.opaque_identity (target_names sol v));
          true
      | [] -> false)
  | Alias (n1, n2) -> (
      match (Objfile.find_targets view n1, Objfile.find_targets view n2) with
      | v1 :: _, v2 :: _ ->
          let p1 = Solution.points_to sol v1 and p2 = Solution.points_to sol v2 in
          ignore
            (Sys.opaque_identity (Lvalset.fold (fun hit z -> hit || Lvalset.mem z p2) false p1));
          true
      | _ -> false)

(* What a batch iteration gets from set-up, and what it reports back.
   Each iteration runs in a fresh process ([main.exe iterate]), as a
   user's compile-link-analyze run would: every iteration starts from
   the same heap, and its peak RSS is that of one analyzing process. *)
type inputs = {
  sources : (string * string) list;
  edits : (string * string) array;  (* edited units, in seeded order *)
  linked : string option;  (* emacs: the linked bytes *)
}

type iter_result = {
  r_e2e : float;
  r_analyze : float;
  r_linked : string;  (* digest of the linked bytes *)
  r_solution : string;  (* digest of the solution *)
  r_query_ms : float list;
  r_lookups : int;
  r_qfail : int;
  r_qtime : float;
  r_edit_ms : float list;
  r_edit_digests : (int * string) list;  (* edit index, object digest *)
  r_rss_mb : float;
  r_layers : (string * Ledger.layer) list;
  r_counts : (string * float) list;
  r_uncovered : float;
}

let inputs_file = "inputs.bin"
let linked_file = "linked.cla"

(* The arguments that make a child [main.exe] see the same workload. *)
let child_args a =
  [ "--workload"; a.workload; "--seed"; string_of_int a.seed ]
  @ if a.tiny then [ "--tiny" ] else []

(* Run [main.exe cmd ...] in a fresh process, which prints the time it
   measured as its only line. *)
let timed_child cmd args =
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (Array.of_list (Sys.executable_name :: cmd :: args))
  in
  let t = float_of_string (input_line ic) in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> t
  | _ -> die "%s failed" cmd

(* [main.exe solve]: load [linked_file] and solve it once, printing the
   load + solve time. *)
let solve_once () =
  let data = In_channel.with_open_bin linked_file In_channel.input_all in
  let t0 = now () in
  ignore (Andersen.solve (Objfile.view_of_string data));
  Printf.printf "%.17g\n" (now () -. t0)

let solve_in_child () = timed_child "solve" []

(* [main.exe calib]: a fixed piece of work that calls none of the code
   under test, timed: hash-table inserts and lookups, short-lived lists
   and random reads over an array of a few MB, the kind of work the
   solver and the frontend do.  It prints its time. *)
let calibrate () =
  let t0 = now () in
  let rng = ref 0x2545f491 in
  let next () =
    rng := (!rng * 1103515245 + 12345) land 0x3fffffff;
    !rng
  in
  let table = Hashtbl.create 1024 in
  let arr = Array.make (1 lsl 22) 0 in
  let acc = ref 0 in
  for i = 1 to 600_000 do
    let k = next () land 0x3ffff in
    (match Hashtbl.find_opt table k with
    | Some l -> Hashtbl.replace table k (i :: List.filteri (fun j _ -> j < 3) l)
    | None -> Hashtbl.replace table k [ i ]);
    let j = next () land (Array.length arr - 1) in
    arr.(j) <- arr.(j) + i;
    acc := !acc + arr.(next () land (Array.length arr - 1))
  done;
  ignore (Sys.opaque_identity !acc);
  Printf.printf "%.17g\n" (now () -. t0)

(* Host speed.  The shared host's speed moves by 20-30% from minute to
   minute, and a fixed CPU loop moves with it, so every reported time is
   normalized: each measured piece of work runs between two calibrations
   ([main.exe calib], in fresh processes), and its times are scaled by
   [calib_ref_s] over the mean of those two.  A time then reads as if
   the calibration had taken [calib_ref_s]: seconds on a host of fixed
   speed, close to this host's own.  The raw times go to the detailed
   result. *)
let calib_ref_s = 0.4

let calibration () = span "calib" (fun () -> timed_child "calib" [])

(* Run [f] once per element of [xs], with a calibration before the first
   and after each; returns every result with its speed factor. *)
let calibrated f xs =
  let c0 = calibration () in
  let _, rs =
    List.fold_left
      (fun (prev, acc) x ->
        let r = f x in
        let c = calibration () in
        (c, (r, calib_ref_s /. ((prev +. c) /. 2.)) :: acc))
      (c0, []) xs
  in
  List.rev rs

(* Set-ups per run; the reported set-up time is their median.  Each runs
   in a fresh process, like an iteration, so none inherits the heap of
   the one before.  [setups_before] run before the measured window and
   the rest after it, so they see the host at two moments. *)
let setup_reps = 5
let setups_before = 3

(* [main.exe setup]: one batch set-up.  Generate the program (and, for
   emacs, compile and link it) and store the iteration inputs in
   [inputs_file]; print the time it took. *)
let setup_batch a =
  let s = spec a in
  let t0 = now () in
  let es = stream s in
  let sources = Editstream.sources es in
  let pool =
    Array.init edits_per_iter (fun _ ->
        let st = Editstream.next es in
        (st.Editstream.sfile, List.assoc st.Editstream.sfile st.Editstream.ssources))
  in
  let edits = shuffle ~seed:a.seed pool in
  let linked = if s.prepared then Some (compile_link ~mode:s.mode sources) else None in
  Out_channel.with_open_bin inputs_file (fun oc ->
      Marshal.to_channel oc { sources; edits; linked } []);
  Printf.printf "%.17g\n" (now () -. t0)

let iterate a =
  let s = spec a in
  let inp : inputs = In_channel.with_open_bin inputs_file Marshal.from_channel in
  let mode = s.mode in
  Ledger.on := a.trace;
  let t0 = now () in
  let linked, ta, (view, sol) =
    span "pipeline" (fun () ->
        let linked =
          match inp.linked with Some l -> l | None -> compile_link ~mode inp.sources
        in
        let ta = now () in
        (linked, ta, analyze linked))
  in
  let t1 = now () in
  Ledger.on := false;
  let r_linked =
    Digest.to_hex (Digest.string (if injected a "linked" then linked ^ "\000" else linked))
  in
  let r_solution = digest (if injected a "solution" then corrupt sol else sol) in
  let probes = probes sol in
  (* the query sweep: every probe through the library's answer path,
     [lookups_per_query] at a time (tiny test programs have fewer) *)
  let per = max 1 (min lookups_per_query (Array.length probes / 8)) in
  let reqs = requests ~seed:a.seed ~per probes in
  Ledger.on := a.trace;
  let qlat = ref [] and lookups = ref 0 and qfail = ref 0 in
  let tq = now () in
  span "queries" (fun () ->
      Array.iter
        (fun req ->
          let q0 = now () in
          Array.iter
            (fun q ->
              incr lookups;
              if not (answer view sol q) then incr qfail)
            req;
          qlat := ((now () -. q0) *. 1000.) :: !qlat)
        reqs);
  let r_qtime = now () -. tq in
  (* the edit burst: edited units recompiled to object bytes, untraced
     so the compile layers count the pipeline alone *)
  let elat = ref [] and edigests = ref [] in
  span "edits" (fun () ->
      Ledger.on := false;
      for k = 0 to Array.length inp.edits - 1 do
        let e0 = now () in
        let obj = compile_unit ~mode inp.edits.(k) in
        elat := ((now () -. e0) *. 1000.) :: !elat;
        let obj = if injected a "object" then obj ^ "\000" else obj in
        edigests := (k, Digest.to_hex (Digest.string obj)) :: !edigests
      done;
      Ledger.on := a.trace);
  Ledger.on := false;
  let t_end = now () in
  if a.trace then
    Ledger.write
      ~path:(Printf.sprintf "spans-%d.json" a.iter)
      ~workload:a.workload
      ~run_id:(Printf.sprintf "%s-seed%d-iter%d" a.workload a.seed a.iter);
  let r =
    {
      r_e2e = t1 -. t0;
      r_analyze = t1 -. ta;
      r_linked;
      r_solution;
      r_query_ms = !qlat;
      r_lookups = !lookups;
      r_qfail = !qfail;
      r_qtime;
      r_edit_ms = !elat;
      r_edit_digests = !edigests;
      r_rss_mb = peak_rss_mb "self";
      r_layers = Ledger.layers ();
      r_counts = Ledger.count_list ();
      r_uncovered = (if a.trace then Ledger.uncovered ~t0 ~t1:t_end else 0.);
    }
  in
  Marshal.to_channel stdout r [];
  flush stdout

let run_iteration a ~iter ~traced : iter_result =
  let args =
    ("iterate" :: child_args a)
    @ [ "--trace"; (if traced then "1" else "0"); "--iter"; string_of_int iter ]
    @ match a.inject with Some k -> [ "--inject"; k ] | None -> []
  in
  let ic =
    Unix.open_process_args_in Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
  in
  let r = Marshal.from_channel ic in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 -> r
  | _ -> die "iteration %d failed" iter

(* An iteration's times at the reference speed ([k] its speed factor). *)
let normalize k r =
  let ms = List.map (fun x -> k *. x) in
  {
    r with
    r_e2e = k *. r.r_e2e;
    r_analyze = k *. r.r_analyze;
    r_query_ms = ms r.r_query_ms;
    r_qtime = k *. r.r_qtime;
    r_edit_ms = ms r.r_edit_ms;
  }

let run_batch a s =
  let setups n =
    calibrated (fun () -> timed_child "setup" (child_args a)) (List.init n ignore)
    |> List.map (fun (t, k) -> t *. k)
  in
  let setup_before = setups setups_before in
  let { sources; edits; _ } : inputs =
    In_channel.with_open_bin inputs_file Marshal.from_channel
  in
  (* measurement: in traced runs every other iteration is untraced,
     which gives the tracing overhead.  A calibration runs before the
     first iteration and after each. *)
  let results = ref [] and raws = ref [] and raw_e2e = ref [] and factors = ref [] in
  let deadline = now () +. a.seconds in
  let iter = ref 0 in
  let calib = ref (calibration ()) in
  while !iter = 0 || now () < deadline do
    let traced = a.trace && !iter mod 2 = 0 in
    let r = run_iteration a ~iter:!iter ~traced in
    let c = calibration () in
    let k = calib_ref_s /. ((!calib +. c) /. 2.) in
    calib := c;
    raw_e2e := r.r_e2e :: !raw_e2e;
    factors := k :: !factors;
    results := (traced, normalize k r) :: !results;
    raws := r :: !raws;
    incr iter
  done;
  let setup_s = median (setup_before @ setups (setup_reps - setups_before)) in
  let all = List.rev_map snd !results in
  let traced = List.filter_map (fun (t, r) -> if t then Some r else None) !results in
  let untraced = List.filter_map (fun (t, r) -> if t then None else Some r) !results in
  let untraced = if untraced = [] then all else untraced in
  (* answer checks, after the clock *)
  let ref_view = Pipeline.compile_link ~options:(options s) sources in
  let ref_linked = Digest.to_hex (Digest.string ref_view.Objfile.data) in
  let ref_digest =
    match Pins.find a.workload ~tiny:a.tiny with
    | Some d -> d
    | None -> die "no pin for %s" a.workload
  in
  let ref_objs =
    Array.map
      (fun (file, src) ->
        Digest.to_hex
          (Digest.string (Objfile.write (Compilep.compile_string ~options:(options s) ~file src))))
      edits
  in
  let count p l = List.length (List.filter p l) in
  let bad_iters = count (fun r -> r.r_linked <> ref_linked || r.r_solution <> ref_digest) all in
  let edits_done = List.concat_map (fun r -> r.r_edit_digests) all in
  let bad_edits = count (fun (k, d) -> d <> ref_objs.(k)) edits_done in
  let qfail = List.fold_left (fun n r -> n + r.r_qfail) 0 all in
  let lookups = List.fold_left (fun n r -> n + r.r_lookups) 0 all in
  let cat f = List.concat_map f all in
  let qlat = cat (fun r -> r.r_query_ms) and elat = cat (fun r -> r.r_edit_ms) in
  let e2e l = List.map (fun r -> r.r_e2e) l in
  let metrics_of all untraced =
    let cat f = List.concat_map f all in
    let qlat = cat (fun r -> r.r_query_ms) and elat = cat (fun r -> r.r_edit_ms) in
    let qtime = List.fold_left (fun t r -> t +. r.r_qtime) 0. all in
    [
      ("setup_s", setup_s, "s");
      ("e2e_s", median (e2e untraced), "s");
      ("analyze_s", median (List.map (fun r -> r.r_analyze) untraced), "s");
      ("peak_rss_mb", median (List.map (fun r -> r.r_rss_mb) all), "MB");
      ("query_p50_ms", median qlat, "ms");
      ("query_qps", float_of_int (List.length qlat) /. qtime, "1/s");
      ("edit_p50_ms", median elat, "ms");
      ("edit_tail_ms", ms_tail elat, "ms");
    ]
  in
  let metrics = metrics_of all untraced in
  let n_traced = List.length traced in
  let layer =
    if not a.trace then []
    else begin
      List.iter (fun r -> Ledger.absorb r.r_layers r.r_counts) traced;
      let per x = x /. float_of_int (max 1 n_traced) in
      let overhead = median (e2e traced) /. median (e2e untraced) -. 1. in
      layer_metrics ~iters:n_traced
        ~extra:
          ([
             ("pipeline.self_s", (per (Ledger.layer "pipeline").Ledger.self, "s"));
             ("run.uncovered_s", (per (List.fold_left (fun t r -> t +. r.r_uncovered) 0. traced), "s"));
             ("trace.overhead_frac", ((if Float.is_nan overhead then 0. else overhead), "ratio"));
             ("query_tail_ms", (ms_tail qlat, "ms"));
           ]
          @ zero_incr_serve)
    end
  in
  {
    attempted = List.length all + lookups + List.length elat;
    failed = bad_iters + qfail + bad_edits;
    checks_ok = true;
    metrics = (if a.trace then List.map (fun (n, (v, u)) -> (n, v, u)) layer else metrics);
    detail =
      [
        ("iterations", Json.Int (List.length all));
        ("e2e_samples_s", Json.Arr (List.map (fun x -> Json.Float x) (e2e all)));
        ("e2e_raw_samples_s", Json.Arr (List.rev_map (fun x -> Json.Float x) !raw_e2e));
        ("speed_factors", Json.Arr (List.rev_map (fun x -> Json.Float x) !factors));
        ("traced_iterations", Json.Int n_traced);
        ("e2e_traced_median_s", Json.Float (median (e2e traced)));
        ("e2e_untraced_median_s", Json.Float (median (e2e untraced)));
        ("solution_digest", Json.Str ref_digest);
        ("bad_iterations", Json.Int bad_iters);
        ("bad_edits", Json.Int bad_edits);
        ("failed_lookups", Json.Int qfail);
        ("lookups_per_query", Json.Int lookups_per_query);
        tail_detail "query_tail" qlat;
        tail_detail "edit_tail" elat;
        ("untraced_metrics", Json.Obj (List.map (fun (n, v, _) -> (n, Json.Float v)) metrics));
        ( "raw_metrics",
          let raws = List.rev !raws in
          Json.Obj (List.map (fun (n, v, _) -> (n, Json.Float v)) (metrics_of raws raws)) );
      ];
  }

(* ------------------------------------------------------------------ *)
(* vortex_watch: `cla serve --watch` under queries and edits           *)
(* ------------------------------------------------------------------ *)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let socket = "s.sock"

(* vortex_watch runs one edit cycle per [cycle_s] of --seconds: about
   what a cycle, with its share of the calibrations, took on the 2-vCPU
   reference host.  A calibration runs every [cycles_per_calib] cycles. *)
let cycle_s = 0.5
let cycles_per_calib = 5

(* Edits a traced vortex_watch run replays through Incremental. *)
let replayed_edits = 20

(* The identifiers a source text names, as a set. *)
let identifiers text =
  let set = Hashtbl.create 1024 and n = String.length text in
  let ident c = c = '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') in
  let rec go i =
    if i < n then
      if ident text.[i] then begin
        let j = ref i in
        while !j < n && ident text.[!j] do incr j done;
        Hashtbl.replace set (String.sub text i (!j - i)) ();
        go !j
      end
      else go (i + 1)
  in
  go 0;
  set

(* The edit stream at the run's start: the seed sets how many steps in. *)
let stream_at a s =
  let es = stream s in
  for _ = 1 to a.seed mod 4 do
    ignore (Editstream.next es)
  done;
  es

(* [main.exe tree]: the generating half of a vortex_watch set-up.  Write
   the program at the run's start to src/ and print the time it took. *)
let write_tree a =
  let t0 = now () in
  rm_rf "src";
  Sys.mkdir "src" 0o755;
  List.iter
    (fun (f, src) -> write_file (Filename.concat "src" f) src)
    (Editstream.sources (stream_at a (spec a)));
  Printf.printf "%.17g\n" (now () -. t0)

let reply_status line =
  match Json.of_string line with
  | j -> (j, Cla_serve.Protocol.status_of_line line)
  | exception Json.Parse_error _ -> (Json.Null, Cla_serve.Protocol.S_malformed)

let round_trip line =
  match Cla_serve.Client.round_trip ~socket line with
  | Ok r -> Some (reply_status r)
  | Error _ -> None

let spawn_server a =
  let fd = Unix.openfile "serve.log" [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644 in
  let pid =
    Unix.create_process a.cla
      [| a.cla; "serve"; "--watch"; "src"; "--socket"; socket; "--watch-poll-ms"; "600000" |]
      Unix.stdin fd fd
  in
  Unix.close fd;
  (* the socket is bound once the initial compile-link-solve is done *)
  let give_up = now () +. 120. in
  let rec wait () =
    match round_trip {|{"id":0,"op":"ping"}|} with
    | Some (_, Cla_serve.Protocol.S_ok) -> ()
    | _ ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ -> die "cla serve exited during start-up (see %s/serve.log)" a.work);
        if now () > give_up then die "cla serve did not start";
        Unix.sleepf 0.005;
        wait ()
  in
  wait ();
  pid

let stop_server pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] pid)

let json_float key j = Option.bind (Json.member key j) Json.to_float
let json_int key j = Option.bind (Json.member key j) Json.to_int

let points_to_line id n = Json.to_string ~indent:false (Json.Obj [ ("id", Json.Int id); ("op", Json.Str "points-to"); ("var", Json.Str n) ])

let run_watch a s =
  let server = ref None in
  at_exit (fun () -> Option.iter stop_server !server);
  (* Set-up: generate and write the program in a fresh process, then boot
     the server to its first answer; the last boot stays up. *)
  let boot () =
    Option.iter stop_server !server;
    server := None;
    let gen_s = timed_child "tree" (child_args a) in
    let t0 = now () in
    server := Some (spawn_server a);
    gen_s +. (now () -. t0)
  in
  let boots n = calibrated boot (List.init n ignore) |> List.map (fun (t, k) -> t *. k) in
  let setup_before = boots setups_before in
  let pid = Option.get !server in
  let es = stream_at a s in
  let base = Editstream.sources es in
  let base_view = Pipeline.compile_link base in
  let probes = probes (Pipeline.points_to base_view) in
  (* analyze_s: from-scratch loads and solves of the served program,
     each in a fresh process, four between two calibrations; half before
     the measurement and half after, so they see the host at two
     moments *)
  write_file linked_file base_view.Objfile.data;
  let solves groups =
    calibrated (fun () -> List.init 4 (fun _ -> solve_in_child ())) (List.init groups ignore)
    |> List.concat_map (fun (ts, k) -> List.map (fun t -> t *. k) ts)
  in
  let an_before = solves 3 in
  let qs = Array.map (fun r -> r.(0)) (requests ~seed:a.seed ~per:1 probes) in
  (* The traffic: [cycles] rounds of one edit and one sweep of queries.
     An edit writes the next Editstream step's file and sends
     [reanalyze]; the sweep then asks, in the seeded order, about every
     probe the edited file names, as an IDE refreshes the points-to
     annotations of the open file once the analysis has changed.  So
     the query:edit mix is a property of the program (~600 queries per
     vortex file), and the work of a run is fixed by --seconds (see
     [cycle_s]), not by the speed of the code under test.  Edits and
     queries do not overlap: when they did, a query
     arriving during an update waited either one 50 ms runtime-lock
     tick or the whole update, flipping from run to run. *)
  let cycles = max 1 (int_of_float (a.seconds /. cycle_s)) in
  let sweep = Hashtbl.create 16 in
  List.iter
    (fun (f, text) ->
      let names = identifiers text in
      Hashtbl.replace sweep f
        (List.filter (function Pt n | Alias (n, _) -> Hashtbl.mem names n) (Array.to_list qs)))
    base;
  let qlat = ref [] and srv = ref [] and queue = ref [] and transport = ref [] in
  let hits = ref 0 and shed = ref 0 and qfail = ref 0 and n_queries = ref 0 in
  let elat = ref [] and elat_traced = ref [] and efail = ref 0 and e2e = ref [] in
  (* the same round trips, unscaled, since the last calibration *)
  let gq = ref [] and gel = ref [] and gel_traced = ref [] and ge2e = ref [] in
  (* seconds per query of each sweep: a host stall during one sweep then
     moves only that sweep's rate, not the run's *)
  let sweep_s = ref [] and gsweep = ref [] in
  let steps = ref [] in
  let query q =
    incr n_queries;
    let id = !n_queries in
    let line =
      match q with
      | Pt n -> points_to_line id n
      | Alias (n1, n2) ->
          Json.to_string ~indent:false
            (Json.Obj [ ("id", Json.Int id); ("op", Json.Str "alias"); ("var", Json.Str n1); ("var2", Json.Str n2) ])
    in
    let q0 = now () in
    let r = span "query" (fun () -> round_trip line) in
    let rtt = (now () -. q0) *. 1000. in
    gq := rtt :: !gq;
    match r with
    | Some (j, Cla_serve.Protocol.S_ok) ->
        let tel = Option.value ~default:Json.Null (Json.member "server" j) in
        let sms = Option.value ~default:0. (json_float "server_ms" tel) in
        srv := sms :: !srv;
        transport := (rtt -. sms) :: !transport;
        queue := Option.value ~default:0. (json_float "queue_ms" tel) :: !queue;
        if Json.member "cache_hit" tel = Some (Json.Bool true) then incr hits
    | Some (_, Cla_serve.Protocol.S_shed) -> incr shed; incr qfail
    | _ -> incr qfail
  in
  (* in traced runs every other edit is traced, which gives the tracing
     overhead *)
  let edit k =
    let st = Editstream.next es in
    let file = st.Editstream.sfile in
    let text = List.assoc file st.Editstream.ssources in
    steps := (file, text) :: !steps;
    let traced = a.trace && k mod 2 = 1 in
    let go () =
      write_file (Filename.concat "src" file) text;
      round_trip (Printf.sprintf {|{"id":%d,"op":"reanalyze"}|} k)
    in
    let e0 = now () in
    let r = if traced then span "edit" go else go () in
    let dt = (now () -. e0) *. 1000. in
    (* the user's view of an edit: saved file to a fresh answer *)
    let answered = round_trip (points_to_line (200_000 + k) probes.(k mod Array.length probes)) in
    ge2e := (now () -. e0) :: !ge2e;
    let into = if traced then gel_traced else gel in
    into := dt :: !into;
    (match r with
    | Some (j, Cla_serve.Protocol.S_ok) when Option.value ~default:0 (json_int "changed" j) >= 1 -> ()
    | _ -> incr efail);
    (match answered with Some (_, Cla_serve.Protocol.S_ok) -> () | _ -> incr efail);
    file
  in
  (* a calibration every [cycles_per_calib] cycles; [settle] scales the
     round trips since the one before *)
  let calib = ref (calibration ()) in
  let settle () =
    let c = calibration () in
    let k = calib_ref_s /. ((!calib +. c) /. 2.) in
    calib := c;
    List.iter
      (fun (total, group) ->
        total := List.rev_append (List.rev_map (fun x -> x *. k) !group) !total;
        group := [])
      [ (qlat, gq); (elat, gel); (elat_traced, gel_traced); (e2e, ge2e); (sweep_s, gsweep) ]
  in
  Ledger.on := a.trace;
  let t_start = now () in
  for k = 1 to cycles do
    let qs = Hashtbl.find sweep (edit k) in
    let s0 = now () in
    List.iter query qs;
    if qs <> [] then gsweep := ((now () -. s0) /. float_of_int (List.length qs)) :: !gsweep;
    if k mod cycles_per_calib = 0 || k = cycles then settle ()
  done;
  let t_end = now () in
  Ledger.on := false;
  let rss = peak_rss_mb (string_of_int pid) in
  let an = an_before @ solves 2 in
  (* answer checks: served answers against a from-scratch solve of the
     final sources *)
  let final = Editstream.sources es in
  let view = Pipeline.compile_link final in
  let scratch = Pipeline.points_to view in
  let probe_fail = ref 0 in
  Array.iteri
    (fun i n ->
      let want =
        match Objfile.find_targets view n with
        | v :: _ -> List.sort compare (target_names scratch v)
        | [] -> [ "<missing>" ]
      in
      let got =
        match round_trip (points_to_line (100_000 + i) n) with
        | Some (j, Cla_serve.Protocol.S_ok) -> (
            match Json.member "targets" j with
            | Some (Json.Arr l) ->
                List.sort compare (List.filter_map (function Json.Str s -> Some s | _ -> None) l)
            | _ -> [ "<no targets>" ])
        | _ -> [ "<failed>" ]
      in
      let got = if i = 0 && injected a "served" then "<injected>" :: got else got in
      if got <> want then incr probe_fail)
    probes;
  let setup_s = median (setup_before @ boots (setup_reps - setups_before)) in
  Option.iter stop_server !server;
  server := None;
  let nq = List.length !qlat in
  let all_edits = !elat @ !elat_traced in
  let metrics =
    [
      ("setup_s", setup_s, "s");
      ("e2e_s", median !e2e, "s");
      ("analyze_s", median an, "s");
      ("peak_rss_mb", rss, "MB");
      ("query_p50_ms", median !qlat, "ms");
      (* the rate of one sweep, median over the sweeps *)
      ("query_qps", 1. /. median !sweep_s, "1/s");
      ("edit_p50_ms", median all_edits, "ms");
      ("edit_tail_ms", ms_tail all_edits, "ms");
    ]
  in
  let layer =
    if not a.trace then []
    else begin
      (* replay the run's first edits, in order, through Incremental for
         its split *)
      Ledger.on := true;
      let inc, _ = span "incr.create" (fun () -> Incremental.create base) in
      let cur = Hashtbl.create 16 in
      List.iter (fun (f, src) -> Hashtbl.replace cur f src) base;
      let stats =
        List.rev !steps
        |> List.filteri (fun i _ -> i < replayed_edits)
        |> List.map (fun (f, text) ->
               Hashtbl.replace cur f text;
               let srcs = List.map (fun (f, _) -> (f, Hashtbl.find cur f)) base in
               span "incr.update" (fun () -> Incremental.update inc srcs))
      in
      (* and one traced pass of the batch layers over the final sources *)
      ignore (span "pipeline" (fun () -> analyze (compile_link ~mode:s.mode final)));
      Ledger.on := false;
      let avg f = mean (List.map f stats) in
      let sum f = List.fold_left (fun acc x -> acc + f x) 0 stats in
      let ratio a b = if b > 0 then float_of_int a /. float_of_int b else 0. in
      let overhead = median !elat_traced /. median !elat -. 1. in
      layer_metrics ~iters:1
        ~extra:
          [
            ("pipeline.self_s", ((Ledger.layer "pipeline").Ledger.self, "s"));
            ("run.uncovered_s", (Ledger.uncovered ~t0:t_start ~t1:t_end, "s"));
            ("trace.overhead_frac", ((if Float.is_nan overhead then 0. else overhead), "ratio"));
            ("query_tail_ms", (ms_tail !qlat, "ms"));
            ("incr.update_ms", (avg (fun s -> Incremental.(s.wall_compile_s +. s.wall_link_s +. s.wall_solve_s)) *. 1000., "ms"));
            ("incr.probe_ms", (avg (fun s -> s.Incremental.wall_compile_s) *. 1000., "ms"));
            ("incr.relink_ms", (avg (fun s -> s.Incremental.wall_link_s) *. 1000., "ms"));
            ("incr.resume_ms", (avg (fun s -> s.Incremental.wall_solve_s) *. 1000., "ms"));
            ("incr.cache_hit_ratio", (ratio (sum (fun s -> s.Incremental.cache_hits)) (sum (fun s -> s.Incremental.cache_hits + s.Incremental.cache_misses)), "ratio"));
            ("incr.resumed_frac", (ratio (sum (fun s -> if s.Incremental.resumed then 1 else 0)) (List.length stats), "ratio"));
            ("incr.delta_added", (avg (fun s -> float_of_int s.Incremental.delta_added), "count"));
            ("serve.server_ms_p50", (median !srv, "ms"));
            ("serve.server_ms_tail", (ms_tail !srv, "ms"));
            ("serve.queue_ms_p50", (median !queue, "ms"));
            ("serve.transport_ms_p50", (median !transport, "ms"));
            ("serve.cache_hit_ratio", (ratio !hits nq, "ratio"));
            ("serve.shed", (float_of_int !shed, "count"));
          ]
    end
  in
  {
    attempted = nq + cycles + Array.length probes;
    failed = !qfail + !efail + !probe_fail;
    checks_ok = Array.length probes > 0;
    metrics = (if a.trace then List.map (fun (n, (v, u)) -> (n, v, u)) layer else metrics);
    detail =
      [
        ("window_s", Json.Float (t_end -. t_start));
        ("queries", Json.Int nq);
        ("edits", Json.Int cycles);
        ("probes", Json.Int (Array.length probes));
        ("failed_queries", Json.Int !qfail);
        ("failed_edits", Json.Int !efail);
        ("failed_probes", Json.Int !probe_fail);
        ("shed", Json.Int !shed);
        tail_detail "query_tail" !qlat;
        tail_detail "edit_tail" all_edits;
        ("untraced_metrics", Json.Obj (List.map (fun (n, v, _) -> (n, Json.Float v)) metrics));
      ];
  }

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

let run a =
  let s = spec a in
  if not (Sys.file_exists a.work) then Sys.mkdir a.work 0o755;
  let report = Option.map (fun r -> if Filename.is_relative r then Filename.concat (Sys.getcwd ()) r else r) a.report in
  Sys.chdir a.work;
  let o = if a.workload = "vortex_watch" then run_watch a s else run_batch a s in
  let run_id = Printf.sprintf "%s-seed%d-pid%d" a.workload a.seed (Unix.getpid ()) in
  let correct = o.checks_ok && o.failed = 0 in
  let result =
    Json.Obj
      [
        ("correct", Json.Bool correct);
        ("attempted", Json.Int o.attempted);
        ("failed", Json.Int o.failed);
        ( "metrics",
          Json.Obj
            (List.map
               (fun (n, v, u) -> (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ]))
               o.metrics) );
      ]
  in
  Option.iter
    (fun path ->
      if a.trace then begin
        (* one file: this process's spans, then each batch iteration's *)
        Ledger.write ~path:"spans-main.json" ~workload:a.workload ~run_id;
        let parts =
          Sys.readdir "." |> Array.to_list
          |> List.filter (fun f -> String.starts_with ~prefix:"spans-" f)
          |> List.sort compare
          |> List.map (fun f -> In_channel.with_open_bin f In_channel.input_all)
        in
        Out_channel.with_open_bin (Filename.remove_extension path ^ ".spans.json") (fun oc ->
            Printf.fprintf oc "{\"workload\": %S, \"run_id\": %S, \"processes\": [\n%s]}\n"
              a.workload run_id (String.concat ",\n" parts))
      end;
      let layers =
        List.map
          (fun (n, l) ->
            ( n,
              Json.Obj
                [
                  ("busy_s", Json.Float l.Ledger.busy);
                  ("self_s", Json.Float l.Ledger.self);
                  ("alloc_mb", Json.Float (mb l.Ledger.alloc));
                  ("calls", Json.Int l.Ledger.calls);
                ] ))
          (Ledger.layers ())
      in
      Json.write_file path
        (Json.Obj
           ([
              ("workload", Json.Str a.workload);
              ("seed", Json.Int a.seed);
              ("seconds", Json.Float a.seconds);
              ("trace", Json.Bool a.trace);
              ("tiny", Json.Bool a.tiny);
              ("run_id", Json.Str run_id);
              ("failed_frac", Json.Float (float_of_int o.failed /. float_of_int (max 1 o.attempted)));
              ("ocaml_version", Json.Str Sys.ocaml_version);
              ("layers", Json.Obj layers);
              ("result", result);
            ]
           @ o.detail)))
    report;
  (* the result line keeps every digit (Json.to_string rounds to 6) *)
  let num v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null" in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct o.attempted o.failed
    (String.concat ", "
       (List.map
          (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (num v) u)
          o.metrics))

(* The digest pins.ml pins for a batch workload, computed with two
   independent solvers that must agree under Solution.equal. *)
let pin a =
  let s = spec a in
  let view = Pipeline.compile_link ~options:(options s) (Editstream.sources (stream s)) in
  let bv = Pipeline.points_to ~algorithm:Pipeline.Bitvector view in
  let wl = Pipeline.points_to ~algorithm:Pipeline.Worklist view in
  if not (Solution.equal bv wl) then die "bitvector and worklist disagree";
  Printf.printf "    (%S, %b, %S);\n%!" a.workload a.tiny (digest bv)

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: rest -> run (parse_args rest)
  | _ :: "pin" :: rest -> pin (parse_args rest)
  | _ :: "iterate" :: rest -> iterate (parse_args rest)
  | _ :: "setup" :: rest -> setup_batch (parse_args rest)
  | _ :: "tree" :: rest -> write_tree (parse_args rest)
  | [ _; "solve" ] -> solve_once ()
  | [ _; "calib" ] -> calibrate ()
  | _ -> die "usage: main.exe run|pin --workload W ..."
