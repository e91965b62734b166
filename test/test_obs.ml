(* Tests for the observability layer (Cla_obs): span nesting and
   ordering, metrics-registry name uniqueness, JSON export round-trips,
   Pretrans stats invariants, and an end-to-end pipeline smoke test of
   the --stats-json export content. *)

open Cla_core
module Span = Cla_obs.Span
module Metrics = Cla_obs.Metrics
module Json = Cla_obs.Json
module Export = Cla_obs.Export
module Trace = Cla_obs.Trace

(* Every test drives the process-wide recorder; start from a clean
   slate and leave recording off. *)
let fresh () =
  Span.set_enabled false;
  Span.reset ();
  Metrics.reset ()

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  fresh ();
  Span.set_enabled true;
  Span.with_span "outer" (fun () ->
      Span.with_span "first" (fun () -> ignore (Sys.opaque_identity 1));
      Span.with_span "second" ~label:"x" (fun () ->
          Span.with_span "inner" (fun () -> ())));
  Span.set_enabled false;
  match Span.roots () with
  | [ outer ] ->
      Alcotest.(check string) "root name" "outer" outer.Span.name;
      Alcotest.(check (list string))
        "children in execution order" [ "first"; "second" ]
        (List.map (fun s -> s.Span.name) outer.Span.children);
      let second = List.nth outer.Span.children 1 in
      Alcotest.(check (option string)) "label" (Some "x") second.Span.label;
      Alcotest.(check (list string))
        "grandchild" [ "inner" ]
        (List.map (fun s -> s.Span.name) second.Span.children);
      Alcotest.(check bool) "wall time non-negative" true
        (outer.Span.wall_s >= 0.);
      Alcotest.(check bool) "outer at least as long as children" true
        (outer.Span.wall_s
        >= List.fold_left
             (fun a c -> a +. c.Span.wall_s)
             0. outer.Span.children
           -. 1e-6)
  | spans ->
      Alcotest.fail (Fmt.str "expected one root span, got %d" (List.length spans))

let test_span_sibling_order () =
  fresh ();
  Span.set_enabled true;
  List.iter (fun n -> Span.with_span n (fun () -> ())) [ "a"; "b"; "c" ];
  Span.set_enabled false;
  Alcotest.(check (list string))
    "roots in execution order" [ "a"; "b"; "c" ]
    (List.map (fun s -> s.Span.name) (Span.roots ()))

let test_span_disabled_is_noop () =
  fresh ();
  let v = Span.with_span "ghost" (fun () -> 42) in
  Alcotest.(check int) "value passes through" 42 v;
  Alcotest.(check int) "nothing recorded" 0 (List.length (Span.roots ()))

let test_span_survives_exception () =
  fresh ();
  Span.set_enabled true;
  (try Span.with_span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Span.with_span "after" (fun () -> ());
  Span.set_enabled false;
  Alcotest.(check (list string))
    "span closed on exception, recorder still consistent" [ "boom"; "after" ]
    (List.map (fun s -> s.Span.name) (Span.roots ()))

(* ------------------------------------------------------------------ *)
(* Metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_metrics_basics () =
  let reg = Metrics.create () in
  Metrics.set ~reg "a.count" 3;
  Metrics.incr ~reg "a.count";
  Metrics.incr ~reg ~by:2 "a.count";
  Metrics.setf ~reg "a.seconds" 1.5;
  Metrics.set_str ~reg "a.name" "gimp";
  Metrics.observe ~reg "a.series" 1;
  Metrics.observe ~reg "a.series" 2;
  Alcotest.(check (option int)) "incr" (Some 6) (Metrics.get_int ~reg "a.count");
  Alcotest.(check (option (list int)))
    "series order" (Some [ 1; 2 ])
    (Metrics.get_series ~reg "a.series");
  Alcotest.(check (list string))
    "snapshot sorted by name"
    [ "a.count"; "a.name"; "a.seconds"; "a.series" ]
    (List.map fst (Metrics.snapshot ~reg ()))

let test_metrics_name_uniqueness () =
  let reg = Metrics.create () in
  Metrics.set ~reg "x" 1;
  Alcotest.check_raises "rebind int as series"
    (Invalid_argument "Metrics: \"x\" is a int metric, cannot rebind as series")
    (fun () -> Metrics.set_series ~reg "x" [ 1 ]);
  Alcotest.check_raises "observe an int metric"
    (Invalid_argument "Metrics: \"x\" is a int metric, cannot observe")
    (fun () -> Metrics.observe ~reg "x" 1);
  Metrics.setf ~reg "y" 1.0;
  Alcotest.check_raises "incr a float metric"
    (Invalid_argument "Metrics: \"y\" is a float metric, cannot incr")
    (fun () -> Metrics.incr ~reg "y");
  (* same-kind republish overwrites *)
  Metrics.set ~reg "x" 9;
  Alcotest.(check (option int)) "overwrite" (Some 9) (Metrics.get_int ~reg "x")

(* ------------------------------------------------------------------ *)
(* Histograms                                                          *)
(* ------------------------------------------------------------------ *)

module Histo = Cla_obs.Histo

(* Deterministic xorshift so the oracle comparison is reproducible. *)
let xorshift seed =
  let s = ref seed in
  fun () ->
    let x = !s in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = x lxor (x lsl 17) in
    s := x land max_int;
    !s

(* Exact nearest-rank quantile over a sample, mirroring Histo.quantile's
   documented rank choice. *)
let exact_quantile samples q =
  let a = Array.of_list samples in
  Array.sort compare a;
  let n = Array.length a in
  let rank = int_of_float (ceil (q *. float n)) - 1 in
  a.(max 0 (min (n - 1) rank))

let test_histo_bucket_geometry () =
  (* index is monotone and bounds really bracket the value, across the
     unit region, the first octaves, and some large values *)
  let probes =
    [ 0; 1; 31; 32; 33; 63; 64; 100; 1_000; 123_456; 10_000_000;
      1_000_000_000; max_int / 2 ]
  in
  List.iter
    (fun v ->
      let i = Histo.index v in
      let lo, hi = Histo.bounds i in
      Alcotest.(check bool) (Fmt.str "bounds bracket %d" v) true
        (lo <= v && v < hi))
    probes;
  let rec pairs = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) (Fmt.str "index monotone at %d<%d" a b) true
          (Histo.index a <= Histo.index b);
        pairs rest
    | _ -> ()
  in
  pairs probes;
  (* below linear_limit buckets are exact unit buckets *)
  for v = 0 to Histo.linear_limit - 1 do
    Alcotest.(check int) (Fmt.str "unit bucket %d" v) v (Histo.index v)
  done

let test_histo_quantile_oracle () =
  (* the histogram's quantile must land in the same bucket as the exact
     sample quantile — i.e. within relative_error — for a spread of
     distributions the serving path actually produces *)
  let rand = xorshift 0x5eed in
  let distributions =
    [
      ("uniform-small", List.init 500 (fun _ -> rand () mod 31));
      ("uniform-wide", List.init 1000 (fun _ -> rand () mod 5_000_000));
      ( "bimodal",
        List.init 1000 (fun i ->
            if i mod 10 = 0 then 2_000_000 + (rand () mod 50_000)
            else 1_000 + (rand () mod 500)) );
      ("heavy-tail", List.init 800 (fun _ ->
           let r = rand () mod 1000 in
           r * r * 37));
      ("constant", List.init 100 (fun _ -> 777));
    ]
  in
  List.iter
    (fun (name, samples) ->
      let h = Histo.create () in
      List.iter (Histo.record h) samples;
      Alcotest.(check int) (name ^ " count") (List.length samples)
        (Histo.count h);
      Alcotest.(check int) (name ^ " total")
        (List.fold_left ( + ) 0 samples)
        (Histo.total h);
      List.iter
        (fun q ->
          let exact = exact_quantile samples q in
          let est = Histo.quantile h q in
          Alcotest.(check int)
            (Fmt.str "%s p%g same bucket" name (q *. 100.))
            (Histo.index exact) (Histo.index est);
          (* and below the unit region the estimate is literally exact *)
          if exact < Histo.linear_limit then
            Alcotest.(check int)
              (Fmt.str "%s p%g exact below linear_limit" name (q *. 100.))
              exact est)
        [ 0.; 0.5; 0.9; 0.99; 0.999; 1.0 ])
    distributions

let test_histo_min_max_mean () =
  let h = Histo.create () in
  Alcotest.(check int) "empty quantile" 0 (Histo.quantile h 0.5);
  Alcotest.(check int) "empty min" 0 (Histo.min_value h);
  List.iter (Histo.record h) [ 5; 100; 42 ];
  Alcotest.(check int) "min" 5 (Histo.min_value h);
  Alcotest.(check int) "max" 100 (Histo.max_value h);
  Alcotest.(check (float 1e-9)) "mean" 49.0 (Histo.mean h);
  (* quantile estimates are clamped to the observed range *)
  Alcotest.(check bool) "p100 <= max" true (Histo.quantile h 1.0 <= 100);
  Alcotest.(check bool) "p0 >= min" true (Histo.quantile h 0.0 >= 5);
  (* negative values clamp to 0 rather than crash *)
  Histo.record h (-7);
  Alcotest.(check int) "negative clamps to 0" 0 (Histo.min_value h)

let test_histo_merge_laws () =
  let fill seed n spread =
    let rand = xorshift seed in
    let h = Histo.create () in
    for _ = 1 to n do
      Histo.record h (rand () mod spread)
    done;
    h
  in
  let a () = fill 1 300 1_000 in
  let b () = fill 2 500 1_000_000 in
  let c () = fill 3 200 50 in
  (* commutative *)
  Alcotest.(check bool) "merge commutes" true
    (Histo.equal (Histo.merge (a ()) (b ())) (Histo.merge (b ()) (a ())));
  (* associative *)
  Alcotest.(check bool) "merge associates" true
    (Histo.equal
       (Histo.merge (Histo.merge (a ()) (b ())) (c ()))
       (Histo.merge (a ()) (Histo.merge (b ()) (c ()))));
  (* merge_into agrees with merge, and sums counts/totals *)
  let tgt = a () and src = b () in
  let expect = Histo.merge (a ()) (b ()) in
  Histo.merge_into ~into:tgt src;
  Alcotest.(check bool) "merge_into = merge" true (Histo.equal tgt expect);
  Alcotest.(check int) "merged count" 800 (Histo.count tgt);
  Alcotest.(check int) "merged total"
    (Histo.total (a ()) + Histo.total (b ()))
    (Histo.total tgt);
  (* src is untouched by the merge *)
  Alcotest.(check bool) "src unchanged" true (Histo.equal src (b ()))

let test_histo_cross_domain () =
  (* 4 domains hammering one histogram: lock-free recording must lose
     nothing — count and total land exactly *)
  let h = Histo.create () in
  let per_domain = 10_000 in
  let doms =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Histo.record h ((d * per_domain) + i)
            done))
  in
  List.iter Domain.join doms;
  Alcotest.(check int) "no lost counts" (4 * per_domain) (Histo.count h);
  let expect_total =
    let n = 4 * per_domain in
    n * (n + 1) / 2
  in
  Alcotest.(check int) "no lost total" expect_total (Histo.total h);
  Alcotest.(check int) "min survived the races" 1 (Histo.min_value h);
  Alcotest.(check int) "max survived the races" (4 * per_domain)
    (Histo.max_value h)

let test_histo_json_export () =
  let h = Histo.create () in
  List.iter (Histo.record h) (List.init 100 (fun i -> i * 1000));
  let parsed = Json.of_string (Json.to_string (Histo.to_json h)) in
  let geti name = Option.bind (Json.member name parsed) Json.to_int in
  Alcotest.(check (option int)) "count" (Some 100) (geti "count");
  List.iter
    (fun f ->
      Alcotest.(check bool) (f ^ " present") true
        (Json.member f parsed <> None))
    [ "min"; "max"; "mean"; "p50"; "p90"; "p99"; "p999"; "buckets" ];
  (* a Histo-valued metric flows through the registry export too *)
  let reg = Metrics.create () in
  let hm = Metrics.histo ~reg "t.lat" in
  Histo.record hm 12345;
  match Metrics.snapshot ~reg () with
  | [ ("t.lat", Metrics.Histo h') ] ->
      Alcotest.(check int) "registry histo live" 1 (Histo.count h')
  | _ -> Alcotest.fail "histo metric missing from snapshot"

let test_metrics_bounded_series () =
  let reg = Metrics.create () in
  (* capped observation keeps only the newest [cap] points, in order *)
  for i = 1 to 100 do
    Metrics.observe ~reg ~cap:8 "s" i
  done;
  Alcotest.(check (option (list int)))
    "newest 8, oldest first"
    (Some [ 93; 94; 95; 96; 97; 98; 99; 100 ])
    (Metrics.get_series ~reg "s");
  (* uncapped keeps everything, still in order *)
  for i = 1 to 50 do
    Metrics.observe ~reg "u" i
  done;
  Alcotest.(check (option int))
    "uncapped length" (Some 50)
    (Option.map List.length (Metrics.get_series ~reg "u"))

let test_metrics_merge_into () =
  let a = Metrics.create () and b = Metrics.create () in
  Metrics.set ~reg:a "n" 3;
  Metrics.set ~reg:b "n" 4;
  Metrics.setf ~reg:a "f" 1.5;
  Metrics.setf ~reg:b "f" 2.5;
  Metrics.set_str ~reg:a "s" "keep";
  Metrics.set_str ~reg:b "s" "drop";
  Metrics.observe ~reg:a "ser" 1;
  Metrics.observe ~reg:b "ser" 2;
  Metrics.set ~reg:b "only_b" 9;
  let hb = Metrics.histo ~reg:b "h" in
  Histo.record hb 50;
  Metrics.merge_into ~into:a b;
  Alcotest.(check (option int)) "ints add" (Some 7) (Metrics.get_int ~reg:a "n");
  Alcotest.(check (option int)) "absent copies" (Some 9)
    (Metrics.get_int ~reg:a "only_b");
  Alcotest.(check (option (list int)))
    "series concat" (Some [ 1; 2 ])
    (Metrics.get_series ~reg:a "ser");
  (* the merged histogram is a private copy: recording into b's handle
     afterwards must not leak into a's view *)
  Histo.record hb 60;
  match Metrics.get_histo ~reg:a "h" with
  | Some ha -> Alcotest.(check int) "histo copied, not shared" 1 (Histo.count ha)
  | None -> Alcotest.fail "merged histogram missing"

(* ------------------------------------------------------------------ *)
(* JSON round-trips                                                    *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("null", Json.Null);
        ("flag", Json.Bool true);
        ("n", Json.Int (-42));
        ("f", Json.Float 0.125);
        ("s", Json.Str "quote \" backslash \\ newline \n done");
        ("arr", Json.Arr [ Json.Int 1; Json.Str "two"; Json.Arr [] ]);
        ("obj", Json.Obj [ ("k", Json.Obj []) ]);
      ]
  in
  List.iter
    (fun indent ->
      let s = Json.to_string ~indent doc in
      Alcotest.(check bool)
        (Fmt.str "round-trip (indent=%b)" indent)
        true
        (Json.equal doc (Json.of_string s)))
    [ true; false ]

let test_json_number_kinds () =
  (match Json.of_string "[1, 1.0, 2e3]" with
  | Json.Arr [ Json.Int 1; Json.Float 1.0; Json.Float 2000.0 ] -> ()
  | _ -> Alcotest.fail "number parsing kinds");
  (* floats always re-parse as floats *)
  match Json.of_string (Json.to_string (Json.Float 3.0)) with
  | Json.Float 3.0 -> ()
  | _ -> Alcotest.fail "integral float must stay a float"

let test_export_roundtrip () =
  fresh ();
  Span.set_enabled true;
  Span.with_span "phase" (fun () -> Span.with_span "sub" (fun () -> ()));
  Span.set_enabled false;
  Metrics.set "m.count" 7;
  Metrics.set_series "m.series" [ 3; 2; 1 ];
  let parsed = Json.of_string (Json.to_string (Export.to_json ())) in
  let metrics = Option.get (Json.member "metrics" parsed) in
  Alcotest.(check (option int))
    "metric value" (Some 7)
    (Option.bind (Json.member "m.count" metrics) Json.to_int);
  (match Json.member "m.series" metrics with
  | Some (Json.Arr [ Json.Int 3; Json.Int 2; Json.Int 1 ]) -> ()
  | _ -> Alcotest.fail "series exported in order");
  (match Json.member "spans" parsed with
  | Some (Json.Arr [ span ]) -> (
      Alcotest.(check bool)
        "span name" true
        (Json.member "name" span = Some (Json.Str "phase"));
      match Json.member "children" span with
      | Some (Json.Arr [ child ]) ->
          Alcotest.(check bool)
            "child name" true
            (Json.member "name" child = Some (Json.Str "sub"))
      | _ -> Alcotest.fail "child span missing")
  | _ -> Alcotest.fail "spans missing");
  (* the Chrome trace export parses too, one event per span *)
  match Json.member "traceEvents" (Json.of_string (Json.to_string (Trace.to_json (Span.roots ())))) with
  | Some (Json.Arr events) ->
      Alcotest.(check int) "trace events" 2 (List.length events)
  | _ -> Alcotest.fail "traceEvents missing"

(* ------------------------------------------------------------------ *)
(* Pretrans stats invariants                                           *)
(* ------------------------------------------------------------------ *)

let solved_workload () =
  fresh ();
  let view =
    Pipeline.compile_link
      [
        ( "w.c",
          {|
int o1, o2, o3;
int *p, *q, *r, **pp;
void f(void) {
  p = &o1; q = &o2; r = &o3;
  pp = &p; *pp = q; p = *pp;
  q = p; r = q; p = r;  /* a cycle */
}
|}
        );
      ]
  in
  Andersen.solve view

let test_pretrans_invariants () =
  let r = solved_workload () in
  let s = r.Andersen.graph_stats in
  Alcotest.(check bool) "cache_hits <= queries" true
    (s.Pretrans.cache_hits <= s.Pretrans.queries);
  Alcotest.(check bool) "unified <= nodes" true
    (s.Pretrans.unified <= s.Pretrans.nodes);
  Alcotest.(check bool) "visits >= queries - cache_hits" true
    (s.Pretrans.visits >= s.Pretrans.queries - s.Pretrans.cache_hits);
  Alcotest.(check bool) "did some work" true (s.Pretrans.queries > 0)

let test_pretrans_reset_stats () =
  let g = Pretrans.create ~nodes:4 () in
  ignore (Pretrans.add_edge g 0 1);
  ignore (Pretrans.add_edge g 1 2);
  Pretrans.add_base g 2 3;
  ignore (Pretrans.get_lvals g 0);
  ignore (Pretrans.get_lvals g 0);
  let before = Pretrans.stats g in
  Alcotest.(check bool) "queries counted" true (before.Pretrans.queries = 2);
  Alcotest.(check bool) "second query hit the cache" true
    (before.Pretrans.cache_hits = 1);
  Pretrans.reset_stats g;
  let after = Pretrans.stats g in
  Alcotest.(check int) "queries reset" 0 after.Pretrans.queries;
  Alcotest.(check int) "visits reset" 0 after.Pretrans.visits;
  Alcotest.(check int) "cache_hits reset" 0 after.Pretrans.cache_hits;
  Alcotest.(check int) "structure kept: nodes" before.Pretrans.nodes
    after.Pretrans.nodes;
  Alcotest.(check int) "structure kept: edges" before.Pretrans.edges
    after.Pretrans.edges

(* ------------------------------------------------------------------ *)
(* Solution.points_to guard                                            *)
(* ------------------------------------------------------------------ *)

let test_points_to_guards () =
  let r = solved_workload () in
  let sol = r.Andersen.solution in
  Alcotest.check_raises "negative id fails loudly"
    (Invalid_argument "Solution.points_to: negative variable id -1")
    (fun () -> ignore (Solution.points_to sol (-1)));
  Alcotest.(check int) "beyond-table id is empty" 0
    (Lvalset.cardinal (Solution.points_to sol 1_000_000))

(* ------------------------------------------------------------------ *)
(* Pipeline smoke: the --stats-json content contract                   *)
(* ------------------------------------------------------------------ *)

let test_pipeline_stats_export () =
  fresh ();
  Span.set_enabled true;
  let view =
    Pipeline.compile_link
      [
        ("a.c", "int x, *y; int **z;\nvoid main(void) { z = &y; *z = &x; }");
        ("b.c", "extern int *y;\nint *alias;\nvoid g(void) { alias = y; }");
      ]
  in
  let r = Andersen.solve view in
  Span.set_enabled false;
  let parsed = Json.of_string (Json.to_string (Export.to_json ())) in
  let metrics = Option.get (Json.member "metrics" parsed) in
  let metric name = Option.bind (Json.member name metrics) Json.to_int in
  (match metric "analyze.passes" with
  | Some n -> Alcotest.(check bool) "analyze.passes >= 1" true (n >= 1)
  | None -> Alcotest.fail "analyze.passes missing");
  (* the registry mirrors the result's own stats records *)
  let gs = r.Andersen.graph_stats in
  Alcotest.(check (option int))
    "analyze.pretrans.queries matches Pretrans.stats"
    (Some gs.Pretrans.queries)
    (metric "analyze.pretrans.queries");
  Alcotest.(check (option int))
    "analyze.pretrans.cache_hits matches"
    (Some gs.Pretrans.cache_hits)
    (metric "analyze.pretrans.cache_hits");
  let ls = r.Andersen.loader_stats in
  Alcotest.(check (option int))
    "load.blocks.in_core matches Loader.stats"
    (Some ls.Loader.s_in_core)
    (metric "load.blocks.in_core");
  (* per-pass convergence series, one entry per pass *)
  (match Json.member "analyze.pass.edges_added" metrics with
  | Some (Json.Arr entries) ->
      Alcotest.(check int) "one series entry per pass" r.Andersen.passes
        (List.length entries)
  | _ -> Alcotest.fail "analyze.pass.edges_added missing");
  (* per-phase spans: compile and link recorded, analyze with children *)
  let span_names =
    List.map (fun s -> s.Span.name) (Span.roots ())
  in
  Alcotest.(check bool) "compile spans" true (List.mem "compile" span_names);
  (* each unit's compile span splits into the perfbench ledger's layers *)
  (match Span.find "compile" (Span.roots ()) with
  | Some c ->
      Alcotest.(check (list string))
        "compile layer spans" [ "cpp"; "parse"; "normalize"; "encode" ]
        (List.map (fun s -> s.Span.name) c.Span.children)
  | None -> Alcotest.fail "compile span missing");
  Alcotest.(check bool) "link span" true (List.mem "link" span_names);
  match Span.find "analyze" (Span.roots ()) with
  | Some a ->
      Alcotest.(check bool) "analyze has pass children" true
        (List.exists (fun c -> c.Span.name = "analyze.pass") a.Span.children)
  | None -> Alcotest.fail "analyze span missing"

(* An incremental update splits into the spans named after the perfbench
   ledger's incr.*_ms metrics. *)
let test_incremental_update_spans () =
  fresh ();
  let a = "int x, *p;\nvoid f(void) { p = &x; }\n" in
  let b = "extern int *p; int *q;\nvoid g(void) { q = p; }\n" in
  let t, _ = Incremental.create [ ("a.c", a); ("b.c", b) ] in
  Span.set_enabled true;
  ignore
    (Incremental.update t
       [ ("a.c", a); ("b.c", b ^ "int z;\nvoid h(void) { q = &z; }\n") ]);
  Span.set_enabled false;
  match Span.find "incremental.update" (Span.roots ()) with
  | Some u ->
      Alcotest.(check (list string))
        "update layer spans" [ "incr.probe"; "incr.relink"; "incr.resume" ]
        (List.map (fun s -> s.Span.name) u.Span.children);
      (* the relink's number/emit is its own span, apart from diff/patch *)
      Alcotest.(check bool) "link.encode inside incr.relink" true
        (match Span.find "incr.relink" u.Span.children with
        | Some r -> Span.find "link.encode" r.Span.children <> None
        | None -> false)
  | None -> Alcotest.fail "incremental.update span missing"

(* A pure-add resume keeps its reachability memos through extraction:
   the sweep recomputes only what the edit reached, far fewer answers
   than the view has variables. *)
let test_resume_extract_metrics () =
  fresh ();
  let profile = Cla_workload.Profile.scaled 0.1 Cla_workload.Profile.vortex in
  let es = Cla_workload.Editstream.create ~seed:5L ~p_remove:0.0 profile in
  let t, _ = Incremental.create (Cla_workload.Editstream.sources es) in
  Metrics.reset ();
  let step = Cla_workload.Editstream.next es in
  let s = Incremental.update t step.Cla_workload.Editstream.ssources in
  Alcotest.(check bool) "resumed" true s.Incremental.resumed;
  let nvars = Objfile.n_vars (Incremental.view t) in
  let r = Incremental.result t in
  (match Metrics.get_int "analyze.extract.recomputed" with
  | Some n ->
      Alcotest.(check int) "metric mirrors the result" r.Andersen.extract_recomputed n;
      Alcotest.(check bool)
        (Fmt.str "recomputed %d < %d variables" n nvars)
        true (n < nvars)
  | None -> Alcotest.fail "analyze.extract.recomputed missing");
  Alcotest.(check (option int)) "analyze.passes counts this resume's passes"
    (Some r.Andersen.passes) (Metrics.get_int "analyze.passes");
  Alcotest.(check bool) "pretrans.delta.invalidated published" true
    (Metrics.get_int "pretrans.delta.invalidated" <> None)

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting" `Quick test_span_nesting;
          Alcotest.test_case "sibling order" `Quick test_span_sibling_order;
          Alcotest.test_case "disabled no-op" `Quick test_span_disabled_is_noop;
          Alcotest.test_case "exception safety" `Quick test_span_survives_exception;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "basics" `Quick test_metrics_basics;
          Alcotest.test_case "name uniqueness" `Quick test_metrics_name_uniqueness;
          Alcotest.test_case "bounded series" `Quick test_metrics_bounded_series;
          Alcotest.test_case "merge_into" `Quick test_metrics_merge_into;
        ] );
      ( "histo",
        [
          Alcotest.test_case "bucket geometry" `Quick test_histo_bucket_geometry;
          Alcotest.test_case "quantile vs oracle" `Quick
            test_histo_quantile_oracle;
          Alcotest.test_case "min/max/mean" `Quick test_histo_min_max_mean;
          Alcotest.test_case "merge laws" `Quick test_histo_merge_laws;
          Alcotest.test_case "cross-domain recording" `Quick
            test_histo_cross_domain;
          Alcotest.test_case "json export" `Quick test_histo_json_export;
        ] );
      ( "json",
        [
          Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "number kinds" `Quick test_json_number_kinds;
          Alcotest.test_case "export round-trip" `Quick test_export_roundtrip;
        ] );
      ( "pretrans stats",
        [
          Alcotest.test_case "invariants" `Quick test_pretrans_invariants;
          Alcotest.test_case "reset_stats" `Quick test_pretrans_reset_stats;
        ] );
      ( "solution",
        [ Alcotest.test_case "points_to guards" `Quick test_points_to_guards ] );
      ( "pipeline",
        [
          Alcotest.test_case "stats export content" `Quick
            test_pipeline_stats_export;
          Alcotest.test_case "incremental update spans" `Quick
            test_incremental_update_spans;
          Alcotest.test_case "resume extraction metrics" `Quick
            test_resume_extract_metrics;
        ] );
    ]
