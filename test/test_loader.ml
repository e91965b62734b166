(* Tests for the demand loader: load-on-demand accounting, the discard
   strategy, re-reads, and the pointer-relevance filter. *)

open Cla_core

let view_of src =
  Objfile.view_of_string (Objfile.write (Compilep.compile_string ~file:"t.c" src))

let test_statics_always_loaded () =
  let v = view_of "int x, *p; void f(void) { p = &x; }" in
  let l = Loader.create v in
  let s = Loader.statics l in
  Alcotest.(check int) "one static" 1 (Array.length s);
  Alcotest.(check int) "counted as loaded" 1 (Loader.stats l).Loader.s_loaded

let test_block_demand () =
  let v = view_of "int a, b, c; void f(void) { b = a; c = b; }" in
  let l = Loader.create v in
  Alcotest.(check int) "nothing loaded yet" 0 (Loader.stats l).Loader.s_loaded;
  (match Objfile.find_targets v "a" with
  | a :: _ ->
      let prims = Loader.block l a in
      Alcotest.(check int) "a's block has one record" 1 (List.length prims)
  | [] -> Alcotest.fail "no a");
  Alcotest.(check int) "one loaded" 1 (Loader.stats l).Loader.s_loaded

let test_reload_counted () =
  let v = view_of "int a, b; void f(void) { b = a; }" in
  let l = Loader.create v in
  match Objfile.find_targets v "a" with
  | a :: _ ->
      ignore (Loader.block l a);
      ignore (Loader.block l a);
      let s = Loader.stats l in
      Alcotest.(check int) "loaded twice" 2 s.Loader.s_loaded;
      Alcotest.(check int) "one reload" 1 s.Loader.s_reloads
  | [] -> Alcotest.fail "no a"

let test_in_file_total () =
  let v = view_of "int x, y, *p; void f(void) { x = y; p = &x; *p = y; }" in
  let l = Loader.create v in
  Alcotest.(check int) "in file" 3 (Loader.stats l).Loader.s_in_file

let test_relevance_filter () =
  Alcotest.(check bool) "plus kept" true (Loader.pointer_relevant_op "+");
  Alcotest.(check bool) "cast kept" true (Loader.pointer_relevant_op "cast");
  Alcotest.(check bool) "shift dropped" false (Loader.pointer_relevant_op ">>");
  Alcotest.(check bool) "mul dropped" false (Loader.pointer_relevant_op "*");
  Alcotest.(check bool) "bang dropped" false (Loader.pointer_relevant_op "!")

let test_analysis_skips_arithmetic () =
  (* y = x * z is irrelevant to aliasing: p's set must not flow through *)
  let v =
    view_of
      "int *p, *q, x; int *r;\n\
       void f(void) { p = &x; q = p; r = (int*)((long)q * 2); }"
  in
  let sol = Pipeline.points_to v in
  (match Solution.find sol "q" with
  | Some q ->
      Alcotest.(check int) "q points to x" 1
        (Lvalset.cardinal (Solution.points_to sol q))
  | None -> Alcotest.fail "no q");
  match Solution.find sol "r" with
  | Some r ->
      Alcotest.(check int) "r gets nothing through *" 0
        (Lvalset.cardinal (Solution.points_to sol r))
  | None -> Alcotest.fail "no r"

let test_demand_loads_less_than_file () =
  (* a variable never involved in pointer flow: its block stays unloaded *)
  let v =
    view_of
      "int x, *p; int dead1, dead2;\n\
       void f(void) { p = &x; dead2 = dead1; dead1 = dead2; }"
  in
  let r = Andersen.solve v in
  let s = r.Andersen.loader_stats in
  Alcotest.(check bool)
    (Fmt.str "loaded %d < in file %d" s.Loader.s_loaded s.Loader.s_in_file)
    true
    (s.Loader.s_loaded < s.Loader.s_in_file)

let test_discard_strategy_counts () =
  (* copies and addrs are discarded; complex assignments are retained *)
  let v =
    view_of
      "int x, y, *p, *q, **pp;\n\
       void f(void) { p = &x; q = p; *q = y; y = *q; pp = &p; }"
  in
  let r = Andersen.solve v in
  let s = r.Andersen.loader_stats in
  (* exactly the store and the load are kept in core *)
  Alcotest.(check int) "in core = complex retained" 2 s.Loader.s_in_core

(* Loading has one path: a database read back from disk, directly or
   through the revalidating cache, answers exactly like the view over
   the same bytes in memory. *)
let test_file_load_matches_view () =
  let db =
    Compilep.compile_string ~file:"t.c"
      "int x, y, *p, *q, **pp;\n\
       void f(void) { p = &x; pp = &q; *pp = p; }\n\
       void g(void) { q = &y; p = q; }"
  in
  let path = Filename.temp_file "cla_loader" ".cla" in
  Objfile.save path db;
  let want = Pipeline.points_to (Objfile.view_of_string (Objfile.write db)) in
  let check what = function
    | Ok v ->
        Alcotest.(check bool) (what ^ ": same solution") true
          (Solution.equal want (Pipeline.points_to v))
    | Error d -> Alcotest.fail (what ^ ": " ^ Diag.to_string d)
  in
  check "load_result" (Objfile.load_result path);
  check "load_file_cached" (Loader.load_file_cached path);
  Sys.remove path

let () =
  Alcotest.run "loader"
    [
      ( "accounting",
        [
          Alcotest.test_case "statics" `Quick test_statics_always_loaded;
          Alcotest.test_case "demand blocks" `Quick test_block_demand;
          Alcotest.test_case "re-reads" `Quick test_reload_counted;
          Alcotest.test_case "in-file total" `Quick test_in_file_total;
          Alcotest.test_case "loaded < in-file" `Quick test_demand_loads_less_than_file;
          Alcotest.test_case "discard strategy" `Quick test_discard_strategy_counts;
          Alcotest.test_case "file load solves like in-memory view" `Quick
            test_file_load_matches_view;
        ] );
      ( "relevance",
        [
          Alcotest.test_case "operator filter" `Quick test_relevance_filter;
          Alcotest.test_case "arithmetic skipped by analysis" `Quick
            test_analysis_skips_arithmetic;
        ] );
    ]
