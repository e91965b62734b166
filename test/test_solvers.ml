(* Tests for the points-to solvers: expected sets on hand-written programs,
   the pre-transitive engine's cycle elimination and caching, ablation
   configurations, and the baselines. *)

open Cla_core

let view_of src =
  Objfile.view_of_string (Objfile.write (Compilep.compile_string ~file:"t.c" src))

let pts_of sol name =
  match Solution.find sol name with
  | Some v ->
      List.map (Solution.var_name sol) (Lvalset.to_list (Solution.points_to sol v))
      |> List.sort compare
  | None -> Alcotest.fail ("no variable " ^ name)

let check_pts ?(algorithm = Pipeline.Pretransitive) name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let sol = Pipeline.points_to ~algorithm (view_of src) in
      List.iter
        (fun (var, want) ->
          Alcotest.(check (list string)) var (List.sort compare want) (pts_of sol var))
        expected)

(* ------------------------------------------------------------------ *)
(* Figure 3 and basic flows, on every solver                           *)
(* ------------------------------------------------------------------ *)

let fig3 = "int x, *y; int **z;\nvoid main(void) { z = &y; *z = &x; }"

let basic_for algorithm label =
  [
    check_pts ~algorithm (label ^ ": figure 3") fig3
      [ ("y", [ "x" ]); ("z", [ "y" ]) ];
    check_pts ~algorithm (label ^ ": copy chain")
      "int x, *a, *b, *c;\nvoid f(void) { a = &x; b = a; c = b; }"
      [ ("a", [ "x" ]); ("b", [ "x" ]); ("c", [ "x" ]) ];
    check_pts ~algorithm (label ^ ": load")
      "int x, *p, **pp, *q;\nvoid f(void) { p = &x; pp = &p; q = *pp; }"
      [ ("q", [ "x" ]) ];
    check_pts ~algorithm (label ^ ": store")
      "int x, *p, **pp, *q;\nvoid f(void) { pp = &q; *pp = &x; }"
      [ ("q", [ "x" ]) ];
    check_pts ~algorithm (label ^ ": deref2")
      "int a, *pa, *pb, **ppa, **ppb;\n\
       void f(void) { pa = &a; ppa = &pa; ppb = &pb; *ppb = *ppa; }"
      [ ("pb", [ "a" ]) ];
  ]

(* ------------------------------------------------------------------ *)
(* Pre-transitive engine specifics                                     *)
(* ------------------------------------------------------------------ *)

let test_cycle_unified () =
  let src =
    "int x, *a, *b, *c;\nvoid f(void) { a = b; b = c; c = a; a = &x; }"
  in
  let r = Andersen.solve (view_of src) in
  let sol = r.Andersen.solution in
  List.iter
    (fun v -> Alcotest.(check (list string)) v [ "x" ] (pts_of sol v))
    [ "a"; "b"; "c" ];
  Alcotest.(check bool) "nodes were unified" true
    (r.Andersen.graph_stats.Pretrans.unified >= 2)

let test_self_loop () =
  let src = "int x, *a;\nvoid f(void) { a = a; a = &x; }" in
  let sol = Pipeline.points_to (view_of src) in
  Alcotest.(check (list string)) "self loop harmless" [ "x" ] (pts_of sol "a")

let test_ablation_configs_same_result () =
  let src =
    "int x, y, *a, *b, *c, **pp;\n\
     void f(void) { a = b; b = c; c = a; a = &x; b = &y; pp = &a; *pp = c; }"
  in
  let v = view_of src in
  let base = (Andersen.solve v).Andersen.solution in
  List.iter
    (fun config ->
      let r = Andersen.solve ~config v in
      Alcotest.(check bool)
        (Fmt.str "cache=%b cycle=%b agrees" config.Pretrans.cache
           config.Pretrans.cycle_elim)
        true
        (Solution.equal base r.Andersen.solution))
    [
      { Pretrans.cache = false; cycle_elim = true };
      { Pretrans.cache = true; cycle_elim = false };
      { Pretrans.cache = false; cycle_elim = false };
    ]

let test_no_demand_same_result () =
  let src =
    "int x, *p, *q; int **pp;\nvoid f(void) { p = &x; pp = &p; q = *pp; }"
  in
  let v = view_of src in
  let a = (Andersen.solve ~demand:true v).Andersen.solution in
  let b = (Andersen.solve ~demand:false v).Andersen.solution in
  Alcotest.(check bool) "demand and full load agree" true (Solution.equal a b)

let test_getlvals_cache () =
  let g = Pretrans.create ~nodes:4 () in
  Pretrans.add_base g 0 3;
  ignore (Pretrans.add_edge g 1 0);
  Pretrans.new_pass g;
  ignore (Pretrans.get_lvals g 1);
  ignore (Pretrans.get_lvals g 1);
  let s = Pretrans.stats g in
  Alcotest.(check int) "second query hits cache" 1 s.Pretrans.cache_hits;
  (* a new pass flushes the cache *)
  Pretrans.new_pass g;
  ignore (Pretrans.get_lvals g 1);
  let s' = Pretrans.stats g in
  Alcotest.(check int) "no extra hit after flush" 1 s'.Pretrans.cache_hits

let test_pretrans_edges_dedup () =
  let g = Pretrans.create ~nodes:3 () in
  Alcotest.(check bool) "first add" true (Pretrans.add_edge g 0 1);
  Alcotest.(check bool) "duplicate" false (Pretrans.add_edge g 0 1);
  Alcotest.(check bool) "self edge" false (Pretrans.add_edge g 2 2);
  Alcotest.(check int) "one edge" 1 (Pretrans.stats g).Pretrans.edges

let test_pretrans_unification_dedup () =
  let g = Pretrans.create ~nodes:4 () in
  (* 0 <-> 1 cycle, both pointing at 2 *)
  ignore (Pretrans.add_edge g 0 1);
  ignore (Pretrans.add_edge g 1 0);
  ignore (Pretrans.add_edge g 0 2);
  ignore (Pretrans.add_edge g 1 2);
  Pretrans.add_base g 2 3;
  Pretrans.new_pass g;
  let s = Pretrans.get_lvals g 0 in
  Alcotest.(check (list int)) "reaches base" [ 3 ] (Lvalset.to_list s);
  Alcotest.(check int) "cycle unified" 1 (Pretrans.stats g).Pretrans.unified;
  (* after unification, adding the merged edge again must be a no-op *)
  Alcotest.(check bool) "edge between unified nodes" false (Pretrans.add_edge g 0 1)

let test_indirect_call_resolution () =
  let src =
    "int g1, g2;\n\
     int f(int *p) { return *p; }\n\
     int h(int *p) { return *p; }\n\
     int (*fp)(int *);\n\
     void main(int c) { fp = f; if (c) fp = h; (*fp)(&g1); }"
  in
  let sol = Pipeline.points_to (view_of src) in
  Alcotest.(check (list string)) "fp resolves" [ "f"; "h" ] (pts_of sol "fp")

(* An indirect call binds min(actuals, parameters) arguments and the
   return only when both sides have one: extra actuals, missing
   actuals and a void callee's "result" bind nothing. *)
let test_indirect_arity_mismatch () =
  let src =
    "int a, b, c;\n\
     int *r1, *r2, *r3;\n\
     int *one(int *x) { return x; }\n\
     int *two(int *x, int *y) { return y; }\n\
     void none(int *x) { }\n\
     int *(*fp1)(); int *(*fp2)(); int *(*fp3)();\n\
     void m(void) {\n\
     \  fp1 = one; r1 = fp1(&a, &b);\n\
     \  fp2 = two; r2 = fp2(&c);\n\
     \  fp3 = none; r3 = fp3(&b);\n\
     }"
  in
  let v = view_of src in
  let solve algorithm = Pipeline.points_to ~algorithm v in
  let pre = solve Pipeline.Pretransitive in
  (* the standardized [f@i]/[f@ret] variables are temporaries, which the
     target section does not index *)
  let var_id name =
    match
      List.find_opt
        (fun i -> v.Objfile.rvars.(i).Objfile.vname = name)
        (List.init (Objfile.n_vars v) Fun.id)
    with
    | Some i -> i
    | None -> Alcotest.fail ("no variable " ^ name)
  in
  List.iter
    (fun (var, want) ->
      Alcotest.(check (list string)) var want
        (List.map (Solution.var_name pre)
           (Lvalset.to_list (Solution.points_to pre (var_id var)))))
    [
      ("one@1", [ "a" ]); ("r1", [ "a" ]);
      ("two@1", [ "c" ]); ("two@2", []); ("r2", []);
      ("none@1", [ "b" ]); ("r3", []);
    ];
  List.iter
    (fun (label, algorithm) ->
      Alcotest.(check bool) (label ^ " equals pretransitive") true
        (Solution.equal pre (solve algorithm)))
    [ ("worklist", Pipeline.Worklist); ("bitvector", Pipeline.Bitvector) ];
  let steens = solve Pipeline.Steensgaard in
  for var = 0 to Objfile.n_vars v - 1 do
    Lvalset.iter
      (fun z ->
        if not (Lvalset.mem z (Solution.points_to steens var)) then
          Alcotest.failf "steensgaard misses %s -> %s" (Solution.var_name pre var)
            (Solution.var_name pre z))
      (Solution.points_to pre var)
  done

let test_fresh_nodes_grow () =
  let g = Pretrans.create ~nodes:2 () in
  let ids = List.init 100 (fun _ -> Pretrans.fresh_node g) in
  Alcotest.(check int) "node count" 102 (Pretrans.n_nodes g);
  Alcotest.(check bool) "ids distinct" true
    (List.length (List.sort_uniq compare ids) = 100)

(* Adjacency lists are allocated on a node's first push; every other
   node shares one empty list.  Touch some nodes — including a fresh
   node past the initial capacity and nodes unified into a cycle's
   representative, then extended through their old ids — and check
   every node against a reachability model: untouched nodes stay empty
   and no node sees another's edges or base elements. *)
let test_shared_empty_adjacency () =
  let g = Pretrans.create ~nodes:16 () in
  let fresh = List.init 20 (fun _ -> Pretrans.fresh_node g) in
  let far = List.nth fresh 19 in
  let edges = ref [] and bases = ref [] in
  let edge a b =
    edges := (a, b) :: !edges;
    ignore (Pretrans.add_edge g a b)
  in
  let base x z =
    bases := (x, z) :: !bases;
    Pretrans.add_base g x z
  in
  (* a cycle 1 -> 2 -> 3 -> 1 hanging off 0, and a chain through [far] *)
  edge 0 1;
  edge 1 2;
  edge 2 3;
  edge 3 1;
  edge 3 4;
  base 4 100;
  edge 5 far;
  base far 101;
  edge far 6;
  base 6 102;
  Pretrans.new_pass g;
  ignore (Pretrans.get_lvals g 0);
  Alcotest.(check bool) "the cycle was unified" true
    ((Pretrans.stats g).Pretrans.unified >= 2);
  (* extend the unified nodes through their old ids *)
  edge 2 7;
  base 7 103;
  base 3 104;
  Pretrans.enable_pred_tracking g;
  edge 8 far;
  let model n =
    let seen = Hashtbl.create 16 in
    let rec go n =
      if not (Hashtbl.mem seen n) then begin
        Hashtbl.add seen n ();
        List.iter (fun (a, b) -> if a = n then go b) !edges
      end
    in
    go n;
    List.filter (fun (x, _) -> Hashtbl.mem seen x) !bases
    |> List.map snd |> List.sort_uniq compare
  in
  Pretrans.new_pass g;
  for n = 0 to Pretrans.n_nodes g - 1 do
    Alcotest.(check (list int))
      (Fmt.str "node %d" n) (model n)
      (Lvalset.to_list (Pretrans.get_lvals g n))
  done;
  Alcotest.(check (list int)) "an untouched fresh node is empty" []
    (Lvalset.to_list (Pretrans.get_lvals g (List.nth fresh 3)));
  (* predecessor lists start shared too: 5 and 8 reach [far] *)
  Alcotest.(check int) "invalidation reaches exactly far's ancestors" 3
    (Pretrans.invalidate_reaching g [ far ])

(* The same, end to end: a program with more variables than the graph's
   initial capacity, dereference nodes allocated past it, a unified copy
   cycle and variables that are never assigned.  Every answer equals
   the worklist solver's, and the untouched variables point nowhere. *)
let test_shared_empty_adjacency_program () =
  let unused = List.init 20 (Fmt.str "u%d") in
  let src =
    Fmt.str
      "int a, b, c, %s;
       int *p, *q, *r, *s, *lonely, **pp, **qq;
       void f(void) {
      \  p = &a; q = p; r = q; p = r;
      \  s = &b; pp = &p; *pp = s;
      \  qq = pp; r = *qq; q = &c;
       }
"
      (String.concat ", " unused)
  in
  let v = view_of src in
  let pre = Pipeline.points_to v in
  Alcotest.(check bool) "pretransitive = worklist" true
    (Solution.equal pre (Worklist.solve v));
  List.iter
    (fun name -> Alcotest.(check (list string)) name [] (pts_of pre name))
    ("lonely" :: unused);
  Alcotest.(check (list string)) "p" [ "a"; "b"; "c" ] (pts_of pre "p")

(* On the sparse/dense/cyclic Genir shapes: the sharing pool's
   canonicality invariant — every pool miss builds exactly one canonical
   set, stored as either a small sorted array or a dense bitmap — and
   the bit-vector oracle's agreement with the pre-transitive solve. *)
let test_shaped_views () =
  List.iter
    (fun sh ->
      let name = Cla_workload.Genir.shape_name sh in
      let view = Cla_workload.Genir.shaped ~scale:0.3 sh 11L in
      let r = Andersen.solve ~demand:false view in
      let s = r.Andersen.graph_stats in
      Alcotest.(check int)
        (name ^ ": pool misses = small + dense sets")
        s.Pretrans.pool_misses
        (s.Pretrans.pool_small + s.Pretrans.pool_dense);
      Alcotest.(check bool)
        (name ^ ": bitvector = pretransitive")
        true
        (Solution.equal r.Andersen.solution (Bitsolver.solve view)))
    Cla_workload.Genir.all_shapes

(* ------------------------------------------------------------------ *)
(* Lvalset                                                             *)
(* ------------------------------------------------------------------ *)

let test_lvalset_sharing () =
  let pool = Lvalset.create_pool () in
  let a = Lvalset.of_list pool [ 3; 1; 2; 1 ] in
  let b = Lvalset.of_list pool [ 1; 2; 3 ] in
  Alcotest.(check bool) "physically shared" true (a == b);
  Alcotest.(check (list int)) "sorted dedup" [ 1; 2; 3 ] (Lvalset.to_list a)

let test_lvalset_union () =
  let pool = Lvalset.create_pool () in
  let a = Lvalset.of_list pool [ 1; 3 ] in
  let b = Lvalset.of_list pool [ 2; 3; 4 ] in
  let u = Lvalset.union pool a b in
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Lvalset.to_list u);
  (* subset unions return the argument itself *)
  Alcotest.(check bool) "a ∪ u == u" true (Lvalset.union pool a u == u);
  Alcotest.(check bool) "u ∪ a == u" true (Lvalset.union pool u a == u);
  Alcotest.(check bool) "empty left" true (Lvalset.union pool Lvalset.empty a == a)

let test_lvalset_mem () =
  let pool = Lvalset.create_pool () in
  let s = Lvalset.of_list pool [ 2; 4; 6; 8 ] in
  Alcotest.(check bool) "mem 4" true (Lvalset.mem 4 s);
  Alcotest.(check bool) "mem 5" false (Lvalset.mem 5 s);
  Alcotest.(check bool) "mem empty" false (Lvalset.mem 1 Lvalset.empty)

let test_lvalset_iter_diff () =
  let pool = Lvalset.create_pool () in
  let prev = Lvalset.of_list pool [ 1; 3; 5 ] in
  let cur = Lvalset.of_list pool [ 1; 2; 3; 4; 5; 6 ] in
  let acc = ref [] in
  Lvalset.iter_diff ~prev cur (fun x -> acc := x :: !acc);
  Alcotest.(check (list int)) "delta" [ 2; 4; 6 ] (List.rev !acc)

let qcheck_iter_diff =
  QCheck.Test.make ~count:200 ~name:"iter_diff = set difference"
    QCheck.(pair (list (int_bound 50)) (list (int_bound 50)))
    (fun (a, b) ->
      let pool = Lvalset.create_pool () in
      let prev = Lvalset.of_list pool a in
      let cur = Lvalset.union pool prev (Lvalset.of_list pool b) in
      let got = ref [] in
      Lvalset.iter_diff ~prev cur (fun x -> got := x :: !got);
      let expect =
        List.filter (fun x -> not (Lvalset.mem x prev)) (Lvalset.to_list cur)
      in
      List.rev !got = expect)

(* ------------------------------------------------------------------ *)
(* Edgeset                                                             *)
(* ------------------------------------------------------------------ *)

let tier_name = function
  | Edgeset.Inline -> "inline"
  | Edgeset.Table -> "table"
  | Edgeset.Bitmap -> "bitmap"

let check_tier what want s a =
  Alcotest.(check string) what (tier_name want) (tier_name (Edgeset.tier s a))

(* One node walked through every tier: 3 inline targets, a table from the
   4th, a bitmap over ids up to ~100K once that is no larger than the
   table (at 513 targets); then a target past the bitmap, sources past
   the first chunk of 4096, and [clear]. *)
let test_edgeset_tiers () =
  let s = Edgeset.create () in
  let target i = (i + 1) * 40_009 mod 100_003 in
  let add_new i =
    if not (Edgeset.add s 0 (target i)) then
      Alcotest.failf "target %d reported present" (target i)
  in
  for i = 0 to 2 do add_new i done;
  check_tier "3 targets" Edgeset.Inline s 0;
  add_new 3;
  check_tier "4 targets" Edgeset.Table s 0;
  for i = 4 to 511 do add_new i done;
  check_tier "512 targets" Edgeset.Table s 0;
  add_new 512;
  check_tier "513 targets" Edgeset.Bitmap s 0;
  for i = 513 to 2999 do add_new i done;
  Alcotest.(check int) "cardinal" 3000 (Edgeset.cardinal s 0);
  for i = 0 to 2999 do
    if Edgeset.add s 0 (target i) then Alcotest.failf "duplicate %d added" i
  done;
  Alcotest.(check bool) "absent" false (Edgeset.mem s 0 (target 3000));
  Alcotest.(check bool) "beyond the bitmap" true (Edgeset.add s 0 5_000_000);
  Alcotest.(check bool) "beyond, again" false (Edgeset.add s 0 5_000_000);
  Alcotest.(check bool) "old member kept" true (Edgeset.mem s 0 (target 7));
  (* with a small id range a set goes from inline straight to a bitmap *)
  let small = Edgeset.create () in
  for b = 0 to 7 do ignore (Edgeset.add small 1 b) done;
  check_tier "small ids" Edgeset.Bitmap small 1;
  Alcotest.(check bool) "small ids: member" true (Edgeset.mem small 1 7);
  Alcotest.(check bool) "small ids: absent" false (Edgeset.mem small 1 8);
  for b = 0 to 7 do ignore (Edgeset.add s 1 b) done;
  check_tier "small ids beside large ones" Edgeset.Table s 1;
  Alcotest.(check bool) "unseen source" false (Edgeset.mem s 10_000 9);
  Alcotest.(check bool) "source in a later chunk" true (Edgeset.add s 10_000 9);
  Alcotest.(check int) "sources between have no targets" 0 (Edgeset.cardinal s 5000);
  Alcotest.(check bool) "sets kept across growth" true (Edgeset.mem s 0 5_000_000);
  Alcotest.(check bool) "table kept across growth" true (Edgeset.mem s 1 7);
  Edgeset.clear s 0;
  Alcotest.(check int) "cleared" 0 (Edgeset.cardinal s 0);
  check_tier "cleared" Edgeset.Inline s 0;
  Alcotest.(check bool) "re-add after clear" true (Edgeset.add s 0 (target 7));
  (* ids up to 2^30 keep a set of 40K targets in a table, past the
     largest arena block; [clear] frees it for the next big table *)
  let wide = Edgeset.create () in
  let far i = (i * 26_843_543) land ((1 lsl 30) - 1) in
  for round = 1 to 2 do
    for i = 0 to 39_999 do
      if not (Edgeset.add wide 0 (far i)) then
        Alcotest.failf "round %d: far target %d reported present" round i
    done;
    check_tier "40K wide targets" Edgeset.Table wide 0;
    Alcotest.(check int) "40K wide targets" 40_000 (Edgeset.cardinal wide 0);
    for i = 0 to 39_999 do
      if Edgeset.add wide 0 (far i) then Alcotest.failf "far duplicate %d" i
    done;
    Edgeset.clear wide 0
  done

(* Random add/clear streams against a [Hashtbl] of pairs.  Sources 0-3
   share a chunk and source 4 sits 5000 ids on, in the next, as
   [fresh_node] and a resumed solve grow the graph after its sets exist.
   A case draws its
   targets from one id range, so the cases cross every tier: small ids
   go from inline straight to a bitmap, medium ones through a table to
   a bitmap, wide ones stay in tables; in some small-id cases a rare far
   id makes the bitmaps that see it grow. *)
let qcheck_edgeset =
  QCheck.Test.make ~count:300 ~name:"edgeset agrees with a set of pairs"
    QCheck.(
      triple (int_bound 2) (int_bound 3)
        (list_of_size Gen.(int_range 0 800)
           (triple (int_bound 40) (int_bound 4) (int_bound 100_000))))
    (fun (k, range, ops) ->
      let inline = [| 1; 2; 3 |].(k) in
      let far = range = 3 in
      let range = [| 97; 5000; 100_000; 97 |].(range) in
      let s = Edgeset.create ~inline () in
      let model = Hashtbl.create 64 in
      let ok = ref true in
      List.iter
        (fun (code, a, b) ->
          let a = if a = 4 then 5004 else a in
          if code = 0 then begin
            Edgeset.clear s a;
            Hashtbl.filter_map_inplace
              (fun (a', _) () -> if a' = a then None else Some ())
              model
          end
          else begin
            let b = if far && code = 40 then 1_000_000 + b else b mod range in
            let fresh = not (Hashtbl.mem model (a, b)) in
            Hashtbl.replace model (a, b) ();
            if Edgeset.add s a b <> fresh then ok := false
          end)
        ops;
      Hashtbl.iter (fun (a, b) () -> if not (Edgeset.mem s a b) then ok := false) model;
      List.iter (fun a ->
        let n = Hashtbl.fold (fun (a', _) () n -> if a' = a then n + 1 else n) model 0 in
        if Edgeset.cardinal s a <> n then ok := false;
        List.iter
          (fun b -> if Edgeset.mem s a b <> Hashtbl.mem model (a, b) then ok := false)
          [ 0; 1; 96; 4999; 99_999; 1_000_000; 1 lsl 40 ])
        [ 0; 1; 2; 3; 5; 5004; 5005 ];
      !ok)

(* Per-pass counters and final edge counts of three fixed solves (a
   dense and a cyclic Genir shape, FI emacs).  Which pairs edge dedup
   admits decides every one of them, so a change to its semantics fails
   here even when the answers still agree. *)
let test_counters_pinned () =
  let check label view ~edges ~passes =
    let r = Andersen.solve view in
    Alcotest.(check int) (label ^ ": edges") edges r.Andersen.graph_stats.Pretrans.edges;
    Alcotest.(check (list (list int)))
      (label ^ ": per pass (edges added, unified, queries, lvals)")
      passes
      (List.map
         (fun p ->
           Andersen.[ p.ps_edges_added; p.ps_unified; p.ps_queries; p.ps_lvals_discovered ])
         r.Andersen.pass_log)
  in
  let module W = Cla_workload in
  check "dense" (W.Genir.shaped ~scale:1.0 W.Genir.Dense 42L) ~edges:2746
    ~passes:[ [ 1848; 0; 16; 2112 ]; [ 0; 0; 16; 0 ] ];
  check "cyclic" (W.Genir.shaped ~scale:0.25 W.Genir.Cyclic 42L) ~edges:120
    ~passes:[ [ 63; 47; 4; 20 ]; [ 5; 7; 4; 0 ] ];
  let options =
    { Compilep.default_options with mode = Cla_cfront.Normalize.Field_independent }
  in
  let src = W.Genc.generate (W.Profile.scaled 0.1 (Option.get (W.Profile.find "emacs"))) in
  check "emacs 0.1, field-independent" (Pipeline.compile_link ~options src)
    ~edges:15060
    ~passes:[ [ 11323; 154; 159; 15225 ]; [ 2367; 4; 180; 2379 ]; [ 0; 0; 180; 0 ] ]

let () =
  Alcotest.run "solvers"
    [
      ("pretransitive", basic_for Pipeline.Pretransitive "pre");
      ("worklist", basic_for Pipeline.Worklist "wl");
      ("bitvector", basic_for Pipeline.Bitvector "bv");
      ( "engine",
        [
          Alcotest.test_case "cycle unification" `Quick test_cycle_unified;
          Alcotest.test_case "self loops" `Quick test_self_loop;
          Alcotest.test_case "ablations agree" `Quick test_ablation_configs_same_result;
          Alcotest.test_case "demand vs full load" `Quick test_no_demand_same_result;
          Alcotest.test_case "reachability cache" `Quick test_getlvals_cache;
          Alcotest.test_case "edge dedup" `Quick test_pretrans_edges_dedup;
          Alcotest.test_case "unification dedup" `Quick test_pretrans_unification_dedup;
          Alcotest.test_case "indirect calls" `Quick test_indirect_call_resolution;
          Alcotest.test_case "indirect call arity mismatch" `Quick
            test_indirect_arity_mismatch;
          Alcotest.test_case "node growth" `Quick test_fresh_nodes_grow;
          Alcotest.test_case "shared empty adjacency" `Quick
            test_shared_empty_adjacency;
          Alcotest.test_case "shared empty adjacency, end to end" `Quick
            test_shared_empty_adjacency_program;
          Alcotest.test_case "shaped views: pool canonical, oracle agrees" `Quick
            test_shaped_views;
        ] );
      ( "lvalset",
        [
          Alcotest.test_case "hash-consing" `Quick test_lvalset_sharing;
          Alcotest.test_case "union" `Quick test_lvalset_union;
          Alcotest.test_case "mem" `Quick test_lvalset_mem;
          Alcotest.test_case "iter_diff" `Quick test_lvalset_iter_diff;
          QCheck_alcotest.to_alcotest qcheck_iter_diff;
        ] );
      ( "edgeset",
        [
          Alcotest.test_case "tiers" `Quick test_edgeset_tiers;
          QCheck_alcotest.to_alcotest qcheck_edgeset;
          Alcotest.test_case "solver counters pinned" `Quick test_counters_pinned;
        ] );
    ]
