(* Property-based validation of the hybrid lval-set representation.

   Every operation is checked against a reference model (OCaml's
   [Set.Make (Int)]) under three pool thresholds — [max_int] (pure
   sorted arrays), [4] (almost everything becomes a bitmap), and the
   default — plus the pool invariants the solvers lean on: canonical
   representation, physical sharing of equal sets, buffer non-retention
   in [of_dyn], and the stamp-based distinctness protocol. *)

open Cla_core
module IS = Set.Make (Int)

let model l = IS.of_list l
let mk pool l = Lvalset.of_list pool l

(* elements drawn from a small range so bitmap density is reachable,
   mixed with an occasional large outlier to exercise sparse tails *)
let elems =
  QCheck.(
    list_of_size Gen.(0 -- 150)
      (map
         (fun (big, x) -> if big then 5000 + (x mod 200) else x mod 300)
         (pair bool (int_bound 100_000))))

let thresholds = [ ("array", max_int); ("hybrid", 4); ("default", 64) ]

let per_threshold name prop =
  List.map
    (fun (tn, th) ->
      QCheck.Test.make ~count:200 ~name:(Fmt.str "%s [%s]" name tn) elems
        (fun l -> prop (Lvalset.create_pool ~dense_threshold:th ()) l))
    thresholds

let contents_match =
  per_threshold "of_list matches reference model" (fun pool l ->
      let s = mk pool l and m = model l in
      Lvalset.cardinal s = IS.cardinal m
      && Lvalset.to_list s = IS.elements m
      && IS.for_all (fun x -> Lvalset.mem x s) m
      && (not (Lvalset.mem (-1) s))
      && not (Lvalset.mem 200_001 s))

let iter_ascending =
  per_threshold "iter is ascending and complete" (fun pool l ->
      let s = mk pool l in
      let seen = ref [] in
      Lvalset.iter (fun x -> seen := x :: !seen) s;
      List.rev !seen = IS.elements (model l))

let union_matches =
  per_threshold "union matches reference model" (fun pool l ->
      let n = List.length l / 2 in
      let a = List.filteri (fun i _ -> i < n) l in
      let b = List.filteri (fun i _ -> i >= n) l in
      let u = Lvalset.union pool (mk pool a) (mk pool b) in
      Lvalset.to_list u = IS.elements (IS.union (model a) (model b)))

let union_many_matches =
  per_threshold "union_many = fold of unions + raw buffer" (fun pool l ->
      let third = max 1 (List.length l / 3) in
      let part i = List.filteri (fun j _ -> j / third = i) l in
      let sets = [| mk pool (part 0); mk pool (part 1); Lvalset.empty |] in
      let buf = Array.of_list (part 2 @ part 2) in
      let u = Lvalset.union_many pool sets 3 buf (Array.length buf) in
      let expect = IS.union (model (part 0)) (IS.union (model (part 1)) (model (part 2))) in
      Lvalset.to_list u = IS.elements expect)

(* 0-12 input sets plus a raw buffer that is unsorted and repeats its
   elements — the shape of one SCC result in the reachability walk *)
let many_inputs =
  QCheck.(
    pair (list_of_size Gen.(0 -- 12) elems) (list_of_size Gen.(0 -- 40) (int_bound 400)))

let union_many_inputs pool (ls, raw) =
  let sets = Array.of_list (List.map (mk pool) ls) in
  let buf = Array.of_list (raw @ List.rev raw) in
  Lvalset.union_many pool sets (Array.length sets) buf (Array.length buf)

let many_per_threshold name prop =
  List.map
    (fun (tn, th) ->
      QCheck.Test.make ~count:200 ~name:(Fmt.str "%s [%s]" name tn) many_inputs
        (fun input -> prop th (Lvalset.create_pool ~dense_threshold:th ()) input))
    thresholds

let union_many_model =
  many_per_threshold "union_many of 0-12 sets matches the model"
    (fun _ pool ((ls, raw) as input) ->
      let u = union_many_inputs pool input in
      let expect = List.fold_left (fun m l -> IS.union m (model l)) (model raw) ls in
      Lvalset.to_list u = IS.elements expect
      && Lvalset.cardinal u = IS.cardinal expect)

let union_many_canonical =
  many_per_threshold "union_many result is canonical" (fun _ pool input ->
      let u = union_many_inputs pool input in
      u == mk pool (Lvalset.to_list u))

(* An input that already is the union comes back physically — built in
   another pool, so canonical interning cannot be what makes it so.
   Only a small total (at most the threshold) is re-interned, like
   [of_dyn]. *)
let union_many_winner =
  many_per_threshold "union_many returns an input equal to the union"
    (fun th pool (ls, raw) ->
      let all = List.concat (raw :: ls) in
      let whole = mk (Lvalset.create_pool ~dense_threshold:th ()) all in
      let sets = Array.of_list (whole :: List.map (mk pool) ls) in
      let buf = Array.of_list raw in
      let u = Lvalset.union_many pool sets (Array.length sets) buf (Array.length buf) in
      let total =
        Array.fold_left (fun n s -> n + Lvalset.cardinal s) (Array.length buf) sets
      in
      if total <= th then u == mk pool all else u == whole)

(* [union_many] builds its result in scratch owned by the pool; a result
   must never alias it.  Disjoint, sparse inputs make the union exactly
   as long as the freshly sized scratch, which is when interning the
   scratch uncopied would keep it as the set's backing store. *)
let union_many_scratch_not_retained =
  many_per_threshold "union_many never retains its scratch" (fun th _ (ls, raw) ->
      let pool = Lvalset.create_pool ~dense_threshold:th () in
      let spread k l = List.sort_uniq compare (List.map (fun x -> (x * 100) + k) l) in
      let sets = Array.of_list (List.mapi (fun i l -> mk pool (spread (i + 1) l)) ls) in
      let buf = Array.of_list (spread 0 raw) in
      let u = Lvalset.union_many pool sets (Array.length sets) buf (Array.length buf) in
      let before = Lvalset.to_list u in
      let sets' = Array.map (fun s -> mk pool (List.map succ (Lvalset.to_list s))) sets in
      let buf' = Array.of_list (List.map succ (spread 0 raw)) in
      ignore (Lvalset.union_many pool sets' (Array.length sets') buf' (Array.length buf'));
      Lvalset.to_list u = before)

(* Bitmap walks at word boundaries: elements on bit 31 of each 32-bit
   word (the top bit) and words with every bit set, as bitmaps
   (threshold 4).  Every walk is ascending and matches the model. *)
let word_boundary_sets =
  [
    ("bit 31 of every word", List.init 40 (fun w -> (w * 32) + 31));
    ("all-ones words", List.init 32 Fun.id @ List.init 32 (fun i -> 64 + i));
    ( "mixed",
      [ 31; 63; 95 ] @ List.init 32 (fun i -> 128 + i) @ [ 191; 223; 255; 256 ] );
  ]

let test_word_boundaries () =
  let pool = Lvalset.create_pool ~dense_threshold:4 () in
  let elements s =
    let seen = ref [] in
    Lvalset.iter (fun x -> seen := x :: !seen) s;
    List.rev !seen
  in
  List.iter
    (fun (name, l) ->
      let s = mk pool l and m = IS.elements (model l) in
      Alcotest.(check bool) (name ^ ": is a bitmap") true (Lvalset.is_bitmap s);
      Alcotest.(check (list int)) (name ^ ": iter") m (elements s);
      Alcotest.(check (list int)) (name ^ ": to_list") m (Lvalset.to_list s);
      Alcotest.(check (list int)) (name ^ ": fold") m
        (List.rev (Lvalset.fold (fun acc x -> x :: acc) [] s));
      (* the diff against every other element, against the lower half
         (a bitmap too: the word-ANDNOT path), and against nothing *)
      let diff p =
        let seen = ref [] in
        Lvalset.iter_diff ~prev:p s (fun x -> seen := x :: !seen);
        List.rev !seen
      in
      let keep f = List.filteri (fun i _ -> f i) m in
      Alcotest.(check (list int)) (name ^ ": iter_diff")
        (keep (fun i -> i mod 2 = 1))
        (diff (mk pool (keep (fun i -> i mod 2 = 0))));
      let half = List.length m / 2 in
      let lower = mk pool (keep (fun i -> i < half)) in
      Alcotest.(check bool) (name ^ ": lower half is a bitmap") true
        (Lvalset.is_bitmap lower);
      Alcotest.(check (list int)) (name ^ ": iter_diff of bitmaps")
        (keep (fun i -> i >= half))
        (diff lower);
      Alcotest.(check (list int)) (name ^ ": iter_diff from empty") m
        (diff Lvalset.empty))
    word_boundary_sets

let diff_matches =
  per_threshold "iter_diff visits exactly cur minus prev" (fun pool l ->
      let n = List.length l / 2 in
      let prev_l = List.filteri (fun i _ -> i < n) l in
      let prev = mk pool prev_l in
      let cur = Lvalset.union pool prev (mk pool l) in
      let seen = ref IS.empty in
      Lvalset.iter_diff ~prev cur (fun x -> seen := IS.add x !seen);
      IS.equal !seen (IS.diff (model l) (model prev_l)))

let physically_shared =
  per_threshold "equal sets share one pooled representative" (fun pool l ->
      let a = mk pool l and b = mk pool (List.rev l) in
      a == b)

let cross_representation_equal =
  QCheck.Test.make ~count:200
    ~name:"equal holds across array and bitmap pools" elems (fun l ->
      let pa = Lvalset.create_pool ~dense_threshold:max_int () in
      let pb = Lvalset.create_pool ~dense_threshold:4 () in
      let a = mk pa l and b = mk pb l in
      Lvalset.equal a b && Lvalset.equal b a
      && (not (Lvalset.equal a (mk pb (0 :: List.map (fun x -> x + 1) l)))))

let union_canonical =
  (* a union's result must be the same pooled object as interning its
     contents directly — canonicality across construction paths *)
  per_threshold "union result is canonical" (fun pool l ->
      let n = List.length l / 2 in
      let a = List.filteri (fun i _ -> i < n) l in
      let b = List.filteri (fun i _ -> i >= n) l in
      Lvalset.union pool (mk pool a) (mk pool b) == mk pool l)

let of_dyn_no_retention =
  QCheck.Test.make ~count:200 ~name:"of_dyn never retains the buffer" elems
    (fun l ->
      let pool = Lvalset.create_pool ~dense_threshold:4 () in
      let buf = Array.of_list l in
      let s = Lvalset.of_dyn pool buf (Array.length buf) in
      let before = Lvalset.to_list s in
      Array.fill buf 0 (Array.length buf) (-42);
      Lvalset.to_list s = before)

let unit_tests =
  let open Alcotest in
  [
    test_case "empty basics" `Quick (fun () ->
        check int "cardinal" 0 (Lvalset.cardinal Lvalset.empty);
        check bool "mem" false (Lvalset.mem 0 Lvalset.empty);
        check bool "bitmap" false (Lvalset.is_bitmap Lvalset.empty);
        check (list int) "to_list" [] (Lvalset.to_list Lvalset.empty));
    test_case "try_stamp protocol" `Quick (fun () ->
        let pool = Lvalset.create_pool () in
        let s = Lvalset.of_list pool [ 3; 1; 2 ] in
        check bool "fresh stamp answers" true (Lvalset.try_stamp s 7);
        check bool "repeat stamp refused" false (Lvalset.try_stamp s 7);
        check bool "new stamp answers" true (Lvalset.try_stamp s 8);
        check bool "empty never stamps" false (Lvalset.try_stamp Lvalset.empty 9));
    test_case "dense sets become bitmaps, sparse stay arrays" `Quick (fun () ->
        let pool = Lvalset.create_pool ~dense_threshold:4 () in
        let dense = Lvalset.of_list pool (List.init 40 Fun.id) in
        check bool "dense is bitmap" true (Lvalset.is_bitmap dense);
        let sparse = Lvalset.of_list pool (List.init 8 (fun i -> i * 10_000)) in
        check bool "sparse stays array" false (Lvalset.is_bitmap sparse);
        check int "dense cardinal" 40 (Lvalset.cardinal dense);
        check int "sparse cardinal" 8 (Lvalset.cardinal sparse));
    test_case "pool stats count hits and misses" `Quick (fun () ->
        let pool = Lvalset.create_pool () in
        ignore (Lvalset.of_list pool [ 1; 2 ]);
        ignore (Lvalset.of_list pool [ 1; 2 ]);
        ignore (Lvalset.of_list pool [ 3 ]);
        let st = Lvalset.pool_stats pool in
        check int "misses" 2 st.Lvalset.p_misses;
        check int "hits" 1 st.Lvalset.p_hits;
        Lvalset.flush_pool pool;
        ignore (Lvalset.of_list pool [ 1; 2 ]);
        let st = Lvalset.pool_stats pool in
        check int "counters survive flush" 3 st.Lvalset.p_misses);
    test_case "share returns the pooled representative" `Quick (fun () ->
        let pool = Lvalset.create_pool () in
        let a = Lvalset.share pool [| 1; 5; 9 |] in
        let b = Lvalset.of_list pool [ 9; 1; 5 ] in
        check bool "physical" true (a == b));
    test_case "bitmap walks at word boundaries" `Quick test_word_boundaries;
  ]

let () =
  Alcotest.run "lvalset"
    [
      ("units", unit_tests);
      ( "model properties",
        List.map QCheck_alcotest.to_alcotest
          (contents_match @ iter_ascending @ union_matches @ union_many_matches
         @ union_many_model @ diff_matches) );
      ( "sharing and canonicality",
        List.map QCheck_alcotest.to_alcotest
          (physically_shared @ union_canonical @ union_many_canonical
         @ union_many_winner @ union_many_scratch_not_retained
          @ [ cross_representation_equal; of_dyn_no_retention ]) );
    ]
