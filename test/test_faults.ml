(* Fault-injection tests: the object-file reader's totality contract.

   Every mutation of a serialized database (or, where noted, of a
   solution snapshot in the same container) — truncation at any byte,
   single-byte flips, section-table reordering — must either load and
   analyze to the identical solution or be rejected with a structured
   [Binio.Corrupt] / [Diag.Fail].  Anything else (Invalid_argument,
   out-of-bounds, unchecked allocation, a silently different solution)
   is a reader bug. *)

open Cla_core
open Cla_workload

(* A small program covering every primitive kind plus an indirect call,
   so every section of the object file is populated. *)
let source =
  "int x, y, *p, *q, **pp, **qq;\n\
   int f(int a) { return a; }\n\
   int (*fp)(int);\n\
   void g(void) {\n\
  \  p = &x;\n\
  \  q = p;\n\
  \  pp = &p;\n\
  \  qq = &q;\n\
  \  *pp = q;\n\
  \  y = *p;\n\
  \  *pp = *qq;\n\
  \  fp = f;\n\
  \  y = fp(x);\n\
   }\n"

let small_db () =
  Objfile.write (Compilep.compile_string ~file:"t.c" source)

let solve_bytes data =
  (Andersen.solve ~demand:false (Objfile.view_of_string data))
    .Andersen.solution

let check_invariant ~baseline data m =
  match Faults.check data m with
  | Faults.Rejected _ -> ()
  | Faults.Accepted sol ->
      if not (Solution.equal baseline sol) then
        Alcotest.failf "%s accepted with a different solution"
          (Faults.describe m)

(* Both formats the section container carries, each with the check a
   mutant must pass: rejected as corrupt ([Error]), or accepted with the
   original answer ([Ok true]).  The snapshot is of [small_db]'s own
   solution and must thaw to an equal outcome. *)
let container_inputs () =
  let data = small_db () in
  let baseline = solve_bytes data in
  let view = Objfile.view_of_string data in
  let o = Pipeline.points_to_ladder view in
  let snap = Snapshot.freeze ~view o in
  let check_object m =
    match Faults.check data m with
    | Faults.Rejected msg -> Error msg
    | Faults.Accepted sol -> Ok (Solution.equal baseline sol)
  in
  let check_snapshot m =
    match Snapshot.thaw ~view (Faults.mutate snap m) with
    | exception Binio.Corrupt msg -> Error msg
    | o' ->
        Ok
          (Solution.equal o.Pipeline.lo_solution o'.Pipeline.lo_solution
          && o.Pipeline.lo_algorithm = o'.Pipeline.lo_algorithm
          && String.equal o.Pipeline.lo_note o'.Pipeline.lo_note)
  in
  [ ("object", data, check_object); ("snapshot", snap, check_snapshot) ]

(* --- truncation totality: every prefix of the file ------------------- *)

let test_truncate_every_offset () =
  List.iter
    (fun (name, data, check) ->
      for n = 0 to String.length data - 1 do
        match check (Faults.Truncate n) with
        | Error _ | Ok true -> ()
        | Ok false ->
            Alcotest.failf "%s: truncation to %d accepted with a different \
                            answer" name n
      done)
    (container_inputs ())

(* --- single-byte flips at sampled offsets ---------------------------- *)

let test_flip_sampled () =
  let data = small_db () in
  let baseline = solve_bytes data in
  let rng = Rng.create 0xF11FL in
  for _ = 1 to 256 do
    let off = Rng.int rng (String.length data) in
    let mask = 1 + Rng.int rng 255 in
    check_invariant ~baseline data (Faults.Byte_flip (off, mask))
  done

(* Every byte of the header region (magic + section table + table crc)
   matters most — flip each of them exhaustively with one mask. *)
let test_flip_header_exhaustive () =
  let data = small_db () in
  let baseline = solve_bytes data in
  let header_end = 8 + (10 * 13) + 4 in
  for off = 0 to min (header_end - 1) (String.length data - 1) do
    check_invariant ~baseline data (Faults.Byte_flip (off, 0x40))
  done

(* --- seeded sweep over all mutation kinds ---------------------------- *)

let test_sweep_small () =
  let data = small_db () in
  let baseline = solve_bytes data in
  let s = Faults.sweep ~baseline ~seed:42L ~n:500 data in
  Alcotest.(check int) "all mutations checked" 500 s.Faults.n_total;
  Alcotest.(check int)
    "accounting adds up" 500
    (s.Faults.n_accepted + s.Faults.n_rejected);
  Alcotest.(check bool) "some mutants rejected" true (s.Faults.n_rejected > 0)

let test_sweep_generated () =
  (* a linked multi-unit database from the synthetic generator *)
  let files = Genc.generate ~seed:11L (Profile.scaled 0.05 Profile.nethack) in
  let view = Pipeline.compile_link files in
  let data = Objfile.write (fst (Linkp.link_views [ view ])) in
  let baseline = solve_bytes data in
  let s = Faults.sweep ~baseline ~seed:1337L ~n:200 data in
  Alcotest.(check int) "all mutations checked" 200 s.Faults.n_total

(* --- table swaps must be order-independent, not rejected ------------- *)

let test_table_swap_accepted () =
  List.iter
    (fun (name, data, check) ->
      Alcotest.(check bool)
        (name ^ ": a swap reorders the table") false
        (String.equal data (Faults.mutate data (Faults.Table_swap (0, 1))));
      let accepted = ref 0 in
      for i = 0 to 9 do
        for j = 0 to 9 do
          match check (Faults.Table_swap (i, j)) with
          | Ok same ->
              incr accepted;
              Alcotest.(check bool)
                (Fmt.str "%s swap %d %d: identical answer" name i j)
                true same
          | Error msg ->
              Alcotest.failf "%s reader rejected reordered table (%d,%d): %s"
                name i j msg
        done
      done;
      Alcotest.(check int) (name ^ ": all swaps accepted") 100 !accepted)
    (container_inputs ())

(* --- corrupt files surface as structured diagnostics ------------------ *)

let test_load_result_diag () =
  let path = Filename.temp_file "cla_faults" ".cla" in
  let oc = open_out_bin path in
  output_string oc "definitely not a CLA database";
  close_out oc;
  (match Objfile.load_result path with
  | Ok _ -> Alcotest.fail "garbage loaded"
  | Error d ->
      Alcotest.(check bool) "diag names the file" true (d.Diag.file = Some path);
      Alcotest.(check bool) "load phase" true (d.Diag.phase = Diag.Load));
  Sys.remove path;
  match Objfile.load_result path with
  | Ok _ -> Alcotest.fail "missing file loaded"
  | Error d ->
      Alcotest.(check bool) "missing file is a Load diag" true
        (d.Diag.phase = Diag.Load)

(* --- bounded-memory loading ------------------------------------------ *)

let test_budget_identical_solution () =
  let files = Genc.generate ~seed:3L (Profile.scaled 0.2 Profile.burlap) in
  let view = Pipeline.compile_link files in
  let unbounded = Andersen.solve view in
  let stats0 = unbounded.Andersen.loader_stats in
  Alcotest.(check int) "unbounded run never evicts" 0 stats0.Loader.s_evictions;
  let budget = max 8 (stats0.Loader.s_in_core / 4) in
  let bounded = Andersen.solve ~budget view in
  let stats = bounded.Andersen.loader_stats in
  Alcotest.(check bool)
    (Fmt.str "evictions happened (budget %d, unbounded in-core %d)" budget
       stats0.Loader.s_in_core)
    true (stats.Loader.s_evictions > 0);
  Alcotest.(check bool)
    (Fmt.str "in-core %d within budget %d" stats.Loader.s_in_core budget)
    true
    (stats.Loader.s_in_core <= budget);
  Alcotest.(check bool) "identical solution" true
    (Solution.equal unbounded.Andersen.solution bounded.Andersen.solution);
  Alcotest.(check bool) "bounded run re-loads" true
    (stats.Loader.s_reloads >= stats0.Loader.s_reloads)

let test_budget_bounded_throughout () =
  let files = Genc.generate ~seed:3L (Profile.scaled 0.2 Profile.burlap) in
  let view = Pipeline.compile_link files in
  let ref_in_core =
    (Andersen.solve view).Andersen.loader_stats.Loader.s_in_core
  in
  let budget = max 8 (ref_in_core / 4) in
  let st = Andersen.init ~budget view in
  let check_bound what =
    let c = (Loader.stats (Andersen.loader st)).Loader.s_in_core in
    Alcotest.(check bool)
      (Fmt.str "%s: in-core %d <= budget %d" what c budget)
      true (c <= budget)
  in
  check_bound "after init";
  let passes = ref 0 in
  while Andersen.pass st do
    incr passes;
    check_bound (Fmt.str "after pass %d" !passes)
  done;
  check_bound "at fixpoint";
  Alcotest.(check bool) "budget forced evictions" true
    ((Loader.stats (Andersen.loader st)).Loader.s_evictions > 0)

(* --- retained set survives eviction (dependence-analysis input) ------ *)

let test_budget_retained_complete () =
  let files = Genc.generate ~seed:3L (Profile.scaled 0.2 Profile.burlap) in
  let view = Pipeline.compile_link files in
  let unbounded = Andersen.solve view in
  let budget =
    max 8 (unbounded.Andersen.loader_stats.Loader.s_in_core / 4)
  in
  let bounded = Andersen.solve ~budget view in
  let key (p : Objfile.prim_rec) = (p.Objfile.pkind, p.Objfile.pdst, p.Objfile.psrc) in
  let sorted r = List.sort compare (List.map key r.Andersen.retained) in
  Alcotest.(check bool) "same retained complex assignments" true
    (sorted unbounded = sorted bounded)

let () =
  Alcotest.run "faults"
    [
      ( "totality",
        [
          Alcotest.test_case "truncate every offset" `Quick
            test_truncate_every_offset;
          Alcotest.test_case "256 sampled flips" `Quick test_flip_sampled;
          Alcotest.test_case "exhaustive header flips" `Quick
            test_flip_header_exhaustive;
          Alcotest.test_case "seeded sweep x500" `Quick test_sweep_small;
          Alcotest.test_case "sweep on generated workload" `Quick
            test_sweep_generated;
          Alcotest.test_case "table swaps accepted" `Quick
            test_table_swap_accepted;
        ] );
      ( "compat",
        [
          Alcotest.test_case "load_result diagnostics" `Quick
            test_load_result_diag;
        ] );
      ( "budget",
        [
          Alcotest.test_case "identical solution under budget" `Quick
            test_budget_identical_solution;
          Alcotest.test_case "in-core bounded throughout" `Quick
            test_budget_bounded_throughout;
          Alcotest.test_case "retained set complete" `Quick
            test_budget_retained_complete;
        ] );
    ]
