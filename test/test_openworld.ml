(* Open-world analysis: havoc synthesis, the link-time undefined-function
   policies and their exit codes, the Steensgaard rejection, the
   OPENWORLD section's disk roundtrip, and the body-deletion soundness
   gate in both directions (pass, and fail under --inject-unsound). *)

open Cla_core
open Cla_workload
module SS = Set.Make (String)

let solve ?undefined files =
  let view = Pipeline.compile_link ?undefined files in
  (Andersen.solve ~demand:false view).Andersen.solution

let pts sol name =
  match Solution.find sol name with
  | None -> SS.empty
  | Some id ->
      Lvalset.to_list (Solution.points_to sol id)
      |> List.map (Solution.var_name sol)
      |> SS.of_list

(* ------------------------------------------------------------------ *)
(* Library level: havoc semantics                                      *)
(* ------------------------------------------------------------------ *)

let incomplete =
  [
    ( "a.c",
      "int g;\nint *p;\nvoid missing(int **q);\n\
       void start(void) { p = &g; missing(&p); }\n" );
  ]

let test_arg_havoc () =
  (* closed world: the call to the undefined function vanishes and p
     keeps only the local fact *)
  let closed = solve ~undefined:Linkp.Ignore incomplete in
  Alcotest.(check bool) "closed: p -> {g} only" true
    (SS.equal (pts closed "p") (SS.singleton "g"));
  (* open world: &p escaped into the missing code, which may overwrite
     p with anything it can name — the blob *)
  let opened = solve ~undefined:Linkp.Open_world incomplete in
  Alcotest.(check bool) "open: p keeps g" true (SS.mem "g" (pts opened "p"));
  Alcotest.(check bool) "open: p gains the blob" true
    (SS.mem "<blob>" (pts opened "p"))

let test_return_havoc () =
  let files =
    [ ("a.c", "int *h(void);\nint *r;\nvoid start(void) { r = h(); }\n") ]
  in
  let opened = solve ~undefined:Linkp.Open_world files in
  Alcotest.(check bool) "r receives the blob from h's result" true
    (SS.mem "<blob>" (pts opened "r"))

let test_escaped_callback () =
  (* registering a callback with unknown code means the unknown external
     caller may invoke it with arbitrary arguments *)
  let files =
    [
      ( "a.c",
        "int g;\nint *seen;\nvoid reg(void (*cb)(int *));\n\
         void mine(int *a) { seen = a; }\n\
         void start(void) { reg(mine); }\n" );
    ]
  in
  let opened = solve ~undefined:Linkp.Open_world files in
  Alcotest.(check bool) "callback parameter is havocked" true
    (SS.mem "<blob>" (pts opened "seen"))

let test_superset_property () =
  (* every closed-world fact must survive open-world havoc *)
  let files =
    [
      ( "a.c",
        "int x, y;\nint *p, *q, **pp;\nvoid missing(void);\n\
         void start(void) { p = &x; q = &y; pp = &p; *pp = q; }\n" );
    ]
  in
  let closed = solve ~undefined:Linkp.Ignore files in
  let opened = solve ~undefined:Linkp.Open_world files in
  List.iter
    (fun v ->
      Alcotest.(check bool)
        (Fmt.str "open(%s) ⊇ closed(%s)" v v)
        true
        (SS.subset (pts closed v) (pts opened v)))
    [ "p"; "q"; "pp"; "x"; "y" ]

let test_section_roundtrip () =
  let view = Pipeline.compile_link ~undefined:Linkp.Open_world incomplete in
  match view.Objfile.ropenworld with
  | None -> Alcotest.fail "open-world link lost its OPENWORLD summary"
  | Some ow ->
      Alcotest.(check (list string))
        "undefined functions recorded" [ "missing" ] ow.Objfile.owundef;
      Alcotest.(check string)
        "blob var present" "<blob>"
        view.Objfile.rvars.(ow.Objfile.owblob).Objfile.vname;
      Alcotest.(check bool) "escape set non-empty" true
        (ow.Objfile.owescape <> [])

let test_steensgaard_rejected () =
  let view = Pipeline.compile_link ~undefined:Linkp.Open_world incomplete in
  (match Pipeline.points_to ~algorithm:Pipeline.Steensgaard view with
  | exception Diag.Fail _ -> ()
  | _ -> Alcotest.fail "Steensgaard must refuse an open-world view");
  (* the ladder never reaches the unification rung on an open world *)
  let o =
    Pipeline.points_to_ladder
      ~deadline:(Cla_resilience.Deadline.of_ms 0)
      view
  in
  Alcotest.(check string) "ladder answers with the paper's solver"
    "pretransitive"
    (Pipeline.algorithm_name o.Pipeline.lo_algorithm)

(* ------------------------------------------------------------------ *)
(* The deletion gate, both directions                                  *)
(* ------------------------------------------------------------------ *)

let tiny = Profile.scaled 0.05 Profile.nethack

let test_gate_holds () =
  match Deletion.run ~steps:2 ~seed:7L tiny with
  | Ok o ->
      Alcotest.(check bool) "checked something" true (o.Deletion.n_checked > 0);
      Alcotest.(check bool) "dropped something" true (o.Deletion.n_dropped > 0)
  | Error v ->
      Alcotest.fail
        (Fmt.str "gate violated at step %d: %s lost %s" v.Deletion.v_step
           v.Deletion.v_var
           (String.concat ", " v.Deletion.v_missing))

let test_gate_can_fail () =
  match Deletion.run ~inject_unsound:true ~steps:2 ~seed:7L tiny with
  | Ok _ -> Alcotest.fail "gate missed deliberately injected unsoundness"
  | Error v ->
      Alcotest.(check bool) "violation names missing facts" true
        (v.Deletion.v_missing <> [])

(* ------------------------------------------------------------------ *)
(* CLI: exit codes and metrics                                         *)
(* ------------------------------------------------------------------ *)

let cla =
  let candidates =
    [ "../bin/cla.exe"; "_build/default/bin/cla.exe"; "bin/cla.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bin/cla.exe"

let run_capture cmd =
  let ic = Unix.open_process_in (cmd ^ " 2>&1") in
  let buf = Buffer.create 256 in
  (try
     while true do
       Buffer.add_channel buf ic 1
     done
   with End_of_file -> ());
  let status = Unix.close_process_in ic in
  let code = match status with Unix.WEXITED n -> n | _ -> 255 in
  (code, Buffer.contents buf)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

let tmpdir = Filename.temp_file "cla_ow" ""

let () =
  Sys.remove tmpdir;
  Sys.mkdir tmpdir 0o755

let in_tmp name = Filename.concat tmpdir name
let q = Filename.quote

let () =
  let oc = open_out (in_tmp "inc.c") in
  output_string oc
    "int g;\nint *p;\nvoid missing(int **q);\n\
     void start(void) { p = &g; missing(&p); }\n";
  close_out oc

let setup () =
  let code, out =
    run_capture
      (Fmt.str "%s compile %s -o %s" cla (q (in_tmp "inc.c"))
         (q (in_tmp "inc.clo")))
  in
  Alcotest.(check int) ("compile: " ^ out) 0 code

let test_strict_link_exits_3 () =
  setup ();
  let code, out =
    run_capture
      (Fmt.str "%s link %s -o %s" cla (q (in_tmp "inc.clo"))
         (q (in_tmp "inc.cla")))
  in
  Alcotest.(check int) ("strict link exit: " ^ out) 3 code;
  Alcotest.(check bool) ("names the function: " ^ out) true
    (contains ~affix:"missing" out);
  Alcotest.(check bool) ("suggests --open-world: " ^ out) true
    (contains ~affix:"--open-world" out)

let test_open_world_link_exits_0 () =
  setup ();
  let code, out =
    run_capture
      (Fmt.str "%s link --open-world %s -o %s --stats" cla
         (q (in_tmp "inc.clo"))
         (q (in_tmp "inc.cla")))
  in
  Alcotest.(check int) ("open-world link exit: " ^ out) 0 code;
  Alcotest.(check bool) ("reports havoc: " ^ out) true
    (contains ~affix:"open world: 1 undefined function(s) havocked" out);
  Alcotest.(check bool) ("link.open_world.undefined metric: " ^ out) true
    (contains ~affix:"link.open_world.undefined" out)

let test_analyze_steensgaard_exits_2 () =
  let code, out =
    run_capture
      (Fmt.str "%s analyze --open-world --algo steensgaard %s" cla
         (q (in_tmp "inc.cla")))
  in
  Alcotest.(check int) ("exit: " ^ out) 2 code;
  Alcotest.(check bool) ("lists supported modes: " ^ out) true
    (contains ~affix:"valid with --open-world" out)

let test_analyze_open_world () =
  let code, out =
    run_capture
      (Fmt.str "%s analyze --open-world %s --print --stats" cla
         (q (in_tmp "inc.cla")))
  in
  Alcotest.(check int) ("exit: " ^ out) 0 code;
  Alcotest.(check bool) ("p sees the blob: " ^ out) true
    (contains ~affix:"<blob>" out);
  Alcotest.(check bool) ("analyze.open_world.undefined metric: " ^ out) true
    (contains ~affix:"analyze.open_world.undefined" out)

let () =
  Alcotest.run "openworld"
    [
      ( "havoc",
        [
          Alcotest.test_case "argument havoc" `Quick test_arg_havoc;
          Alcotest.test_case "return havoc" `Quick test_return_havoc;
          Alcotest.test_case "escaped callback" `Quick test_escaped_callback;
          Alcotest.test_case "open ⊇ closed" `Quick test_superset_property;
          Alcotest.test_case "section roundtrip" `Quick test_section_roundtrip;
          Alcotest.test_case "steensgaard rejected" `Quick
            test_steensgaard_rejected;
        ] );
      ( "deletion gate",
        [
          Alcotest.test_case "holds on a stream" `Quick test_gate_holds;
          Alcotest.test_case "catches injected unsoundness" `Quick
            test_gate_can_fail;
        ] );
      ( "cli",
        [
          Alcotest.test_case "strict link exits 3" `Quick
            test_strict_link_exits_3;
          Alcotest.test_case "open-world link exits 0" `Quick
            test_open_world_link_exits_0;
          Alcotest.test_case "steensgaard flag exits 2" `Quick
            test_analyze_steensgaard_exits_2;
          Alcotest.test_case "analyze open world" `Quick
            test_analyze_open_world;
        ] );
    ]
