(* End-to-end tests of the `cla` command-line driver: compile, link,
   analyze, depend, transform, dump, gen — the tool a user actually runs. *)

let cla =
  (* dune declares the binary as a dep; it lands next to the test's cwd *)
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

let tmpdir = Filename.temp_file "cla_cli" ""

let () =
  Sys.remove tmpdir;
  Sys.mkdir tmpdir 0o755

let in_tmp name = Filename.concat tmpdir name

let write_file name content =
  let oc = open_out (in_tmp name) in
  output_string oc content;
  close_out oc

let () =
  write_file "a.c"
    "int x, *y;\nint **z;\nvoid main(void) { z = &y; *z = &x; }\n";
  write_file "b.c" "extern int *y;\nint *alias;\nvoid g(void) { alias = y; }\n";
  write_file "dep.c"
    "short counter;\nshort mirror;\nint wide;\n\
     void f(void) { counter = 40000; mirror = counter; wide = counter; }\n"

let check_run name cmd expects =
  Alcotest.test_case name `Quick (fun () ->
      let code, out = run_capture cmd in
      Alcotest.(check int) (name ^ ": exit code\n" ^ out) 0 code;
      List.iter
        (fun e ->
          Alcotest.(check bool)
            (Fmt.str "%s: output contains %S in:\n%s" name e out)
            true (contains ~affix:e out))
        expects)

let q = Filename.quote

let count ~affix s =
  let n = String.length affix in
  let rec go i acc =
    if i + n > String.length s then acc
    else go (i + 1) (if String.sub s i n = affix then acc + 1 else acc)
  in
  go 0 0

(* [cla analyze --ladder] with an expired deadline: a closed-world
   database degrades to Steensgaard after one pre-transitive timeout;
   on an open-world one the pre-transitive solver is the only rung and
   answers exactly. *)
let ladder_tests =
  let analyze db = Fmt.str "%s analyze %s --ladder --deadline-ms 0" cla (q db) in
  [
    Alcotest.test_case "closed world degrades to steensgaard" `Quick (fun () ->
        let code, out = run_capture (analyze (in_tmp "prog.cla")) in
        Alcotest.(check int) ("exit code\n" ^ out) 0 code;
        Alcotest.(check bool) ("steensgaard answers:\n" ^ out) true
          (contains ~affix:"steensgaard:" out);
        Alcotest.(check int) ("one pretransitive timeout:\n" ^ out) 1
          (count ~affix:"pretransitive rung timed out" out);
        Alcotest.(check bool) ("no bitvector rung:\n" ^ out) false
          (contains ~affix:"bitvector" out));
    Alcotest.test_case "open world answers exactly" `Quick (fun () ->
        write_file "ow.c"
          "int g;\nint *p;\nvoid missing(int **q);\n\
           void start(void) { p = &g; missing(&p); }\n";
        let setup =
          Fmt.str "%s compile %s && %s link --open-world %s -o %s" cla
            (q (in_tmp "ow.c")) cla (q (in_tmp "ow.clo")) (q (in_tmp "ow.cla"))
        in
        let code, out = run_capture setup in
        Alcotest.(check int) ("open-world link\n" ^ out) 0 code;
        let code, out = run_capture (analyze (in_tmp "ow.cla")) in
        Alcotest.(check int) ("exit code\n" ^ out) 0 code;
        Alcotest.(check bool) ("pretransitive answers:\n" ^ out) true
          (contains ~affix:"pretransitive:" out);
        Alcotest.(check bool) ("not degraded:\n" ^ out) false
          (contains ~affix:"[degraded" out));
    Alcotest.test_case "--hedge is an unknown option" `Quick (fun () ->
        let code, out =
          run_capture
            (Fmt.str "%s analyze %s --ladder --deadline-ms 0 --hedge" cla
               (q (in_tmp "prog.cla")))
        in
        Alcotest.(check int) ("usage error\n" ^ out) 124 code);
    (* -j selects unit compilation only; analyze has no parallel path *)
    Alcotest.test_case "analyze -j is an unknown option" `Quick (fun () ->
        let code, out =
          run_capture
            (Fmt.str "%s analyze %s -j 2" cla (q (in_tmp "prog.cla")))
        in
        Alcotest.(check int) ("usage error\n" ^ out) 124 code;
        Alcotest.(check bool) ("names -j\n" ^ out) true
          (contains ~affix:"unknown option '-j'" out));
  ]

(* [--json] output is JSON: a heap object named after a non-ASCII file
   parses back with its UTF-8 name intact. *)
let json_utf8_test =
  Alcotest.test_case "analyze json keeps UTF-8 names" `Quick (fun () ->
      write_file "café.c" "int *p;\nvoid f(void) {\n  p = malloc(4);\n}\n";
      let setup =
        Fmt.str "%s compile %s && %s link %s -o %s" cla
          (q (in_tmp "café.c")) cla (q (in_tmp "café.clo")) (q (in_tmp "cafe.cla"))
      in
      let code, out = run_capture setup in
      Alcotest.(check int) ("compile and link\n" ^ out) 0 code;
      let code, out =
        run_capture (Fmt.str "%s analyze %s --json" cla (q (in_tmp "cafe.cla")))
      in
      Alcotest.(check int) ("exit code\n" ^ out) 0 code;
      let module Json = Cla_obs.Json in
      let targets =
        match Json.of_string out with
        | Json.Obj fields -> (
            match List.assoc_opt "p" fields with
            | Some (Json.Arr ts) ->
                List.filter_map (function Json.Str s -> Some s | _ -> None) ts
            | _ -> Alcotest.fail ("no targets for p in:\n" ^ out))
        | _ -> Alcotest.fail ("not an object:\n" ^ out)
        | exception Json.Parse_error e ->
            Alcotest.fail (Fmt.str "invalid JSON (%s):\n%s" e out)
      in
      Alcotest.(check bool)
        (Fmt.str "p -> malloc@café.c:... in %s" (String.concat ", " targets))
        true
        (List.exists
           (fun t -> String.starts_with ~prefix:"malloc@café.c:" t)
           targets))

let () =
  Alcotest.run "cli"
    [
      ( "pipeline",
        [
          check_run "compile"
            (Fmt.str "%s compile %s %s" cla (q (in_tmp "a.c")) (q (in_tmp "b.c")))
            [ "a.clo"; "b.clo" ];
          check_run "link"
            (Fmt.str "%s link %s %s -o %s" cla
               (q (in_tmp "a.clo"))
               (q (in_tmp "b.clo"))
               (q (in_tmp "prog.cla")))
            [ "2 unit(s)"; "merged" ];
          check_run "analyze"
            (Fmt.str "%s analyze %s --print" cla (q (in_tmp "prog.cla")))
            [ "y -> {x}"; "z -> {y}"; "alias -> {x}"; "pretransitive" ];
          check_run "analyze json"
            (Fmt.str "%s analyze %s --json" cla (q (in_tmp "prog.cla")))
            [ "\"y\": [\"x\"]"; "\"z\": [\"y\"]" ];
          json_utf8_test;
          check_run "analyze worklist"
            (Fmt.str "%s analyze %s --algo worklist" cla (q (in_tmp "prog.cla")))
            [ "worklist:" ];
          check_run "analyze ablation flags"
            (Fmt.str "%s analyze %s --no-cache --no-cycle-elim" cla
               (q (in_tmp "prog.cla")))
            [ "pretransitive:" ];
          check_run "dump"
            (Fmt.str "%s dump %s --blocks" cla (q (in_tmp "prog.cla")))
            [ "static section"; "z = &y"; "dynamic section" ];
        ] );
      ("ladder", ladder_tests);
      ( "applications",
        [
          check_run "depend setup"
            (Fmt.str "%s compile %s -o %s && %s link %s -o %s" cla
               (q (in_tmp "dep.c"))
               (q (in_tmp "dep.clo"))
               cla
               (q (in_tmp "dep.clo"))
               (q (in_tmp "dep.cla")))
            [];
          check_run "depend"
            (Fmt.str "%s depend %s --target counter" cla (q (in_tmp "dep.cla")))
            [ "dependent object(s)"; "mirror/short" ];
          check_run "depend narrowing"
            (Fmt.str "%s depend %s --target counter --new-type int" cla
               (q (in_tmp "dep.cla")))
            [ "[WIDEN]"; "[ok"; "40000" ];
          check_run "transform"
            (Fmt.str "%s transform %s --substitute -o %s" cla
               (q (in_tmp "prog.cla"))
               (q (in_tmp "prog2.cla")))
            [ "substitute:" ];
          check_run "gen"
            (Fmt.str "%s gen nethack --scale 0.05 -d %s" cla (q tmpdir))
            [ "nethack_00.c" ];
        ] );
      ( "errors",
        [
          Alcotest.test_case "missing file" `Quick (fun () ->
              let code, _ = run_capture (Fmt.str "%s analyze /nonexistent.cla" cla) in
              Alcotest.(check bool) "nonzero exit" true (code <> 0));
          Alcotest.test_case "parse error reported" `Quick (fun () ->
              write_file "bad.c" "int x = ;\n";
              let code, out =
                run_capture (Fmt.str "%s compile %s" cla (q (in_tmp "bad.c")))
              in
              Alcotest.(check bool) "nonzero exit" true (code <> 0);
              Alcotest.(check bool) ("mentions parse error: " ^ out) true
                (contains ~affix:"parse error" out));
          Alcotest.test_case "lex error names its column" `Quick (fun () ->
              write_file "lexbad.c" "int x @ y;\n";
              let file = in_tmp "lexbad.c" in
              let code, out = run_capture (Fmt.str "%s compile %s" cla (q file)) in
              Alcotest.(check int) "bad input" 2 code;
              let want =
                Fmt.str "<%s:1>: compile error: lex error: unexpected character '@' at column 7"
                  file
              in
              Alcotest.(check bool) (want ^ " in: " ^ out) true (contains ~affix:want out));
        ] );
    ]
