(* Tests for the mini preprocessor: macro expansion, conditionals,
   includes, comments, and error behaviour. *)

open Cla_cfront

let check = Alcotest.check
let str = Alcotest.string
let bool = Alcotest.bool

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* preprocess and strip line markers / blank lines for easy comparison *)
let pp ?include_dirs ?virtual_fs ?defines src =
  Cpp.preprocess_string ?include_dirs ?virtual_fs ?defines ~file:"t.c" src
  |> String.split_on_char '\n'
  |> List.filter (fun l ->
         let l = String.trim l in
         l <> "" && not (String.length l > 0 && l.[0] = '#'))
  |> List.map String.trim
  |> String.concat "\n"

let test_object_macro () =
  check str "simple" "int arr[10];" (pp "#define N 10\nint arr[N];\n");
  check str "nested" "int x = (10+1);"
    (pp "#define N 10\n#define M (N+1)\nint x = M;\n")

let test_function_macro () =
  check str "square" "int y = ((3)*(3));"
    (pp "#define SQR(x) ((x)*(x))\nint y = SQR(3);\n");
  check str "two params" "int y = (1) < (2) ? (1) : (2);"
    (pp "#define MIN(a,b) (a) < (b) ? (a) : (b)\nint y = MIN(1, 2);\n");
  check str "nested call" "int y = ((((2)*(2)))*(((2)*(2))));"
    (pp "#define SQR(x) ((x)*(x))\nint y = SQR(SQR(2));\n")

let test_macro_no_args_no_expand () =
  (* a function-like macro name not followed by '(' does not expand *)
  check str "bare name" "int (*f)(int) = SQR;"
    (pp "#define SQR(x) ((x)*(x))\nint (*f)(int) = SQR;\n")

let test_macro_args_with_commas_in_parens () =
  check str "protected comma" "int y = f(g(1, 2));"
    (pp "#define CALL(x) f(x)\nint y = CALL(g(1, 2));\n")

let test_stringize () =
  check str "stringize" "const char *s = \"a + b\";"
    (pp "#define STR(x) #x\nconst char *s = STR(a + b);\n")

let test_paste () =
  check str "paste" "int foobar = 1;"
    (pp "#define GLUE(a,b) a##b\nint GLUE(foo,bar) = 1;\n")

let test_varargs () =
  check str "varargs" "printf(\"%d\", 42);"
    (pp "#define LOG(fmt, ...) printf(fmt, __VA_ARGS__)\nLOG(\"%d\", 42);\n")

let test_recursion_guard () =
  (* self-referential macros must not loop: each use expands once, the
     inner occurrence is not re-expanded (standard "painted blue" rule) *)
  check str "self" "int x + 1 = x + 1 + 1;" (pp "#define x x + 1\nint x = x + 1;\n")

let test_undef () =
  check str "undef" "int N;" (pp "#define N 10\n#undef N\nint N;\n")

let test_ifdef () =
  check str "taken" "int a;" (pp "#define A\n#ifdef A\nint a;\n#endif\n");
  check str "not taken" "" (pp "#ifdef B\nint b;\n#endif\n");
  check str "ifndef" "int c;" (pp "#ifndef B\nint c;\n#endif\n")

let test_if_expr () =
  check str "arith" "int a;" (pp "#if 2 + 2 == 4\nint a;\n#endif\n");
  check str "defined()" "int a;" (pp "#define A 1\n#if defined(A)\nint a;\n#endif\n");
  check str "undefined id is 0" "int b;" (pp "#if FOO\nint a;\n#else\nint b;\n#endif\n");
  check str "ternary" "int a;" (pp "#if 1 ? 1 : 0\nint a;\n#endif\n");
  check str "shift" "int a;" (pp "#if (1 << 4) == 16\nint a;\n#endif\n")

let test_elif_else () =
  let src = {|#define V 2
#if V == 1
int one;
#elif V == 2
int two;
#else
int other;
#endif
|} in
  check str "elif" "int two;" (pp src)

let test_nested_conditionals () =
  let src = {|#define A
#ifdef A
#ifdef B
int ab;
#else
int a_only;
#endif
#endif
|} in
  check str "nested" "int a_only;" (pp src)

let test_inactive_branches_dont_expand () =
  (* an #error in a dead branch must not fire *)
  let src = "#if 0\n#error dead branch\n#endif\nint ok;\n" in
  check str "dead error" "int ok;" (pp src)

let test_include_virtual () =
  let virtual_fs = [ ("config.h", "#define SIZE 8\n") ] in
  check str "include"
    "int buf[8];"
    (pp ~virtual_fs "#include \"config.h\"\nint buf[SIZE];\n")

let test_include_guard () =
  let virtual_fs =
    [ ("g.h", "#ifndef G_H\n#define G_H\nint g;\n#endif\n") ]
  in
  check str "double include is idempotent" "int g;\nint x;"
    (pp ~virtual_fs "#include \"g.h\"\n#include \"g.h\"\nint x;\n")

let test_missing_system_include_tolerated () =
  (* <stdio.h> is absent in the sealed container: it expands to nothing *)
  check str "missing system header" "int x;" (pp "#include <stdio.h>\nint x;\n")

(* The recorded manifest lists each lookup in order — nested includes
   and the missing <system> header included — and replays to true
   against the same virtual filesystem, false once any lookup would
   resolve differently. *)
let test_manifest_virtual () =
  let vfs = [ ("a.h", "#include \"b.h\"\nint a;\n"); ("b.h", "int b;\n") ] in
  let src = "#include \"a.h\"\n#include <sys.h>\nint x;\n" in
  let out, m = Cpp.preprocess_recorded ~virtual_fs:vfs ~file:"t.c" src in
  check str "same output as preprocess_string"
    (Cpp.preprocess_string ~virtual_fs:vfs ~file:"t.c" src)
    out;
  check
    Alcotest.(list string)
    "lookups in order" [ "a.h"; "b.h"; "sys.h" ]
    (List.map (fun l -> l.Cpp.name) m);
  check
    Alcotest.(list bool)
    "resolved" [ true; true; false ]
    (List.map (fun l -> Option.is_some l.Cpp.digest) m);
  check bool "replays against the same fs" true
    (Cpp.manifest_holds ~virtual_fs:vfs m);
  check bool "nested header edited" false
    (Cpp.manifest_holds
       ~virtual_fs:[ List.hd vfs; ("b.h", "int b2;\n") ]
       m);
  check bool "missing header appears" false
    (Cpp.manifest_holds ~virtual_fs:(vfs @ [ ("sys.h", "") ]) m);
  check bool "header gone" false (Cpp.manifest_holds ~virtual_fs:[] m)

let test_missing_local_include_fails () =
  check bool "missing local include raises" true
    (try
       ignore (pp "#include \"nonexistent_417.h\"\nint x;\n");
       false
     with Cpp.Cpp_error _ -> true)

let test_error_directive () =
  check bool "#error raises" true
    (try
       ignore (pp "#error boom\n");
       false
     with Cpp.Cpp_error (m, _, _) -> contains ~affix:"boom" m)

let test_comments () =
  check str "line comment" "int a;" (pp "int a; // comment\n");
  check str "block comment" "int a;" (pp "int /* hidden */ a;\n");
  check str "multiline comment" "int a;\nint b;"
    (pp "int a; /* one\ntwo\nthree */ int b;\n");
  check str "comment chars in string" "char *s = \"/* not a comment */\";"
    (pp "char *s = \"/* not a comment */\";\n")

let test_continuation () =
  check str "backslash newline" "int x = 1 + 2;" (pp "int x = 1 \\\n+ 2;\n");
  check str "macro continuation" "int y = 1 + 2;"
    (pp "#define V 1 \\\n  + 2\nint y = V;\n")

let test_line_markers_track_origin () =
  let virtual_fs = [ ("h.h", "int from_header;\n") ] in
  let out =
    Cpp.preprocess_string ~virtual_fs ~file:"m.c"
      "#include \"h.h\"\nint from_main;\n"
  in
  check bool "marker for header" true (contains ~affix:"\"h.h\"" out);
  check bool "marker for main" true (contains ~affix:"\"m.c\"" out)

let test_defines_option () =
  check str "predefine" "int x = 7;"
    (pp ~defines:[ ("SEVEN", "7") ] "int x = SEVEN;\n")

let test_unterminated_if_fails () =
  check bool "unterminated #if raises" true
    (try
       ignore (pp "#if 1\nint x;\n");
       false
     with Cpp.Cpp_error _ -> true)

(* The plain-line path: a line naming no macro is copied with each blank
   run outside literals collapsed to one space.  The expected texts are
   the ptok path's output for the same lines. *)

(* preprocess, dropping only the line markers: blanks stay as emitted *)
let raw src =
  Cpp.preprocess_string ~file:"t.c" src
  |> String.split_on_char '\n'
  |> List.filter (fun l -> not (String.length l > 0 && l.[0] = '#'))
  |> String.concat "\n"

let test_plain_literals_and_numbers () =
  check str "macro names inside literals and pp-numbers"
    "char *s = \"FOO  x\tFOO\";\nint c = 'FOO';\n\
     double d = 1e+FOO + 0xFOO + 12FOO + .5FOO + x.1;\nint y = 1;\n"
    (raw
       "#define FOO 1\nchar *s = \"FOO  x\tFOO\";\nint c = 'FOO';\n\
        double d = 1e+FOO + 0xFOO + 12FOO + .5FOO + x.FOO;\nint y = FOO;\n")

let test_plain_blank_runs () =
  check str "tab and CR runs"
    "int a = 1;\nchar *s = \"a\t\tb  \r c\";\n x = 2; \nint \"\t\r\" = 3;\n"
    (raw
       "int\t\ta\t =  1;\r\nchar *s = \"a\t\tb  \r c\";\r\n  \t x\t\r\t=\r\r2;   \n\
        #define M 3\nint\t\t\"\t\r\"\r = M;\n")

let test_plain_fn_name_without_call () =
  check str "function-like name not followed by ("
    "int (*p)(int) = F;\nint q = ((2)+1);\nint r = F\n;\nint s = ((3)+1);\n"
    (raw
       "#define F(x) ((x)+1)\nint (*p)(int) = F;\nint q = F (2);\nint r = F\n;\n\
        int s = F(3);\n")

let test_plain_define_undef () =
  check str "a line names a macro only between #define and #undef"
    "int a = M;\nint b = 7;\nint c = M;\n"
    (raw "int a = M;\n#define M 7\nint b = M;\n#undef M\nint c = M;\n")

let test_unterminated_literals () =
  let error src =
    match Cpp.preprocess_string ~file:"t.c" src with
    | _ -> None
    | exception Cpp.Cpp_error (m, f, l) -> Some (m, f, l)
  in
  let err = Alcotest.(option (triple string string int)) in
  check err "string" (Some ("unterminated string literal", "t.c", 2))
    (error "int a;\nchar *s = \"abc;\n");
  check err "character" (Some ("unterminated character literal", "t.c", 2))
    (error "int a;\nint c = 'x;\n");
  check err "escaped quote at the end" (Some ("unterminated string literal", "t.c", 1))
    (error "int a; \"abc\\");
  check err "on a macro line" (Some ("unterminated string literal", "t.c", 2))
    (error "#define M 1\nint z = M; char *s = \"abc;\n")

let () =
  Alcotest.run "cpp"
    [
      ( "macros",
        [
          Alcotest.test_case "object-like" `Quick test_object_macro;
          Alcotest.test_case "function-like" `Quick test_function_macro;
          Alcotest.test_case "bare name" `Quick test_macro_no_args_no_expand;
          Alcotest.test_case "nested commas" `Quick test_macro_args_with_commas_in_parens;
          Alcotest.test_case "stringize" `Quick test_stringize;
          Alcotest.test_case "paste" `Quick test_paste;
          Alcotest.test_case "varargs" `Quick test_varargs;
          Alcotest.test_case "recursion guard" `Quick test_recursion_guard;
          Alcotest.test_case "undef" `Quick test_undef;
          Alcotest.test_case "predefines" `Quick test_defines_option;
        ] );
      ( "conditionals",
        [
          Alcotest.test_case "ifdef" `Quick test_ifdef;
          Alcotest.test_case "#if expressions" `Quick test_if_expr;
          Alcotest.test_case "elif/else" `Quick test_elif_else;
          Alcotest.test_case "nesting" `Quick test_nested_conditionals;
          Alcotest.test_case "dead branches" `Quick test_inactive_branches_dont_expand;
          Alcotest.test_case "unterminated" `Quick test_unterminated_if_fails;
        ] );
      ( "includes",
        [
          Alcotest.test_case "virtual fs" `Quick test_include_virtual;
          Alcotest.test_case "include guards" `Quick test_include_guard;
          Alcotest.test_case "missing <system>" `Quick test_missing_system_include_tolerated;
          Alcotest.test_case "missing local" `Quick test_missing_local_include_fails;
          Alcotest.test_case "manifest round-trip" `Quick test_manifest_virtual;
          Alcotest.test_case "line markers" `Quick test_line_markers_track_origin;
        ] );
      ( "text",
        [
          Alcotest.test_case "comments" `Quick test_comments;
          Alcotest.test_case "continuations" `Quick test_continuation;
          Alcotest.test_case "#error" `Quick test_error_directive;
        ] );
      ( "plain lines",
        [
          Alcotest.test_case "literals and pp-numbers" `Quick
            test_plain_literals_and_numbers;
          Alcotest.test_case "blank runs" `Quick test_plain_blank_runs;
          Alcotest.test_case "bare function-like name" `Quick
            test_plain_fn_name_without_call;
          Alcotest.test_case "#define then #undef" `Quick test_plain_define_undef;
          Alcotest.test_case "unterminated literals" `Quick test_unterminated_literals;
        ] );
    ]
