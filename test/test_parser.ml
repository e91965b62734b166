(* Tests for the recursive-descent C parser: declarations, declarators,
   typedef sensitivity, statements, expressions, composites. *)

open Cla_cfront
open Cast

let parse src = (Cparser.parse_string ~file:"t.c" src).Cparser.tunit

let parse_ok name src =
  Alcotest.test_case name `Quick (fun () ->
      try ignore (parse src)
      with Cparser.Parse_error (m, l) ->
        Alcotest.fail (Fmt.str "parse error: %s at %a" m Cla_ir.Loc.pp l))

let parse_fails name src =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool) "must fail" true
        (try
           ignore (parse src);
           false
         with Cparser.Parse_error _ | Clexer.Error _ -> true))

(* find the first declaration of [name] in the unit *)
let decl_of tu name =
  List.find_map
    (function
      | Tdecl ds -> List.find_opt (fun d -> d.dname = name) ds
      | Tfundef _ -> None)
    tu.tops

let typ_str t = Cast.typ_to_string t

let check_typ name src var expected =
  Alcotest.test_case name `Quick (fun () ->
      let tu = parse src in
      match decl_of tu var with
      | Some d -> Alcotest.(check string) var expected (typ_str d.dtyp)
      | None -> Alcotest.fail ("no declaration of " ^ var))

(* ------------------------------------------------------------------ *)
(* Declarators                                                         *)
(* ------------------------------------------------------------------ *)

let declarator_tests =
  [
    check_typ "simple int" "int x;" "x" "int";
    check_typ "pointer" "int *p;" "p" "int*";
    check_typ "pointer to pointer" "int **pp;" "pp" "int**";
    check_typ "array" "int a[10];" "a" "int[]";
    check_typ "array of pointers" "int *a[10];" "a" "int*[]";
    check_typ "pointer to array" "int (*pa)[10];" "pa" "int[]*";
    check_typ "function pointer" "int (*fp)(int, char);" "fp" "int(int,char)*";
    check_typ "array of function pointers" "int (*tbl[4])(void);" "tbl" "int()*[]";
    check_typ "function returning pointer" "int *f(void);" "f" "int*()";
    check_typ "const qualified" "const unsigned long x;" "x" "unsigned long";
    check_typ "struct type" "struct S { int a; } s;" "s" "struct S";
    check_typ "union type" "union U { int a; float b; } u;" "u" "union U";
    check_typ "enum type" "enum E { A, B } e;" "e" "enum E";
    check_typ "multi declarators"
      "int x, *p, a[3];" "p" "int*";
    check_typ "2d array" "int m[3][4];" "m" "int[][]";
    check_typ "ptr to fn returning ptr" "char *(*f)(void);" "f" "char*()*";
  ]

(* ------------------------------------------------------------------ *)
(* Typedefs                                                            *)
(* ------------------------------------------------------------------ *)

let test_typedef_basic () =
  let tu = parse "typedef int myint; myint x;" in
  match decl_of tu "x" with
  | Some d -> Alcotest.(check string) "uses typedef" "myint" (typ_str d.dtyp)
  | None -> Alcotest.fail "x not declared"

let test_typedef_struct () =
  let tu = parse "typedef struct S { int a; } S_t; S_t s;" in
  (match decl_of tu "s" with
  | Some d -> Alcotest.(check string) "typedef name" "S_t" (typ_str d.dtyp)
  | None -> Alcotest.fail "s not declared");
  Alcotest.(check int) "struct collected" 1 (List.length tu.comps)

let test_typedef_disambiguation () =
  (* "T * x;" is a declaration when T is a typedef, an expression otherwise *)
  let tu = parse "typedef int T; void f(void) { T * x; }" in
  ignore tu;
  (* and parses as multiplication when T is an object *)
  let tu2 = parse "void f(void) { int T, x, y; y = T * x; }" in
  ignore tu2

let test_typedef_shadowing () =
  (* a local variable may shadow a typedef name *)
  ignore (parse "typedef int T; void f(void) { int T; T = 3; }")

(* ------------------------------------------------------------------ *)
(* Composites                                                          *)
(* ------------------------------------------------------------------ *)

let test_nested_struct () =
  let tu = parse "struct A { struct B { int x; } b; int y; };" in
  Alcotest.(check int) "both structs collected" 2 (List.length tu.comps)

let test_anon_struct_tag () =
  let tu = parse "struct { int x; } v;" in
  match tu.comps with
  | [ c ] ->
      Alcotest.(check bool) "synthesized tag" true
        (String.length c.ctag > 0 && c.ctag.[0] = '$')
  | _ -> Alcotest.fail "expected one struct"

let test_bitfields () =
  let tu = parse "struct F { int a : 3; unsigned b : 1; int : 2; int c; };" in
  match tu.comps with
  | [ c ] -> Alcotest.(check int) "named fields" 3 (List.length c.cfields)
  | _ -> Alcotest.fail "expected one struct"

let test_enum_values () =
  let tu = parse "enum E { A, B = 10, C };" in
  match tu.enums with
  | [ (_, items) ] ->
      Alcotest.(check int) "three enumerators" 3 (List.length items);
      Alcotest.(check bool) "B = 10" true (List.assoc "B" items = Some 10L)
  | _ -> Alcotest.fail "expected one enum"

(* ------------------------------------------------------------------ *)
(* Functions                                                           *)
(* ------------------------------------------------------------------ *)

let fundef_of tu name =
  List.find_map
    (function Tfundef f when f.fname = name -> Some f | _ -> None)
    tu.tops

let test_fundef () =
  let tu = parse "int add(int a, int b) { return a + b; }" in
  match fundef_of tu "add" with
  | Some f ->
      Alcotest.(check int) "params" 2 (List.length f.fparams);
      Alcotest.(check string) "return type" "int" (typ_str f.freturn)
  | None -> Alcotest.fail "add not parsed as fundef"

let test_kr_fundef () =
  let tu = parse "int f(a, b) int a; int b; { return a; }" in
  match fundef_of tu "f" with
  | Some f -> Alcotest.(check int) "K&R params" 2 (List.length f.fparams)
  | None -> Alcotest.fail "K&R definition not parsed"

let test_variadic () =
  let tu = parse "int printf_like(char *fmt, ...) { return 0; }" in
  match fundef_of tu "printf_like" with
  | Some f -> Alcotest.(check bool) "variadic" true f.fvariadic
  | None -> Alcotest.fail "not parsed"

let test_void_params () =
  let tu = parse "int f(void) { return 0; }" in
  match fundef_of tu "f" with
  | Some f -> Alcotest.(check int) "no params" 0 (List.length f.fparams)
  | None -> Alcotest.fail "not parsed"

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

(* Extract the expression of the first expression-statement of function f *)
let first_expr tu =
  List.find_map
    (function
      | Tfundef f ->
          List.find_map
            (fun s -> match s.sdesc with Sexpr e -> Some e | _ -> None)
            f.fbody
      | _ -> None)
    tu.tops

let check_expr name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let tu = parse ("void f(void) { " ^ src ^ " }") in
      match first_expr tu with
      | Some e -> Alcotest.(check string) name expected (Cast.expr_to_string e)
      | None -> Alcotest.fail "no expression")

let expr_tests =
  [
    check_expr "precedence mul over add" "x = a + b * c;" "x = (a + (b * c))";
    check_expr "left assoc" "x = a - b - c;" "x = ((a - b) - c)";
    check_expr "shift vs compare" "x = a << 2 < b;" "x = ((a << 2) < b)";
    check_expr "bitand vs eq" "x = a & b == c;" "x = (a & (b == c))";
    check_expr "logic" "x = a && b || c;" "x = ((a && b) || c)";
    check_expr "assign right assoc" "a = b = c;" "a = b = c";
    check_expr "conditional" "x = a ? b : c;" "x = (a ? b : c)";
    check_expr "unary deref" "*p = x;" "*(p) = x";
    check_expr "addrof" "p = &x;" "p = &(x)";
    check_expr "member" "s.x = 1;" "(s).x = 1";
    check_expr "arrow chain" "p->q->r = 1;" "((p)->q)->r = 1";
    check_expr "index" "a[i] = 0;" "(a)[i] = 0";
    check_expr "call" "g(1, x);" "(g)(1, x)";
    check_expr "cast" "x = (long)y;" "x = (long)(y)";
    check_expr "sizeof type" "x = sizeof(int);" "x = sizeof(int)";
    check_expr "sizeof expr" "x = sizeof x;" "x = sizeof(x)";
    check_expr "compound assign" "x += 2;" "x += 2";
    check_expr "comma" "x = (a, b);" "x = (a, b)";
    check_expr "postincr" "x++;" "(x)++";
    check_expr "preincr" "++x;" "++(x)";
    check_expr "deref of cast" "x = *(int *)p;" "x = *((int*)(p))";
    check_expr "string concat" {|s = "ab" "cd";|} "s = \"abcd\"";
    check_expr "funptr call" "(*fp)(3);" "(*(fp))(3)";
  ]

(* ------------------------------------------------------------------ *)
(* Statements & misc                                                   *)
(* ------------------------------------------------------------------ *)

let statement_tests =
  [
    parse_ok "if/else" "void f(int x) { if (x) x = 1; else x = 2; }";
    parse_ok "while" "void f(int x) { while (x) x--; }";
    parse_ok "do-while" "void f(int x) { do x--; while (x); }";
    parse_ok "for" "void f(void) { int i; for (i = 0; i < 10; i++) ; }";
    parse_ok "for with decl" "void f(void) { for (int i = 0; i < 10; i++) ; }";
    parse_ok "switch" "void f(int x) { switch (x) { case 1: x = 2; break; default: x = 0; } }";
    parse_ok "goto/labels" "void f(void) { goto end; end: ; }";
    parse_ok "nested blocks" "void f(void) { { int x; { int y; y = x; } } }";
    parse_ok "decl after stmt" "void f(void) { f(); int x; x = 1; }";
    parse_ok "empty statements" "void f(void) { ;;; }";
    parse_ok "designated init" "struct P { int x, y; }; struct P p = { .y = 2, .x = 1 };";
    parse_ok "array init" "int a[3] = { 1, 2, 3 };";
    parse_ok "nested init" "struct Q { int a[2]; int b; }; struct Q q = { { 1, 2 }, 3 };";
    parse_ok "compound literal" "struct P { int x; }; void f(void) { g((struct P){ 1 }); }";
    parse_ok "gnu attribute" "int x __attribute__((unused));";
    parse_ok "extern decl in function" "int g; void f(void) { extern int g; g = 1; }";
    parse_ok "old-style empty params" "int f(); int g(void) { return f(1, 2); }";
    parse_ok "static function" "static int f(void) { return 1; }";
    parse_fails "missing semicolon" "int x";
    parse_fails "unbalanced brace" "void f(void) { if (x) { }";
    parse_fails "bad initializer" "int x = ;";
  ]

(* The type spelling recorded as each variable's type reaches object
   bytes; these are the spellings of the Fmt printer it replaced, one
   per constructor, with the quirks ([int(,...)]) kept. *)
let test_type_spelling () =
  let p ?name t = { pname = name; ptyp = t } in
  List.iter
    (fun (want, t) ->
      Alcotest.(check string) want want (typ_to_string t);
      Alcotest.(check string) ("pp " ^ want) want (Fmt.str "%a" pp_typ t))
    [
      ("void", Tvoid);
      ("unsigned long", Tint "unsigned long");
      ("long double", Tfloat "long double");
      ("int*", Tptr (Tint "int"));
      ("char**", Tptr (Tptr (Tint "char")));
      ("char[]", Tarray (Tint "char", None));
      ("union u*[]", Tarray (Tptr (Tcomp (true, "u")), Some (mk_expr (Eint (3L, "3")))));
      ("void()", Tfun (Tvoid, [], false));
      ("int(,...)", Tfun (Tint "int", [], true));
      ( "void(char*,int)",
        Tfun (Tvoid, [ p (Tptr (Tint "char")); p ~name:"n" (Tint "int") ], false) );
      ("int(int,...)", Tfun (Tint "int", [ p (Tint "int") ], true));
      ( "int(struct s*)*",
        Tptr (Tfun (Tint "int", [ p (Tptr (Tcomp (false, "s"))) ], false)) );
      ("size_t", Tnamed "size_t");
      ("struct s", Tcomp (false, "s"));
      ("union $anon0@a.c", Tcomp (true, "$anon0@a.c"));
      ("enum e", Tenum "e");
    ]

(* The lexer used to run over the whole text before the parser began,
   so a lexing error anywhere outranks a parse error before it. *)
let test_lex_error_outranks_parse_error () =
  match parse "int x y; @" with
  | _ -> Alcotest.fail "parsed"
  | exception Cparser.Parse_error (m, _) -> Alcotest.fail ("parse error won: " ^ m)
  | exception Clexer.Error (msg, loc) ->
      Alcotest.(check string) "message" "unexpected character '@'" msg;
      Alcotest.(check int) "line" 1 loc.Cla_ir.Loc.line;
      Alcotest.(check int) "column of the character" 10 loc.Cla_ir.Loc.col

let test_parse_error_alone () =
  match parse "int x y;" with
  | _ -> Alcotest.fail "parsed"
  | exception Clexer.Error (msg, _) -> Alcotest.fail ("lex error: " ^ msg)
  | exception Cparser.Parse_error (msg, loc) ->
      Alcotest.(check string) "message" {|expected ";" but found "y"|} msg;
      Alcotest.(check int) "line" 1 loc.Cla_ir.Loc.line;
      (* a token's location is where its scan began: just after [x] *)
      Alcotest.(check int) "column" 6 loc.Cla_ir.Loc.col

let () =
  Alcotest.run "parser"
    [
      ("declarators", declarator_tests);
      ( "typedefs",
        [
          Alcotest.test_case "basic" `Quick test_typedef_basic;
          Alcotest.test_case "struct typedef" `Quick test_typedef_struct;
          Alcotest.test_case "T*x ambiguity" `Quick test_typedef_disambiguation;
          Alcotest.test_case "shadowing" `Quick test_typedef_shadowing;
        ] );
      ( "composites",
        [
          Alcotest.test_case "nested structs" `Quick test_nested_struct;
          Alcotest.test_case "anonymous tag" `Quick test_anon_struct_tag;
          Alcotest.test_case "bitfields" `Quick test_bitfields;
          Alcotest.test_case "enum values" `Quick test_enum_values;
        ] );
      ( "functions",
        [
          Alcotest.test_case "definition" `Quick test_fundef;
          Alcotest.test_case "K&R style" `Quick test_kr_fundef;
          Alcotest.test_case "variadic" `Quick test_variadic;
          Alcotest.test_case "void params" `Quick test_void_params;
        ] );
      ("expressions", expr_tests);
      ("statements", statement_tests);
      ("types", [ Alcotest.test_case "spelling" `Quick test_type_spelling ]);
      ( "errors",
        [
          Alcotest.test_case "lex error outranks parse error" `Quick
            test_lex_error_outranks_parse_error;
          Alcotest.test_case "parse error alone" `Quick test_parse_error_alone;
        ] );
    ]
