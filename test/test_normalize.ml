(* Tests for the normalizer: C constructs -> primitive assignments.
   These pin down the translation rules of Sections 3-4 of the paper. *)

open Cla_ir
open Cla_cfront

let prog ?(mode = Normalize.Field_based) src =
  Frontend.prog_of_string ~options:{ Frontend.default_options with mode }
    ~file:"t.c" src

(* primitive assignments as strings, e.g. "p = &x", "u =[+] v" *)
let prims ?mode src =
  List.map Prim.to_string (prog ?mode src).Prog.assigns

let has ?mode src s = List.mem s (prims ?mode src)

let check_has name src expected =
  Alcotest.test_case name `Quick (fun () ->
      let ps = prims src in
      List.iter
        (fun e ->
          Alcotest.(check bool)
            (Fmt.str "%s in [%s]" e (String.concat "; " ps))
            true (List.mem e ps))
        expected)

let check_not name src absent =
  Alcotest.test_case name `Quick (fun () ->
      let ps = prims src in
      List.iter
        (fun e ->
          Alcotest.(check bool) (e ^ " must be absent") false (List.mem e ps))
        absent)

(* ------------------------------------------------------------------ *)
(* Core forms (Figure 2/3 of the paper)                                *)
(* ------------------------------------------------------------------ *)

let core_tests =
  [
    check_has "simple copy" "int x, y; void f(void) { x = y; }" [ "x = y" ];
    check_has "address of" "int x, *p; void f(void) { p = &x; }" [ "p = &x" ];
    check_has "store" "int x, *p; void f(void) { *p = x; }" [ "*p = x" ];
    check_has "load" "int x, *p; void f(void) { x = *p; }" [ "x = *p" ];
    check_has "deref both sides" "int *p, *q; void f(void) { *p = *q; }"
      [ "*p = *q" ];
    check_has "figure 3 temp split"
      "int x, *y; int **z; void f(void) { z = &y; *z = &x; }"
      [ "z = &y"; "#0 = &x"; "*z = #0" ];
    check_has "deref of addr collapses"
      "int x, y; void f(void) { x = *(&y); }" [ "x = y" ];
    check_has "addr of deref collapses"
      "int *p, *q; void f(void) { p = &(*q); }" [ "p = q" ];
  ]

(* ------------------------------------------------------------------ *)
(* Operations and strength provenance                                  *)
(* ------------------------------------------------------------------ *)

let op_tests =
  [
    check_has "binop splits into two copies"
      "int x, y, z; void f(void) { x = y + z; }" [ "x =[+] y"; "x =[+] z" ];
    check_has "nested binop uses temp"
      "int x, a, b, c; void f(void) { x = (a + b) * c; }"
      [ "#0 =[+] a"; "#0 =[+] b"; "x =[*] #0"; "x =[*] c" ];
    check_has "unary not recorded" "int x, y; void f(void) { x = !y; }"
      [ "x =[!] y" ];
    check_has "cast recorded" "int x; long y; void f(void) { x = (int)y; }"
      [ "x =[cast] y" ];
    check_has "conditional contributes both arms"
      "int x, a, b, c; void f(void) { x = c ? a : b; }"
      [ "x =[?:] a"; "x =[?:] b" ];
    check_has "compound assignment"
      "int x, y; void f(void) { x += y; }" [ "x =[+] y" ];
    check_not "increment is a no-op" "int x; void f(void) { x++; ++x; }"
      [ "x = x" ];
    check_has "comma evaluates both"
      "int x, a, b, c; void f(void) { x = (a = b, c); }" [ "a = b"; "x = c" ];
  ]

(* ------------------------------------------------------------------ *)
(* Structs: field-based vs field-independent (Section 3)               *)
(* ------------------------------------------------------------------ *)

let fields_src =
  "struct S { int *x; int *y; } A, B;\n\
   int z;\n\
   void f(void) { A.x = &z; }\n"

let test_field_based () =
  Alcotest.(check bool) "assigns to S.x" true (has fields_src "S.x = &z");
  Alcotest.(check bool) "not to A" false (has fields_src "A = &z")

let test_field_independent () =
  Alcotest.(check bool) "assigns to A" true
    (has ~mode:Normalize.Field_independent fields_src "A = &z");
  Alcotest.(check bool) "not to S.x" false
    (has ~mode:Normalize.Field_independent fields_src "S.x = &z")

let test_same_name_distinct_structs () =
  (* "two fields of different structs that happen to have the same name are
     treated as separate entities" *)
  let src =
    "struct A { int *x; } a; struct B { int *x; } b; int z;\n\
     void f(void) { a.x = &z; b.x = a.x; }"
  in
  let ps = prims src in
  Alcotest.(check bool) "A.x" true (List.mem "A.x = &z" ps);
  Alcotest.(check bool) "B.x = A.x" true (List.mem "B.x = A.x" ps)

let test_arrow_is_field_based () =
  let src =
    "struct S { int *x; } s, *p; int z;\nvoid f(void) { p->x = &z; }"
  in
  Alcotest.(check bool) "p->x assigns the field var" true (has src "S.x = &z")

let test_field_var_declared_per_definition () =
  (* field variables exist even when never accessed *)
  let p = prog "struct S { int *never_used; int also_unused; };" in
  let names = Array.to_list (Array.map Var.display p.Prog.vars) in
  Alcotest.(check bool) "S.never_used exists" true
    (List.mem "S.never_used" names)

let test_struct_initializer () =
  let src = "int z; struct S { int *a; int *b; } s = { &z, 0 };" in
  Alcotest.(check bool) "init assigns first field" true (has src "S.a = &z")

let test_designated_initializer () =
  let src = "int z; struct S { int *a; int *b; } s = { .b = &z };" in
  Alcotest.(check bool) "designator respected" true (has src "S.b = &z")

(* ------------------------------------------------------------------ *)
(* Arrays (index-independent) and strings                              *)
(* ------------------------------------------------------------------ *)

let array_tests =
  [
    check_has "array element write is array write"
      "int *a[4]; int z; void f(int i) { a[i] = &z; }" [ "a = &z" ];
    check_has "array element read"
      "int *a[4]; int *p; void f(int i) { p = a[i]; }" [ "p = a" ];
    check_has "array decays to its own address"
      "int a[4]; int *p; void f(void) { p = a; }" [ "p = &a" ];
    check_has "pointer subscript is a deref"
      "int *p; int x; void f(int i) { x = p[i]; }" [ "x = *p" ];
    check_has "pointer subscript store"
      "int *p; int x; void f(int i) { p[i] = x; }" [ "*p = x" ];
    check_not "string literals ignored"
      "char *s; void f(void) { s = \"hello\"; }" [ "s = &hello" ];
  ]

(* ------------------------------------------------------------------ *)
(* Functions                                                           *)
(* ------------------------------------------------------------------ *)

let fun_tests =
  [
    check_has "definition binds params and return"
      "int f(int a) { return a; }" [ "a = f@1"; "f@ret = a" ];
    check_has "direct call"
      "int g(int x) { return x; } int y, r; void f(void) { r = g(y); }"
      [ "g@1 = y"; "r = g@ret" ];
    check_has "function name decays to function pointer"
      "int g(void) { return 0; } int (*fp)(void); void f(void) { fp = g; }"
      [ "fp = &g" ];
    check_has "explicit address of function"
      "int g(void) { return 0; } int (*fp)(void); void f(void) { fp = &g; }"
      [ "fp = &g" ];
    check_has "argument through operation"
      "int g(int x) { return x; } int a, b; void f(void) { g(a + b); }"
      [ "g@1 =[+] a"; "g@1 =[+] b" ];
  ]

let test_indirect_call_marked () =
  let p =
    prog
      "int (*fp)(int); int a, r;\nvoid f(void) { r = (*fp)(a); r = fp(a); }"
  in
  Alcotest.(check int) "two indirect sites" 2 (List.length p.Prog.indirects)

let test_fundef_records () =
  let p = prog "int f(int a, int b) { return a; } void g(void) {}" in
  Alcotest.(check int) "two fundefs" 2 (List.length p.Prog.fundefs);
  let f = List.find (fun (fd : Prog.fundef) -> Var.name fd.Prog.fvar = "f") p.Prog.fundefs in
  Alcotest.(check int) "arity 2" 2 f.Prog.arity

(* ------------------------------------------------------------------ *)
(* Heap, locals, statics                                               *)
(* ------------------------------------------------------------------ *)

let test_malloc_fresh_sites () =
  let p =
    prog
      "char *a, *b;\nvoid f(void) { a = (char*)malloc(4); b = (char*)malloc(4); }"
  in
  let heaps =
    Array.to_list p.Prog.vars
    |> List.filter (fun v -> Var.kind v = Var.Heap)
  in
  Alcotest.(check int) "two heap sites" 2 (List.length heaps)

let test_locals_of_different_functions_distinct () =
  let p = prog "void f(void) { int x; x = 1; } void g(void) { int x; x = 2; }" in
  let xs =
    Array.to_list p.Prog.vars
    |> List.filter (fun v -> Var.name v = "x")
  in
  Alcotest.(check int) "two distinct x" 2 (List.length xs)

let test_static_is_intern () =
  let p = prog "static int s; int g;" in
  let find n = Array.to_list p.Prog.vars |> List.find (fun v -> Var.name v = n) in
  Alcotest.(check bool) "static intern" true (Var.linkage (find "s") = Var.Intern);
  Alcotest.(check bool) "global extern" true (Var.linkage (find "g") = Var.Extern)

let test_undeclared_id_becomes_global () =
  (* common when a system header was skipped *)
  let p = prog "void f(void) { undeclared_var = 3; }" in
  let names = Array.to_list (Array.map Var.name p.Prog.vars) in
  Alcotest.(check bool) "implicit global" true (List.mem "undeclared_var" names)

let test_union_like_struct () =
  (* unions get the field-based treatment too: one object per field of
     the union type *)
  let src =
    "union U { int *p; long bits; } u;\nint z;\nvoid f(void) { u.p = &z; }"
  in
  Alcotest.(check bool) "assigns to U.p" true (has src "U.p = &z")

let test_anonymous_member_flattened () =
  (* fields of an anonymous struct member belong to the enclosing type *)
  let src =
    "struct Outer { struct { int *inner; }; int tag; } o;\n\
     int z;\nvoid f(void) { o.inner = &z; }"
  in
  let ps = prims src in
  Alcotest.(check bool)
    (Fmt.str "inner reachable through Outer: [%s]" (String.concat "; " ps))
    true
    (List.mem "Outer.inner = &z" ps)

let test_struct_assignment_tolerated () =
  (* whole-struct copies are value copies of the base objects; the
     field-based analysis carries fields per type, so nothing extra is
     needed — but it must not crash or corrupt counts *)
  let src = "struct S { int *f; } s1, s2;\nvoid f(void) { s1 = s2; }" in
  let c = Prog.counts (prog src) in
  Alcotest.(check int) "one copy" 1 c.Prim.n_copy

let check_has' src expected =
  let ps = prims src in
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (Fmt.str "%s in [%s]" e (String.concat "; " ps))
        true (List.mem e ps))
    expected

let test_nested_calls () =
  let src =
    "int g(int v) { return v; }\nint h(int v) { return v; }\n\
     int x, r;\nvoid f(void) { r = g(h(x)); }"
  in
  check_has' src [ "h@1 = x"; "g@1 = h@ret"; "r = g@ret" ]

let test_function_returning_funptr () =
  let src =
    "int cb(int v) { return v; }\n\
     int (*pick(void))(int) { return cb; }\n\
     int (*chosen)(int);\n\
     void f(void) { chosen = pick(); }"
  in
  check_has' src [ "pick@ret = &cb"; "chosen = pick@ret" ]

let test_address_of_array_element () =
  (* &a[i] is the address of the (index-independent) array object *)
  let src = "int a[8]; int *p;\nvoid f(int i) { p = &a[i]; }" in
  Alcotest.(check bool) "p = &a" true (has src "p = &a")

let test_ternary_pointer () =
  let src =
    "int x, y; int *p;\nvoid f(int c) { p = c ? &x : &y; }"
  in
  let ps = prims src in
  Alcotest.(check bool) "both arms" true
    (List.mem "p = &x" ps && List.mem "p = &y" ps)

let test_table2_counts () =
  let src =
    "int x, y, z, *p, *q;\n\
     void f(void) { x = y; x = z; *p = z; p = q; q = &y; x = *p; }"
  in
  let c = Prog.counts (prog src) in
  (* x=y, x=z, p=q, plus nothing for the fundef (no params) *)
  Alcotest.(check int) "copies" 3 c.Prim.n_copy;
  Alcotest.(check int) "addr" 1 c.Prim.n_addr;
  Alcotest.(check int) "store" 1 c.Prim.n_store;
  Alcotest.(check int) "load" 1 c.Prim.n_load;
  Alcotest.(check int) "deref2" 0 c.Prim.n_deref2

(* ------------------------------------------------------------------ *)
(* Previously-failing corners, pinned as fixed inputs (examples/fuzz)  *)
(* ------------------------------------------------------------------ *)

(* The differential fuzzer (`cla fuzz`) surfaced these three dropped
   corners; each lives as a fixed input under examples/fuzz/ and is
   pinned here to its full primitive-statement dump. *)
let read_example name =
  let file = Filename.concat "../examples/fuzz" name in
  let ic = open_in_bin file in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let check_dump name file expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list string))
        (file ^ " primitive dump") expected
        (prims (read_example file)))

(* Reading a unit from disk closes its channel on every path, a failed
   read included; a directory opens but cannot be read. *)
let test_prog_of_file () =
  let file = Filename.concat "../examples/fuzz" "array_decay.c" in
  let from_disk = Frontend.prog_of_file file in
  let from_text = Frontend.prog_of_string ~file (read_example "array_decay.c") in
  Alcotest.(check (list string)) "same primitives"
    (List.map Prim.to_string from_text.Prog.assigns)
    (List.map Prim.to_string from_disk.Prog.assigns);
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  if Sys.file_exists "/proc/self/fd" then begin
    let before = open_fds () in
    for _ = 1 to 20 do
      match Frontend.prog_of_file "../examples/fuzz" with
      | _ -> Alcotest.fail "read a directory"
      | exception Sys_error _ -> ()
    done;
    Alcotest.(check int) "no descriptor leaked" before (open_fds ())
  end

let corner_tests =
  [
    Alcotest.test_case "prog_of_file closes its channel" `Quick test_prog_of_file;
    check_dump "function pointer through struct field"
      "fptr_struct_field.c"
      [ "p = f0@1"; "sp = &s"; "S.h0 = &f0"; "ip0@1 = &g0"; "ip0@1 = &g0" ];
    Alcotest.test_case "struct-field calls link indirectly" `Quick
      (fun () ->
        let p = prog (read_example "fptr_struct_field.c") in
        Alcotest.(check (list string))
          "both call sites go through the field object" [ "S.h0"; "S.h0" ]
          (List.map
             (fun (i : Prog.indirect) -> Var.name i.Prog.ptr)
             p.Prog.indirects));
    check_dump "multi-level array decay" "array_decay.c"
      [ "arr = &g0"; "m = &g1"; "row = &m"; "#0 = &g0"; "*row = #0" ];
    check_dump "varargs call site fills the bucket" "varargs_bucket.c"
      [
        "n = v0@1"; "ap = &v0@..."; "t = *ap"; "v0@ret = t"; "v0@2 = &g0";
        "v0@... = &g0"; "v0@3 = &g1"; "v0@... = &g1"; "t0 = v0@ret";
      ];
  ]

let () =
  Alcotest.run "normalize"
    [
      ("core forms", core_tests);
      ("operations", op_tests);
      ( "structs",
        [
          Alcotest.test_case "field-based" `Quick test_field_based;
          Alcotest.test_case "field-independent" `Quick test_field_independent;
          Alcotest.test_case "same field name, different structs" `Quick
            test_same_name_distinct_structs;
          Alcotest.test_case "arrow access" `Quick test_arrow_is_field_based;
          Alcotest.test_case "fields exist per definition" `Quick
            test_field_var_declared_per_definition;
          Alcotest.test_case "initializers" `Quick test_struct_initializer;
          Alcotest.test_case "designators" `Quick test_designated_initializer;
        ] );
      ("arrays and strings", array_tests);
      ( "functions",
        fun_tests
        @ [
            Alcotest.test_case "indirect calls marked" `Quick test_indirect_call_marked;
            Alcotest.test_case "fundef records" `Quick test_fundef_records;
          ] );
      ( "objects",
        [
          Alcotest.test_case "malloc sites fresh" `Quick test_malloc_fresh_sites;
          Alcotest.test_case "local scoping" `Quick test_locals_of_different_functions_distinct;
          Alcotest.test_case "linkage" `Quick test_static_is_intern;
          Alcotest.test_case "undeclared ids" `Quick test_undeclared_id_becomes_global;
          Alcotest.test_case "table 2 counts" `Quick test_table2_counts;
        ] );
      ( "edge cases",
        [
          Alcotest.test_case "unions" `Quick test_union_like_struct;
          Alcotest.test_case "anonymous members" `Quick test_anonymous_member_flattened;
          Alcotest.test_case "struct assignment" `Quick test_struct_assignment_tolerated;
          Alcotest.test_case "nested calls" `Quick test_nested_calls;
          Alcotest.test_case "function returning funptr" `Quick test_function_returning_funptr;
          Alcotest.test_case "&a[i]" `Quick test_address_of_array_element;
          Alcotest.test_case "ternary pointers" `Quick test_ternary_pointer;
        ] );
      ("fuzz corners", corner_tests);
    ]
