(* Pinned frontend oracle.  The lexer's tokens and locations reach object
   bytes, so two digests per program pin the frontend end to end: the
   token stream (token, file, line, column — lexed from the preprocessed
   text) and the linked database.  The digests were taken from the
   ocamllex lexer this frontend replaced; a change to either means a
   tokenization or location rule moved. *)

open Cla_ir
open Cla_cfront
module T = Ctoken

let repr = function
  | T.INTLIT (v, s) -> Printf.sprintf "I%Ld:%s" v s
  | T.CHARLIT c -> Printf.sprintf "C%d" c
  | T.STRLIT s -> Printf.sprintf "S%S" s
  | T.FLOATLIT s -> "F" ^ s
  | T.IDENT s -> "N" ^ s
  | t -> T.to_string t

let add_stream b ~file text =
  let { Clexer.toks; locs } = Clexer.scan ~file text in
  Array.iteri
    (fun i tok ->
      let l = locs.(i) in
      Printf.bprintf b "%s\t%s\t%d\t%d\n" (repr tok) l.Loc.file l.Loc.line l.Loc.col)
    toks

let digest s = Digest.to_hex (Digest.string s)

let token_digest files =
  let b = Buffer.create (1 lsl 16) in
  List.iter (fun (file, src) -> add_stream b ~file (Cpp.preprocess_string ~file src)) files;
  digest (Buffer.contents b)

let linked_digest files =
  digest (Cla_core.Pipeline.compile_link files).Cla_core.Objfile.data

let genc name =
  let open Cla_workload in
  Genc.generate (Profile.scaled 0.05 (Option.get (Profile.find name)))

let check_program name ~tokens ~linked () =
  let files = genc name in
  Alcotest.(check string) "token stream" tokens (token_digest files);
  Alcotest.(check string) "linked database" linked (linked_digest files)

(* Every spelling quirk that reaches object bytes, lexed without cpp:
   0-prefixed and suffixed integers, an overflowing literal, floats with
   and without exponents, char escapes (['\1'] is 49, octal and hex are
   masked to 255), strings spanning lines with and without a backslash,
   a stray directive, markers mid-stream, longest-match punctuation and
   a CRLF ending. *)
let quirks =
  "# 5 \"q.c\"\n\
   int a = 017, b = 0x1Fu, c = 42UL, d = 99999999999999999999, d2 = 0xg;\n\
   double e = 1.5, f = .5f, g = 2e10, h = 1.e5L, i = 3E-2F, i2 = 1e+x;\n\
   char j = 'a', k = '\\n', l = '\\1', m = '\\101', n = '\\x41', o = '\\xfff', p = '\\'';\n\
   /* multi\n   line */ char *s = \"tab\\there\\\nnext\", *t = \"line1\nline2\";\n\
   #pragma once\n\
   x+++y; a->b <<= c >>= d ... e.f .. g;\n\
  \t# 12 \"r.h\" 3\n\
   z // tail\n\
   ;\r\n"

let test_quirks () =
  let b = Buffer.create 256 in
  add_stream b ~file:"quirks.i" quirks;
  Alcotest.(check string) "token stream" "8cfd71c258e066e1dede046c66632647"
    (digest (Buffer.contents b))

let fuzz_dir = "../examples/fuzz"

let test_fuzz_corners () =
  let files =
    Sys.readdir fuzz_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".c")
    |> List.sort String.compare
    |> List.map (fun f ->
           (f, In_channel.with_open_bin (Filename.concat fuzz_dir f) In_channel.input_all))
  in
  Alcotest.(check (list string)) "corpus"
    [ "array_decay.c"; "fptr_struct_field.c"; "varargs_bucket.c" ]
    (List.map fst files);
  Alcotest.(check string) "token stream" "de9d8066eec4133f066656ce2a2630d7"
    (token_digest files);
  Alcotest.(check (list string)) "linked databases"
    [
      "f154a1be67829b22c48da5142123e0b0";
      "69f4f3116a3588fb24a1fe3a2438c90d";
      "99a859e97b09c3721923aac8d5837953";
    ]
    (List.map (fun f -> linked_digest [ f ]) files)

let () =
  Alcotest.run "frontend_pins"
    [
      ( "genc",
        [
          Alcotest.test_case "nethack" `Quick
            (check_program "nethack" ~tokens:"c35bb229859d1e7ff57f32aa1d0bf60c"
               ~linked:"a4a5aa954dc4c32b8ad48595ef7322fb");
          Alcotest.test_case "vortex" `Quick
            (check_program "vortex" ~tokens:"4d10aed33d78156f01abb51849301755"
               ~linked:"6bdb158c01b43bb0f8764270fa1bbcb2");
          Alcotest.test_case "gimp" `Quick
            (check_program "gimp" ~tokens:"31ba28f7183410a5d8e1f1dfd65a687c"
               ~linked:"83a38276ebb9f59daeb8af6415cf8ce5");
        ] );
      ( "corpus",
        [
          Alcotest.test_case "quirks" `Quick test_quirks;
          Alcotest.test_case "fuzz corners" `Quick test_fuzz_corners;
        ] );
    ]
