(* C lexer: one hand-written pass over preprocessed text, one token per
   [next] call, so the parser pulls tokens as it needs them.  Understands
   the GNU-style line markers [# <line> "<file>"] that the mini
   preprocessor (Cpp) emits, so tokens carry their original source
   locations.

   Every spelling rule below reaches object bytes (literal values and
   locations are encoded), so the rules are those of the ocamllex lexer
   this replaced, quirks included: longest match, a single-character
   escape winning a tie with a one-digit octal escape (['\1'] is 49),
   octal/hex char escapes masked to 255, and string escapes taking only
   the next character. *)

open Cla_ir
open Ctoken

exception Error of string * Loc.t

type t = { toks : Ctoken.t array; locs : Loc.t array }

(* ------------------------------------------------------------------ *)
(* Scanner                                                             *)
(* ------------------------------------------------------------------ *)

type scanner = {
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset where the current line starts *)
  mutable file : string;
  buf : Buffer.t;  (* string literal bodies *)
}

(* Lookahead past the end reads as NUL, which no rule accepts; rules
   that must tell the end apart (unterminated literals) test [len]. *)
let at sc i = if i < sc.len then String.unsafe_get sc.src i else '\000'
let is_digit = function '0' .. '9' -> true | _ -> false
let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false
let is_octal = function '0' .. '7' -> true | _ -> false

let is_int_suffix = function 'u' | 'U' | 'l' | 'L' -> true | _ -> false
let is_float_suffix = function 'f' | 'F' | 'l' | 'L' -> true | _ -> false

let rec skip_while sc p i = if p (at sc i) then skip_while sc p (i + 1) else i
let rec digits_end sc i = if is_digit (at sc i) then digits_end sc (i + 1) else i

let rec ident_end sc i =
  match at sc i with
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> ident_end sc (i + 1)
  | _ -> i

let here sc i = Loc.make ~file:sc.file ~line:sc.line ~col:(i - sc.bol + 1)
let error sc msg i = raise (Error (msg, here sc i))
let unexpected sc c i = error sc (Fmt.str "unexpected character %C" c) i

let newline sc next =
  sc.line <- sc.line + 1;
  sc.bol <- next

let int_of_spelling s =
  (* strip suffixes u/U/l/L; a 0 prefix reads decimally (017 = 17) *)
  let e = ref (String.length s) in
  while !e > 0 && is_int_suffix s.[!e - 1] do
    decr e
  done;
  try Int64.of_string (String.sub s 0 !e) with _ -> 0L

let char_of_escape = function
  | 'n' -> 10 | 't' -> 9 | 'r' -> 13 | 'b' -> 8 | 'f' -> 12
  | 'v' -> 11 | 'a' -> 7 | '0' -> 0 | '\\' -> 92 | '\'' -> 39
  | '"' -> 34 | '?' -> 63 | c -> Char.code c

(* End of an exponent [e[+-]digits] starting at [i], or [-1]. *)
let exponent_end sc i =
  match at sc i with
  | 'e' | 'E' ->
      let j = match at sc (i + 1) with '+' | '-' -> i + 2 | _ -> i + 1 in
      if is_digit (at sc j) then digits_end sc j else -1
  | _ -> -1

(* The tail of a float after its digits and optional point: an optional
   exponent, then at most one suffix letter. *)
let float_tail sc i =
  let i = match exponent_end sc i with -1 -> i | e -> e in
  if is_float_suffix (at sc i) then i + 1 else i

let lexeme sc start stop =
  sc.pos <- stop;
  String.sub sc.src start (stop - start)

let number sc p =
  let hex = at sc p = '0' && (at sc (p + 1) = 'x' || at sc (p + 1) = 'X') in
  if hex && is_hex (at sc (p + 2)) then
    let i = skip_while sc is_hex (p + 2) in
    let s = lexeme sc p (skip_while sc is_int_suffix i) in
    INTLIT (int_of_spelling s, s)
  else
    let i = digits_end sc p in
    if at sc i = '.' then FLOATLIT (lexeme sc p (float_tail sc (digits_end sc (i + 1))))
    else if exponent_end sc i >= 0 then FLOATLIT (lexeme sc p (float_tail sc i))
    else
      let s = lexeme sc p (skip_while sc is_int_suffix i) in
      INTLIT (int_of_spelling s, s)

let char_lit sc p =
  let c1 = at sc (p + 1) in
  let finish stop v = sc.pos <- stop; CHARLIT v in
  if c1 <> '\\' && c1 <> '\'' && at sc (p + 2) = '\'' then finish (p + 3) (Char.code c1)
  else if c1 <> '\\' then unexpected sc '\'' p
  else
    let c2 = at sc (p + 2) in
    (* ['\c'] wins a length tie with a one-digit octal escape *)
    if at sc (p + 3) = '\'' then finish (p + 4) (char_of_escape c2)
    else if is_octal c2 then
      let j = skip_while sc is_octal (p + 2) in
      if at sc j <> '\'' then unexpected sc '\'' p
      else
        let digits = String.sub sc.src (p + 2) (j - p - 2) in
        finish (j + 1) (int_of_string ("0o" ^ digits) land 255)
    else if c2 = 'x' && is_hex (at sc (p + 3)) then
      let j = skip_while sc is_hex (p + 3) in
      if at sc j <> '\'' then unexpected sc '\'' p
      else
        let digits = String.sub sc.src (p + 3) (j - p - 3) in
        finish (j + 1) (int_of_string ("0x" ^ digits) land 255)
    else unexpected sc '\'' p

let string_lit sc p =
  let b = sc.buf in
  Buffer.clear b;
  let start = here sc p in
  let rec go i =
    if i >= sc.len then raise (Error ("unterminated string", start));
    match String.unsafe_get sc.src i with
    | '"' ->
        sc.pos <- i + 1;
        STRLIT (Buffer.contents b)
    | '\\' when i + 1 < sc.len ->
        Buffer.add_char b (Char.chr (char_of_escape sc.src.[i + 1]));
        go (i + 2)
    | '\n' ->
        newline sc (i + 1);
        Buffer.add_char b '\n';
        go (i + 1)
    | c ->
        Buffer.add_char b c;
        go (i + 1)
  in
  go (p + 1)

let skip_comment sc p =
  let start = here sc p in
  let rec go i =
    if i >= sc.len then raise (Error ("unterminated comment", start))
    else
      match String.unsafe_get sc.src i with
      | '*' when at sc (i + 1) = '/' -> sc.pos <- i + 2
      | '\n' -> newline sc (i + 1); go (i + 1)
      | _ -> go (i + 1)
  in
  go (p + 2)

let index_from sc i c = try String.index_from sc.src i c with Not_found -> -1

(* A line starting with [#]: a [# N "file"] marker makes the next line
   line N of [file]; any other directive line (e.g. a [#pragma] that
   survived cpp) is skipped and counts one line. *)
let directive sc p =
  let blank = function ' ' | '\t' -> true | _ -> false in
  let d0 = skip_while sc blank (p + 1) in
  let d1 = digits_end sc d0 in
  let q0 = skip_while sc blank d1 in
  let marker =
    if d1 = d0 || at sc q0 <> '"' then None
    else
      match index_from sc (q0 + 1) '"' with
      | -1 -> None
      | q1 -> (
          match index_from sc (q1 + 1) '\n' with
          | -1 -> None
          | e -> Some (int_of_string (String.sub sc.src d0 (d1 - d0)), q1, e))
  in
  match marker with
  | Some (line, q1, e) ->
      sc.file <- String.sub sc.src (q0 + 1) (q1 - q0 - 1);
      sc.line <- line;
      sc.pos <- e + 1;
      sc.bol <- e + 1
  | None -> (
      match index_from sc (p + 1) '\n' with
      | -1 -> unexpected sc '#' p
      | e ->
          sc.pos <- e + 1;
          newline sc (e + 1))

(* Longest-match punctuation: [op2] if the next character is [c2],
   otherwise [op1]. *)
let punct2 sc p op1 c2 op2 =
  if at sc (p + 1) = c2 then (sc.pos <- p + 2; op2) else (sc.pos <- p + 1; op1)

let punct3 sc p op1 c2 op2 c3 op3 =
  match at sc (p + 1) with
  | c when c = c2 -> sc.pos <- p + 2; op2
  | c when c = c3 -> sc.pos <- p + 2; op3
  | _ -> sc.pos <- p + 1; op1

let single sc p op = sc.pos <- p + 1; op

(* The next token, scanning from [p]; on return [sc.pos] is just past
   its lexeme. *)
let rec token sc p =
  if p >= sc.len then (sc.pos <- p; EOF)
  else
    match String.unsafe_get sc.src p with
    | ' ' | '\t' | '\r' -> token sc (p + 1)
    | '\n' -> newline sc (p + 1); token sc (p + 1)
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> of_ident (lexeme sc p (ident_end sc (p + 1)))
    | '0' .. '9' -> number sc p
    | '#' -> directive sc p; token sc sc.pos
    | '/' -> (
        match at sc (p + 1) with
        | '/' -> token sc (match index_from sc p '\n' with -1 -> sc.len | e -> e)
        | '*' -> skip_comment sc p; token sc sc.pos
        | '=' -> sc.pos <- p + 2; SLASHEQ
        | _ -> sc.pos <- p + 1; SLASH)
    | '.' ->
        if is_digit (at sc (p + 1)) then
          FLOATLIT (lexeme sc p (float_tail sc (digits_end sc (p + 1))))
        else if at sc (p + 1) = '.' && at sc (p + 2) = '.' then (sc.pos <- p + 3; ELLIPSIS)
        else single sc p DOT
    | '\'' -> char_lit sc p
    | '"' -> string_lit sc p
    | '-' -> (
        match at sc (p + 1) with
        | '>' -> sc.pos <- p + 2; ARROW
        | '-' -> sc.pos <- p + 2; MINUSMINUS
        | '=' -> sc.pos <- p + 2; MINUSEQ
        | _ -> sc.pos <- p + 1; MINUS)
    | '+' -> punct3 sc p PLUS '+' PLUSPLUS '=' PLUSEQ
    | '<' ->
        if at sc (p + 1) = '<' then punct2 sc (p + 1) LTLT '=' LTLTEQ
        else punct2 sc p LT '=' LE
    | '>' ->
        if at sc (p + 1) = '>' then punct2 sc (p + 1) GTGT '=' GTGTEQ
        else punct2 sc p GT '=' GE
    | '=' -> punct2 sc p EQ '=' EQEQ
    | '!' -> punct2 sc p BANG '=' BANGEQ
    | '&' -> punct3 sc p AMP '&' AMPAMP '=' AMPEQ
    | '|' -> punct3 sc p BAR '|' BARBAR '=' BAREQ
    | '*' -> punct2 sc p STAR '=' STAREQ
    | '%' -> punct2 sc p PERCENT '=' PERCENTEQ
    | '^' -> punct2 sc p CARET '=' CARETEQ
    | '(' -> single sc p LPAREN
    | ')' -> single sc p RPAREN
    | '[' -> single sc p LBRACKET
    | ']' -> single sc p RBRACKET
    | '{' -> single sc p LBRACE
    | '}' -> single sc p RBRACE
    | ';' -> single sc p SEMI
    | ',' -> single sc p COMMA
    | ':' -> single sc p COLON
    | '?' -> single sc p QUESTION
    | '~' -> single sc p TILDE
    | c -> unexpected sc c p

let scanner ?(file = "<string>") src =
  { src; len = String.length src; pos = 0; line = 1; bol = 0; file; buf = Buffer.create 64 }

let loc sc = here sc sc.pos
let next sc = token sc sc.pos

let scan ?file src =
  let sc = scanner ?file src in
  let rec go toks locs =
    let l = loc sc in
    match next sc with
    | EOF -> (List.rev (EOF :: toks), List.rev (l :: locs))
    | t -> go (t :: toks) (l :: locs)
  in
  let toks, locs = go [] [] in
  { toks = Array.of_list toks; locs = Array.of_list locs }

let tokens_of_string ?file s = Array.to_list (scan ?file s).toks
