(** Tokens produced by the C lexer.

    Typedef names are not distinguished here: the lexer returns [IDENT] and
    the (context-sensitive) parser consults its typedef table, the standard
    way to handle C's declaration/expression ambiguity in recursive
    descent. *)

type t =
  | IDENT of string
  | INTLIT of int64 * string  (** value (best effort) and original spelling *)
  | FLOATLIT of string
  | CHARLIT of int
  | STRLIT of string
  (* keywords *)
  | KW_AUTO | KW_BREAK | KW_CASE | KW_CHAR | KW_CONST | KW_CONTINUE
  | KW_DEFAULT | KW_DO | KW_DOUBLE | KW_ELSE | KW_ENUM | KW_EXTERN
  | KW_FLOAT | KW_FOR | KW_GOTO | KW_IF | KW_INLINE | KW_INT | KW_LONG
  | KW_REGISTER | KW_RETURN | KW_SHORT | KW_SIGNED | KW_SIZEOF | KW_STATIC
  | KW_STRUCT | KW_SWITCH | KW_TYPEDEF | KW_UNION | KW_UNSIGNED | KW_VOID
  | KW_VOLATILE | KW_WHILE
  (* punctuation *)
  | LPAREN | RPAREN | LBRACKET | RBRACKET | LBRACE | RBRACE
  | SEMI | COMMA | COLON | QUESTION | ELLIPSIS
  | DOT | ARROW
  | PLUSPLUS | MINUSMINUS
  | AMP | STAR | PLUS | MINUS | TILDE | BANG
  | SLASH | PERCENT | LTLT | GTGT | LT | GT | LE | GE | EQEQ | BANGEQ
  | CARET | BAR | AMPAMP | BARBAR
  | EQ | PLUSEQ | MINUSEQ | STAREQ | SLASHEQ | PERCENTEQ
  | LTLTEQ | GTGTEQ | AMPEQ | CARETEQ | BAREQ
  | EOF

(** The token an identifier-shaped spelling lexes to: a keyword (GNU
    alternate spellings included) or [IDENT]. *)
let of_ident = function
  | "auto" -> KW_AUTO | "break" -> KW_BREAK | "case" -> KW_CASE
  | "char" -> KW_CHAR | "const" | "__const" | "__const__" -> KW_CONST
  | "continue" -> KW_CONTINUE | "default" -> KW_DEFAULT | "do" -> KW_DO
  | "double" -> KW_DOUBLE | "else" -> KW_ELSE | "enum" -> KW_ENUM
  | "extern" -> KW_EXTERN | "float" -> KW_FLOAT | "for" -> KW_FOR
  | "goto" -> KW_GOTO | "if" -> KW_IF
  | "inline" | "__inline" | "__inline__" -> KW_INLINE
  | "int" -> KW_INT | "long" -> KW_LONG | "register" -> KW_REGISTER
  | "return" -> KW_RETURN | "short" -> KW_SHORT
  | "signed" | "__signed__" -> KW_SIGNED | "sizeof" -> KW_SIZEOF
  | "static" -> KW_STATIC | "struct" -> KW_STRUCT | "switch" -> KW_SWITCH
  | "typedef" -> KW_TYPEDEF | "union" -> KW_UNION | "unsigned" -> KW_UNSIGNED
  | "void" -> KW_VOID | "volatile" | "__volatile__" -> KW_VOLATILE
  | "while" -> KW_WHILE
  | s -> IDENT s

let to_string = function
  | IDENT s -> s
  | INTLIT (_, s) -> s
  | FLOATLIT s -> s
  | CHARLIT c -> Fmt.str "'\\%03d'" c
  | STRLIT s -> Fmt.str "%S" s
  | KW_AUTO -> "auto" | KW_BREAK -> "break" | KW_CASE -> "case"
  | KW_CHAR -> "char" | KW_CONST -> "const" | KW_CONTINUE -> "continue"
  | KW_DEFAULT -> "default" | KW_DO -> "do" | KW_DOUBLE -> "double"
  | KW_ELSE -> "else" | KW_ENUM -> "enum" | KW_EXTERN -> "extern"
  | KW_FLOAT -> "float" | KW_FOR -> "for" | KW_GOTO -> "goto"
  | KW_IF -> "if" | KW_INLINE -> "inline" | KW_INT -> "int"
  | KW_LONG -> "long" | KW_REGISTER -> "register" | KW_RETURN -> "return"
  | KW_SHORT -> "short" | KW_SIGNED -> "signed" | KW_SIZEOF -> "sizeof"
  | KW_STATIC -> "static" | KW_STRUCT -> "struct" | KW_SWITCH -> "switch"
  | KW_TYPEDEF -> "typedef" | KW_UNION -> "union" | KW_UNSIGNED -> "unsigned"
  | KW_VOID -> "void" | KW_VOLATILE -> "volatile" | KW_WHILE -> "while"
  | LPAREN -> "(" | RPAREN -> ")" | LBRACKET -> "[" | RBRACKET -> "]"
  | LBRACE -> "{" | RBRACE -> "}" | SEMI -> ";" | COMMA -> ","
  | COLON -> ":" | QUESTION -> "?" | ELLIPSIS -> "..."
  | DOT -> "." | ARROW -> "->" | PLUSPLUS -> "++" | MINUSMINUS -> "--"
  | AMP -> "&" | STAR -> "*" | PLUS -> "+" | MINUS -> "-" | TILDE -> "~"
  | BANG -> "!" | SLASH -> "/" | PERCENT -> "%" | LTLT -> "<<"
  | GTGT -> ">>" | LT -> "<" | GT -> ">" | LE -> "<=" | GE -> ">="
  | EQEQ -> "==" | BANGEQ -> "!=" | CARET -> "^" | BAR -> "|"
  | AMPAMP -> "&&" | BARBAR -> "||" | EQ -> "=" | PLUSEQ -> "+="
  | MINUSEQ -> "-=" | STAREQ -> "*=" | SLASHEQ -> "/=" | PERCENTEQ -> "%="
  | LTLTEQ -> "<<=" | GTGTEQ -> ">>=" | AMPEQ -> "&=" | CARETEQ -> "^="
  | BAREQ -> "|=" | EOF -> "<eof>"

(* Monomorphic: constant constructors are immediates, so [==] decides
   them; only literal and identifier payloads need a look inside. *)
let equal (a : t) (b : t) =
  a == b
  ||
  match (a, b) with
  | IDENT x, IDENT y | FLOATLIT x, FLOATLIT y | STRLIT x, STRLIT y -> String.equal x y
  | INTLIT (v, x), INTLIT (w, y) -> Int64.equal v w && String.equal x y
  | CHARLIT x, CHARLIT y -> Int.equal x y
  | _ -> false
