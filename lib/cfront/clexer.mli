(** C lexer over preprocessed text: one pass, a token per {!next} call.
    Understands the GNU-style line markers [# <line> "<file>"] that
    {!Cpp} emits, so locations refer to original source files. *)

(** A lexing error and the location of the offending character (for an
    unterminated comment or string, of its opening delimiter). *)
exception Error of string * Cla_ir.Loc.t

(** The lexer's position in one text. *)
type scanner

(** Start lexing preprocessed text; [file] (default ["<string>"]) names
    it until the first line marker. *)
val scanner : ?file:string -> string -> scanner

(** Where the scan for the next token begins: the end of the previous
    token, before the blanks, comments and line markers in between —
    the location objects encode for the token {!next} returns. *)
val loc : scanner -> Cla_ir.Loc.t

(** The next token; [EOF] at the end of the text and on every call
    after it.  Raises {!Error} at the first bad character. *)
val next : scanner -> Ctoken.t

(** [toks] ends with [EOF]; [locs.(i)] is {!loc} just before [toks.(i)]
    was scanned. *)
type t = { toks : Ctoken.t array; locs : Cla_ir.Loc.t array }

(** Lex a whole text. *)
val scan : ?file:string -> string -> t

(** The tokens alone, ending with [EOF]. *)
val tokens_of_string : ?file:string -> string -> Ctoken.t list
