(** C lexer over preprocessed text: one pass into a flat token array and
    a parallel location array.  Understands the GNU-style line markers
    [# <line> "<file>"] that {!Cpp} emits, so locations refer to original
    source files. *)

(** A lexing error and the location of the offending character (for an
    unterminated comment or string, of its opening delimiter). *)
exception Error of string * Cla_ir.Loc.t

(** [toks] ends with [EOF].  [locs.(i)] is where the scan for [toks.(i)]
    began: the end of the previous token, before the blanks, comments
    and line markers in between — the locations objects encode. *)
type t = { toks : Ctoken.t array; locs : Cla_ir.Loc.t array }

(** Lex preprocessed text; [file] (default ["<string>"]) names it until
    the first line marker. *)
val scan : ?file:string -> string -> t

(** {!scan} without its final copy: [(toks, locs, n)] where the first
    [n] entries are [scan]'s and the arrays may run on past them. *)
val scan_untrimmed :
  ?file:string -> string -> Ctoken.t array * Cla_ir.Loc.t array * int

(** The tokens alone, ending with [EOF]. *)
val tokens_of_string : ?file:string -> string -> Ctoken.t list
