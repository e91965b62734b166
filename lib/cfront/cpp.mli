(** Mini C preprocessor.

    The paper's compile phase consumes unpreprocessed source; this covers
    the cpp subset real code and the synthetic workloads exercise:
    object- and function-like macros with [#] stringize and [##] paste and
    [__VA_ARGS__], [#include] with search paths and an in-memory virtual
    filesystem for tests, the full conditional family with a constant
    expression evaluator, [#undef], [#error], and comment handling.

    Output is plain text with GNU-style [# <line> "<file>"] markers which
    {!Clexer} interprets, so downstream locations refer to original
    files.  Missing [<system>] headers expand to nothing (the sealed
    environment has none and the analysis only needs assignment
    structure); missing ["local"] headers are errors. *)

exception Cpp_error of string * string * int
(** (message, file, line) *)

(** Preprocess [content] as if it were file [file]. *)
val preprocess_string :
  ?include_dirs:string list ->
  ?virtual_fs:(string * string) list ->
  ?defines:(string * string) list ->
  file:string ->
  string ->
  string

(** One [#include] lookup of a run: the name asked for, the directory a
    ["local"] include searches first ([""] for [<system>]), and the
    digest of the text it resolved to — [None] when nothing was found (a
    tolerated missing [<system>] header). *)
type lookup = { name : string; from_dir : string; digest : Digest.t option }

(** A run's lookups, in the order it made them: with the source text and
    the options, everything its output depends on. *)
type manifest = lookup list

(** {!preprocess_string}, also recording the run's {!manifest}. *)
val preprocess_recorded :
  ?include_dirs:string list ->
  ?virtual_fs:(string * string) list ->
  ?defines:(string * string) list ->
  file:string ->
  string ->
  string * manifest

(** Replay a manifest's lookups in order, without preprocessing: [true]
    iff each resolves to the same bytes (or again to nothing) under the
    given search path.  Then a run over the same source and options
    would make exactly these lookups and produce the same output. *)
val manifest_holds :
  ?include_dirs:string list ->
  ?virtual_fs:(string * string) list ->
  manifest ->
  bool
