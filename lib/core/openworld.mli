(** Open-world havoc synthesis: make a linked database sound for
    incomplete programs (PIP-style).

    A single {e blob} abstract location absorbs and re-emits every
    pointer that escapes the analyzed fragment: arguments to
    declared-but-undefined functions, their results, and — since missing
    code can name any file-scope object — the address, contents and
    stores of every global object and the designator of every function,
    as soon as anything at all is missing.  Everything synthesized is an
    ordinary prim /
    fundef / indirect record in the normal sections, so every solver,
    provenance printing and the degradation ladder treat blob and havoc
    edges exactly like source-level ones.  The {!Objfile.ow} summary
    attached to the database records what was synthesized and why. *)

type report = {
  undefined : string list;  (** declared-but-undefined functions, sorted *)
  escaping : int list;
      (** objects the missing code can name: every [Global] object,
          file-scope static, struct-field object and [Func] designator,
          once anything at all is missing *)
}

(** Find what escapes a linked database.  Escape is all-or-nothing: one
    undefined function (or one extern object no unit defines) makes
    every file-scope object (extern or static), every struct-field
    object (field-based mode shares one object per field across all
    instances) and every function designator escape, because the
    missing code could name any of them directly (DESIGN.md explains
    why this coarseness is what makes the deletion gate's ⊇ property
    hold). *)
val detect : Objfile.db -> report

(** Rebuild the database with the blob location and the report's havoc
    constraints baked into the ordinary sections, and the open-world
    summary attached.  Raises [Invalid_argument] if the database already
    carries a summary. *)
val synthesize : Objfile.db -> report -> Objfile.db
