(** The CLA compile phase: C source -> object-file database.

    "The compile phase parses source files, extracts assignments and
    function calls/returns/definitions, and writes an object file that is
    basically an indexed database structure of these basic program
    components.  No analysis is performed yet." (Section 4) *)

type options = {
  mode : Cla_cfront.Normalize.mode;
      (** field-based (paper default) or field-independent structs *)
  include_dirs : string list;
  defines : (string * string) list;
  virtual_fs : (string * string) list;  (** in-memory headers, for tests *)
  drop_bodies : string -> bool;
      (** suppress these function bodies, keeping declared interfaces —
          the building block of open-world deletion testing *)
}

val default_options : options

(** Lower a normalized translation unit to a serializable database. *)
val db_of_prog :
  ?source_lines:int -> ?preproc_lines:int -> Cla_ir.Prog.t -> Objfile.db

(** Content-hash a translation unit without parsing it: preprocessed
    source plus a canonical rendering of the options (mode, defines,
    include dirs).  Equals the [Objfile.tuhash] that {!compile_string}
    records for the same input; [cla compile]'s up-to-date check
    probes with it.  It costs a preprocessor run — the incremental
    driver probes with {!direct_key} and {!manifest_holds} instead.
    Note [drop_bodies] is not part of the hash (it is a function);
    callers using it must not rely on hash equality. *)
val tu_hash : ?options:options -> file:string -> string -> string

(** The direct-mode key: a digest of the rendered options, the file name
    and the raw source bytes, computed without preprocessing.  Two
    inputs with equal keys whose recorded {!Cla_cfront.Cpp.manifest}
    still holds preprocess to the same text, so they have the same
    {!tu_hash}.  [drop_bodies] is not part of it, as for {!tu_hash}. *)
val direct_key : ?options:options -> file:string -> string -> string

(** Replay a manifest recorded by {!compile_recorded} against
    [options]' include dirs and virtual filesystem
    ({!Cla_cfront.Cpp.manifest_holds}): one read and digest per lookup,
    no preprocessing. *)
val manifest_holds : ?options:options -> Cla_cfront.Cpp.manifest -> bool

(** Compile C source text into a database, returning the preprocessor's
    include manifest beside it.  The produced database carries
    [tuhash = Some (tu_hash ...)]. *)
val compile_recorded :
  ?options:options ->
  file:string ->
  string ->
  Objfile.db * Cla_cfront.Cpp.manifest

(** {!compile_recorded} without the manifest. *)
val compile_string : ?options:options -> file:string -> string -> Objfile.db

(** Compile and serialize to an object file on disk (like [cc -c]). *)
val compile_to : ?options:options -> output:string -> string -> unit

(** Like {!compile_file}, surfacing front-end failures (parse, cpp, lex,
    missing file) as a structured {!Diag.t} instead of an exception. *)
val compile_file_result :
  ?options:options -> string -> (Objfile.db, Diag.t) result
