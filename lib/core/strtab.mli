(** Interned string table — the object file's "string section"
    (Figure 4).  Names, type spellings, file names and operators are
    stored once and referenced by index. *)

type t

val create : unit -> t

(** Intern a string, returning its stable index. *)
val intern : t -> string -> int

(** {!intern} for a string most calls repeat (the file name every
    location record carries): a physically equal repeat of the previous
    call costs one [==]. *)
val intern_repeated : t -> string -> int

val size : t -> int
val to_array : t -> string array
val write : Binio.writer -> t -> unit

(** Read back as a plain array for direct indexing. *)
val read : Binio.reader -> string array
