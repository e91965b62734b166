(** Interned string table — the object file's "string section"
    (Figure 4).  Names, type spellings, file names and operators are
    stored once and referenced by index. *)

type t

(** An empty table with room for [size] (default 32) strings before it
    first grows. *)
val create : ?size:int -> unit -> t

(** Intern a string, returning its stable index. *)
val intern : t -> string -> int

(** {!intern} for a string most calls repeat (the file name every
    location record carries): a physically equal repeat of the previous
    call costs one [==]. *)
val intern_repeated : t -> string -> int

val size : t -> int
val to_array : t -> string array

(** The string with id [id]. *)
val get : t -> int -> string

(** The section bytes of [strings]: a u32 count, then each string
    length-prefixed, in array order. *)
val write : string array -> Binio.writer

(** Read back as a plain array for direct indexing. *)
val read : Binio.reader -> string array
