(** Binary encoding primitives for CLA object files (LEB128 varints,
    length-prefixed byte strings, little-endian fixed words). *)

(** {1 Writer} *)

(** A growable byte cursor. *)
type writer

(** An empty writer with room for [size] (default 256) bytes before it
    first grows. *)
val writer : ?size:int -> unit -> writer

(** Current write position (section offsets). *)
val wpos : writer -> int

val u8 : writer -> int -> unit
val u32 : writer -> int -> unit

(** Unsigned LEB128; rejects negatives. *)
val varint : writer -> int -> unit

(** Length-prefixed bytes. *)
val bytes_ : writer -> string -> unit

(** The bytes written so far. *)
val contents : writer -> string

(** [blit w dst off] copies the bytes written so far into [dst] at
    [off]. *)
val blit : writer -> Bytes.t -> int -> unit

(** Patch a previously-written u32 (section tables whose offsets are only
    known after serialization). *)
val patch_u32 : Bytes.t -> pos:int -> int -> unit

(** {1 Reader} *)

exception Corrupt of string

(** A cursor over an immutable byte string; cheap to create, so the
    demand loader makes one per block read. *)
type reader = { data : string; mutable pos : int; limit : int }

val reader : ?pos:int -> ?limit:int -> string -> reader
val ru8 : reader -> int
val ru32 : reader -> int

(** Unsigned LEB128.  Raises {!Corrupt} on truncation, on encodings
    longer than 9 data bytes, and on values that do not fit OCaml's
    non-negative 63-bit int range — hostile input can never produce
    silent garbage (or a negative id) through shift overflow. *)
val rvarint : reader -> int

val rbytes : reader -> string

(** Read a u32 record count, rejecting (as {!Corrupt}) any count larger
    than the remaining bytes divided by [min_size] (default 1) — a
    corrupt count must fail before the allocation it would size. *)
val rcount : ?min_size:int -> reader -> int

val at_end : reader -> bool

(** {1 Files} *)

(** The whole contents of a file, closing the channel on every path.
    Raises [Sys_error] on I/O failure. *)
val read_file : string -> string
