(** The armored section container shared by CLA2 object files and CSN1
    solution snapshots: the sectioned, demand-loadable database layout of
    the paper's Figure 4, with a CRC32 on every section and on the table.

    {v
    magic            4 bytes ("CLA2", "CSN1")
    [u32 version]    only for formats that carry a version word
    u32 count
    count x (u8 id, u32 offset, u32 size, u32 crc32)
    u32 table_crc32  over bytes [4, table_end): version, count, entries
    sections, in any order, non-overlapping
    v}

    This module is the only one that builds or parses a section table.
    Opening validates the header eagerly; each section's CRC is checked
    lazily, the first time that section is opened.  Every malformed input raises {!Binio.Corrupt}. *)

type format = {
  magic : string;  (** exactly 4 bytes *)
  version : int option;  (** the u32 word after the magic, if any *)
  what : string;  (** noun for diagnostics, e.g. ["CLA object file"] *)
}

(** Bytes per section-table entry (13). *)
val entry_size : int

(** Serialize [(id, parts)] sections, in the given order, behind a
    header for [format]; a section's payload is its parts' bytes, one
    after the other.  Ids must be distinct and below 256. *)
val write : format -> (int * Binio.writer list) list -> string

(** The absolute offset at which {!write} lays out the payload of
    section [id] among [sections]. *)
val payload_offset : format -> (int * Binio.writer list) list -> int -> int

(** {1 Opening} *)

type t

(** Validate magic, version, table bounds, non-overlap and the table
    CRC.  Section payloads are not checksummed yet. *)
val of_string : format -> string -> t

val data : t -> string

(** A reader bounded to section [id], CRC-checked on first open.  Raises
    {!Binio.Corrupt} if the section is missing. *)
val section : t -> int -> Binio.reader

(** Like {!section}, [None] for an absent optional section. *)
val find : t -> int -> Binio.reader option

(** {1 Fault injection} *)

(** Position of the first table entry and the entry count, read without
    validation; [None] unless the magic matches and the table plus its
    CRC fit in the bytes. *)
val table : format -> string -> (int * int) option

(** Recompute the table CRC of bytes whose table was edited (identity
    when {!table} cannot locate it). *)
val reseal : format -> string -> string
