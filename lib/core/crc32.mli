(** CRC-32 (IEEE 802.3 polynomial, reflected), computed by a C stub —
    the checksum used by the CLA2 object-file format for per-section
    integrity. *)

(** Feed [len] bytes of [s] starting at [pos] into a running CRC; start
    from [0] and chain the return value for incremental computation.
    Raises [Invalid_argument] if the range is outside [s]. *)
val update : int -> string -> pos:int -> len:int -> int

(** CRC-32 of a substring.  Raises [Invalid_argument] if the range is
    outside [s]. *)
val sub : string -> pos:int -> len:int -> int

(** CRC-32 of a whole string. *)
val string : string -> int
