(** CRC-32 (IEEE 802.3 polynomial, reflected): a slicing-by-8 C stub.

    Used by the CLA2 object-file format for per-section integrity
    checksums.  The stub's table is filled when this module is loaded:
    every checksum, on any domain, runs after that. *)

external init : unit -> unit = "cla_crc32_init"

external unsafe_update :
  (int[@untagged]) -> string -> (int[@untagged]) -> (int[@untagged]) -> (int[@untagged])
  = "cla_crc32_update_byte" "cla_crc32_update"
[@@noalloc]

let () = init ()

let checked name crc s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then invalid_arg name;
  unsafe_update crc s pos len

(** Feed [len] bytes of [s] starting at [pos] into a running CRC.
    [crc] is the current state as returned by a previous call (start
    from [0]). *)
let update crc s ~pos ~len = checked "Crc32.update" crc s ~pos ~len

(** CRC-32 of a substring. *)
let sub s ~pos ~len = checked "Crc32.sub" 0 s ~pos ~len

(** CRC-32 of a whole string. *)
let string s = unsafe_update 0 s 0 (String.length s)
