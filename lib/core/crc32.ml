(** CRC-32 (IEEE 802.3 polynomial, reflected), pure OCaml.

    Used by the CLA2 object-file format for per-section integrity
    checksums.  The table is computed once at module load; no external
    dependency is involved — object files must stay readable on a bare
    toolchain. *)

(* Reflected polynomial 0xEDB88320; the classic 256-entry table.
   Computed eagerly at module load: [update] runs over every section of
   every object file, and a [Lazy.force] per call is both a branch in
   the hot loop and a race under parallel verification (forcing a lazy
   from two domains at once raises [Lazy.Undefined]). *)
let table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1)
        else c := !c lsr 1
      done;
      !c)

(* Slicing-by-8: entry [k * 256 + n] is the CRC state after byte [n]
   followed by [k] zero bytes, so eight table reads — independent of
   each other — advance the state by eight input bytes. *)
let table8 =
  let t = Array.make (8 * 256) 0 in
  Array.blit table 0 t 0 256;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let c = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- table.(c land 0xff) lxor (c lsr 8)
    done
  done;
  t

(** Feed [len] bytes of [s] starting at [pos] into a running CRC.
    [crc] is the current state as returned by a previous call (start
    from [0]).  Eight bytes per step while eight remain, then one byte
    per step; every table index is masked to one byte, so the unsafe
    reads cannot go out of bounds. *)
let update crc s ~pos ~len =
  let c = ref (crc lxor 0xFFFFFFFF) in
  let byte i = Char.code (String.unsafe_get s i) in
  let t k n = Array.unsafe_get table8 ((k lsl 8) lor (n land 0xff)) in
  let stop8 = pos + (len land lnot 7) in
  let i = ref pos in
  while !i < stop8 do
    let p = !i and x = !c in
    c :=
      t 7 (x lxor byte p)
      lxor t 6 ((x lsr 8) lxor byte (p + 1))
      lxor t 5 ((x lsr 16) lxor byte (p + 2))
      lxor t 4 ((x lsr 24) lxor byte (p + 3))
      lxor t 3 (byte (p + 4))
      lxor t 2 (byte (p + 5))
      lxor t 1 (byte (p + 6))
      lxor t 0 (byte (p + 7));
    i := p + 8
  done;
  for i = stop8 to pos + len - 1 do
    c :=
      Array.unsafe_get table ((!c lxor byte i) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

(** CRC-32 of a substring. *)
let sub s ~pos ~len =
  if pos < 0 || len < 0 || pos + len > String.length s then
    invalid_arg "Crc32.sub";
  update 0 s ~pos ~len

(** CRC-32 of a whole string. *)
let string s = update 0 s ~pos:0 ~len:(String.length s)
