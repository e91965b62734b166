(** Binary encoding primitives for CLA object files.

    Varints are LEB128 (unsigned); this keeps the indexed database compact —
    Table 2 reports object files roughly 5-20x smaller than the preprocessed
    source they encode. *)

(* ------------------------------------------------------------------ *)
(* Writer                                                              *)
(* ------------------------------------------------------------------ *)

(* A cursor over a growable byte array: a write past the end doubles
   it, and [contents] copies out only the written prefix. *)
type writer = { mutable buf : Bytes.t; mutable pos : int }

(* Small by default: an object has a dozen sections, most of a few
   bytes; encoders that know their record counts say how much. *)
let writer ?(size = 256) () : writer = { buf = Bytes.create (max size 16); pos = 0 }
let wpos (w : writer) = w.pos

let grow w n =
  let cap = ref (2 * Bytes.length w.buf) in
  while !cap < w.pos + n do
    cap := 2 * !cap
  done;
  let buf = Bytes.create !cap in
  Bytes.blit w.buf 0 buf 0 w.pos;
  w.buf <- buf

let[@inline] reserve w n = if w.pos + n > Bytes.length w.buf then grow w n

let[@inline] u8 w v =
  reserve w 1;
  Bytes.unsafe_set w.buf w.pos (Char.unsafe_chr (v land 0xff));
  w.pos <- w.pos + 1

let u32 w v =
  reserve w 4;
  Bytes.set_int32_le w.buf w.pos (Int32.of_int v);
  w.pos <- w.pos + 4

let rec varint_slow w v =
  if v < 0x80 then u8 w v
  else begin
    u8 w (0x80 lor (v land 0x7f));
    varint_slow w (v lsr 7)
  end

(* Most varints (ids, lines, columns, counts) take one byte: written in
   place. *)
let[@inline] varint w v =
  if v < 0 then invalid_arg "Binio.varint: negative";
  if v < 0x80 && w.pos < Bytes.length w.buf then begin
    Bytes.unsafe_set w.buf w.pos (Char.unsafe_chr v);
    w.pos <- w.pos + 1
  end
  else varint_slow w v

let bytes_ w s =
  let n = String.length s in
  varint w n;
  reserve w n;
  Bytes.unsafe_blit_string s 0 w.buf w.pos n;
  w.pos <- w.pos + n

let contents w = Bytes.sub_string w.buf 0 w.pos
let blit w dst off = Bytes.blit w.buf 0 dst off w.pos

(** Patch a previously-written u32 at [pos] (used for section tables whose
    offsets are only known after the sections are serialized). *)
let patch_u32 (bytes : Bytes.t) ~pos v =
  Bytes.set bytes pos (Char.chr (v land 0xff));
  Bytes.set bytes (pos + 1) (Char.chr ((v lsr 8) land 0xff));
  Bytes.set bytes (pos + 2) (Char.chr ((v lsr 16) land 0xff));
  Bytes.set bytes (pos + 3) (Char.chr ((v lsr 24) land 0xff))

(* ------------------------------------------------------------------ *)
(* Reader                                                              *)
(* ------------------------------------------------------------------ *)

exception Corrupt of string

(** A reader is a cursor over an immutable byte string; cheap to create, so
    the demand loader makes one per block read. *)
type reader = { data : string; mutable pos : int; limit : int }

let reader ?(pos = 0) ?limit data =
  let limit = match limit with Some l -> l | None -> String.length data in
  { data; pos; limit }

let check r n =
  if r.pos + n > r.limit then raise (Corrupt "unexpected end of data")

let ru8 r =
  check r 1;
  let v = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  v

let ru32 r =
  let a = ru8 r in
  let b = ru8 r in
  let c = ru8 r in
  let d = ru8 r in
  a lor (b lsl 8) lor (c lsl 16) lor (d lsl 24)

(* Decoded values must fit OCaml's non-negative int range (62 value
   bits), so an encoding is at most 9 data bytes; a 10th continuation
   byte — or high bits that would shift past bit 61 — is corruption, not
   undefined [lsl] behavior. *)
let rvarint_slow r =
  let rec go shift acc =
    let byte = ru8 r in
    let bits = byte land 0x7f in
    if shift >= 63 then raise (Corrupt "varint too long")
    else if shift > 62 - 7 && bits lsr (62 - shift) <> 0 then
      raise (Corrupt "varint overflows 63-bit int")
    else begin
      let acc = acc lor (bits lsl shift) in
      if byte land 0x80 <> 0 then go (shift + 7) acc else acc
    end
  in
  go 0 0

(* Most varints (ids, line and column numbers, counts) fit one byte:
   that case reads it and returns; anything else, the end of data
   included, takes the checked loop. *)
let rvarint r =
  let pos = r.pos in
  if pos < r.limit then begin
    let byte = Char.code r.data.[pos] in
    if byte < 0x80 then begin
      r.pos <- pos + 1;
      byte
    end
    else rvarint_slow r
  end
  else rvarint_slow r

(** Read a u32 record count that must be plausible for the remaining
    bytes of the reader: every record occupies at least [min_size]
    (default 1) byte(s), so a count exceeding the remainder can only
    come from a corrupt file — reject it before any allocation. *)
let rcount ?(min_size = 1) r =
  let n = ru32 r in
  if n < 0 || n * min_size > r.limit - r.pos then
    raise (Corrupt (Fmt.str "implausible count %d" n))
  else n

let rbytes r =
  let len = rvarint r in
  check r len;
  let s = String.sub r.data r.pos len in
  r.pos <- r.pos + len;
  s

let at_end r = r.pos >= r.limit

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let read_file path =
  In_channel.with_open_bin path (fun ic ->
      really_input_string ic (in_channel_length ic))
