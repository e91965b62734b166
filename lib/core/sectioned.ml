(** The armored section container (see the interface for the layout).

    CLA2 object files and CSN1 snapshots differ only in their magic and
    in whether a version word follows it; everything from the section
    count on — entry shape, table CRC span, bounds and overlap rules, lazy
    per-section CRCs — is decided here once. *)

type format = { magic : string; version : int option; what : string }
type entry = { id : int; off : int; size : int; crc : int }

let entry_size = 13 (* u8 id + u32 off + u32 size + u32 crc *)

(* Offset of the section count: the magic plus the optional version. *)
let count_pos fmt = if fmt.version = None then 4 else 8

let corrupt f = Fmt.kstr (fun m -> raise (Binio.Corrupt m)) f

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

(* Bytes before the first payload: magic, version, count, table and
   table CRC. *)
let header_size fmt nsec = count_pos fmt + 4 + (nsec * entry_size) + 4

let payload_size parts = List.fold_left (fun n w -> n + Binio.wpos w) 0 parts

let payload_offset fmt sections id =
  let rec go off = function
    | [] -> invalid_arg "Sectioned.payload_offset: no such section"
    | (i, parts) :: rest -> if i = id then off else go (off + payload_size parts) rest
  in
  go (header_size fmt (List.length sections)) sections

(* One allocation of the final size: the header is written in place and
   each part is copied once, then each payload is checksummed where it
   lies. *)
let write fmt sections =
  let table_pos = count_pos fmt + 4 in
  let table_end = header_size fmt (List.length sections) - 4 in
  let total =
    List.fold_left
      (fun n (_, parts) -> n + payload_size parts)
      (table_end + 4) sections
  in
  let bytes = Bytes.create total in
  (* [data] aliases [bytes]: payloads are final before they are
     checksummed; only the table is still being patched. *)
  let data = Bytes.unsafe_to_string bytes in
  Bytes.blit_string fmt.magic 0 bytes 0 4;
  Option.iter (Binio.patch_u32 bytes ~pos:4) fmt.version;
  Binio.patch_u32 bytes ~pos:(table_pos - 4) (List.length sections);
  ignore
    (List.fold_left
       (fun (e, off) (id, parts) ->
         let stop =
           List.fold_left
             (fun at w ->
               Binio.blit w bytes at;
               at + Binio.wpos w)
             off parts
         in
         let size = stop - off in
         Bytes.set_uint8 bytes e id;
         Binio.patch_u32 bytes ~pos:(e + 1) off;
         Binio.patch_u32 bytes ~pos:(e + 5) size;
         Binio.patch_u32 bytes ~pos:(e + 9) (Crc32.sub data ~pos:off ~len:size);
         (e + entry_size, stop))
       (table_pos, table_end + 4)
       sections);
  (* the table CRC covers version, count and entries: a flipped id,
     offset or size cannot silently drop or retarget a section *)
  Binio.patch_u32 bytes ~pos:table_end
    (Crc32.sub data ~pos:4 ~len:(table_end - 4));
  data

(* ------------------------------------------------------------------ *)
(* Opening                                                             *)
(* ------------------------------------------------------------------ *)

type t = {
  fmt : format;
  data : string;
  by_id : entry option array;  (** ids are one byte *)
  checked : bool array;  (** payload CRC already verified *)
}

let of_string fmt data =
  let len = String.length data in
  let table_pos = count_pos fmt + 4 in
  if len < table_pos then corrupt "not a %s (too short)" fmt.what;
  if String.sub data 0 4 <> fmt.magic then
    corrupt "not a %s (bad magic)" fmt.what;
  let r = Binio.reader ~pos:4 data in
  Option.iter
    (fun want ->
      let v = Binio.ru32 r in
      if v <> want then
        corrupt "unsupported %s version %d (this build reads %d)" fmt.what v
          want)
    fmt.version;
  let nsec = Binio.rcount ~min_size:entry_size r in
  let table_end = table_pos + (nsec * entry_size) in
  let header_end = table_end + 4 in
  let by_id = Array.make 256 None in
  let entries =
    List.init nsec (fun _ ->
        let id = Binio.ru8 r in
        let off = Binio.ru32 r in
        let size = Binio.ru32 r in
        let crc = Binio.ru32 r in
        if by_id.(id) <> None then
          corrupt "%s: duplicate section %d" fmt.what id;
        if off < header_end || off + size > len then
          corrupt "%s: section %d out of range (%d+%d of %d)" fmt.what id off
            size len;
        let e = { id; off; size; crc } in
        by_id.(id) <- Some e;
        e)
  in
  if Binio.ru32 r <> Crc32.sub data ~pos:4 ~len:(table_end - 4) then
    corrupt "%s: section table checksum mismatch" fmt.what;
  (* sections may be laid out in any order but must not overlap *)
  ignore
    (List.fold_left
       (fun prev_end e ->
         if e.off < prev_end then
           corrupt "%s: section %d overlaps" fmt.what e.id;
         e.off + e.size)
       header_end
       (List.sort (fun a b -> compare a.off b.off) entries));
  { fmt; data; by_id; checked = Array.make 256 false }

let data t = t.data

let verify t e =
  if not t.checked.(e.id) then begin
    if Crc32.sub t.data ~pos:e.off ~len:e.size <> e.crc then
      corrupt "%s: section %d checksum mismatch" t.fmt.what e.id;
    t.checked.(e.id) <- true
  end

let find t id =
  Option.map
    (fun e ->
      verify t e;
      Binio.reader ~pos:e.off ~limit:(e.off + e.size) t.data)
    t.by_id.(id)

let section t id =
  match find t id with
  | Some r -> r
  | None -> corrupt "%s: missing section %d" t.fmt.what id

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let table fmt data =
  let len = String.length data in
  let cp = count_pos fmt in
  if len < cp + 4 || String.sub data 0 4 <> fmt.magic then None
  else
    let nsec = Binio.ru32 (Binio.reader ~pos:cp data) in
    if cp + 4 + (nsec * entry_size) + 4 > len then None else Some (cp + 4, nsec)

let reseal fmt data =
  match table fmt data with
  | None -> data
  | Some (pos, nsec) ->
      let table_end = pos + (nsec * entry_size) in
      let b = Bytes.of_string data in
      Binio.patch_u32 b ~pos:table_end
        (Crc32.sub data ~pos:4 ~len:(table_end - 4));
      Bytes.unsafe_to_string b
