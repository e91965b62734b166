(** The CLA object file: an indexed database of primitive assignments
    (Section 4, Figure 4 of the paper).

    The file is a {!Sectioned} container — magic "CLA2", no version
    word, CRC32 on the table and on every section — holding (all
    little-endian, varint = LEB128):

    {v
      STRTAB   common strings (Figure 4's "string section")
      VARS     one record per object: name, kind, linkage, type, decl loc
      GLOBALS  linking information: (var, canonical key) for extern objects
      STATIC   address-of assignments x = &y — always loaded by points-to
      DYNAMIC  per-object blocks: for each object, the primitive
               assignments in which it is the *source*, preceded by an
               index (var -> offset,count) so one lookup finds a block
      FUNDEFS  per defined function: arity and its standardized arg/ret
               variables (used to link indirect calls at analysis time)
      INDIRECT per indirect call site: the pointer, arity, arg/ret vars
      TARGETS  name -> object index, sorted, for the dependence analysis
      META     provenance and Table 2 statistics
      CONSTS   integer constants assigned directly to objects
      OPENWORLD (optional) blob var, undefined functions, escaping
               externs — present iff linked with --open-world
      TUHASH   (optional) content hash of a compiled unit's TU + flags
    v}

    The same format serves as both "object file" (per translation unit) and
    "executable" (after linking) — exactly as in the paper, where the
    linked file "has the same format as the object files". *)

open Cla_ir

let format =
  { Sectioned.magic = "CLA2"; version = None; what = "CLA object file" }

(* Section ids *)
let sec_strtab = 0
let sec_vars = 1
let sec_globals = 2
let sec_static = 3
let sec_dynamic = 4
let sec_fundefs = 5
let sec_indirect = 6
let sec_targets = 7
let sec_meta = 8
let sec_consts = 9
let sec_openworld = 10
let sec_tuhash = 11

(* ------------------------------------------------------------------ *)
(* In-memory database records                                          *)
(* ------------------------------------------------------------------ *)

type varinfo = {
  vname : string;
  vkind : Var.kind;
  vlinkage : Var.linkage;
  vtyp : string;
  vloc : Loc.t;
  vowner : string;  (** enclosing function, or [""] for file scope *)
  vdefined : bool;
      (** false while every occurrence seen so far is an extern
          declaration — the open-world linker treats such objects as
          escaping into the unanalyzed part of the program *)
}

(** The five primitive kinds, in Table 2 column order. *)
type pkind = Pcopy | Paddr | Pstore | Pderef2 | Pload

type prim_rec = {
  pkind : pkind;
  pdst : int;
  psrc : int;
  pop : (string * Strength.t) option;  (** operation provenance on copies *)
  ploc : Loc.t;
}

type fund_rec = {
  ffvar : int;
  farity : int;
  fret : int;
  fargs : int array;  (** standardized argument variables, 1..arity *)
  ffloc : Loc.t;
}

type indir_rec = {
  iptr : int;
  inargs : int;
  iret : int;
  iargs : int array;
  iiloc : Loc.t;
}

let add_fundefs tbl fds = Seq.iter (fun f -> Hashtbl.replace tbl f.ffvar f) fds

let fundef_table fds =
  let tbl = Hashtbl.create 256 in
  add_fundefs tbl (Array.to_seq fds);
  tbl

let iter_call_copies fd r f =
  for i = 0 to min r.inargs fd.farity - 1 do
    let garg = fd.fargs.(i) and parg = r.iargs.(i) in
    if garg >= 0 && parg >= 0 then f ~dst:garg ~src:parg
  done;
  if r.iret >= 0 && fd.fret >= 0 then f ~dst:r.iret ~src:fd.fret

type meta = {
  mfiles : string list;  (** source files linked into this database *)
  msource_lines : int;  (** non-blank, non-# source lines *)
  mpreproc_lines : int;
  mcounts : Prim.counts;  (** per-kind totals (Table 2) *)
}

(** Open-world summary attached by [cla link --open-world].  The havoc
    constraints themselves are ordinary records baked into the STATIC /
    DYNAMIC / FUNDEFS / INDIRECT sections (so every solver consumes them
    through the normal machinery); this section records what was
    synthesized and why. *)
type ow = {
  owblob : int;  (** var id of the blob abstract location *)
  owundef : string list;  (** declared-but-undefined function names *)
  owescape : int list;  (** extern objects never defined by any unit *)
}

(** A complete database, ready to serialize. *)
type db = {
  vars : varinfo array;
  keys : (int * string) list;  (** extern var -> canonical linking key *)
  statics : prim_rec list;  (** all [Paddr]; in source order *)
  blocks : prim_rec list array;  (** indexed by source var; no [Paddr] *)
  fundefs : fund_rec list;
  indirects : indir_rec list;
  consts : (int * int64) list;  (** integer constants assigned to objects *)
  openworld : ow option;  (** present iff linked under open-world mode *)
  tuhash : string option;
      (** content hash of the preprocessed TU + compile flags — present
          on per-unit objects produced by {!Compilep}, absent on linked
          databases.  The incremental pipeline compares it to decide
          whether a recompile can be skipped. *)
  meta : meta;
}

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let kind_code = function
  | Var.Global -> 0
  | Var.Filelocal -> 1
  | Var.Temp -> 2
  | Var.Field -> 3
  | Var.Heap -> 4
  | Var.Func -> 5
  | Var.Arg _ -> 6
  | Var.Ret -> 7

let pkind_code = function
  | Pcopy -> 0
  | Paddr -> 1
  | Pstore -> 2
  | Pderef2 -> 3
  | Pload -> 4

let strength_code = function
  | Strength.None_ -> 0
  | Strength.Weak -> 1
  | Strength.Strong -> 2

(* zigzag-encode an int64 into two 32-bit varints *)
let write_i64 w (v : int64) =
  let z = Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63) in
  Binio.varint w (Int64.to_int (Int64.logand z 0xFFFFFFFFL));
  Binio.varint w (Int64.to_int (Int64.shift_right_logical z 32))

let read_i64 r =
  let lo = Int64.of_int (Binio.rvarint r) in
  let hi = Int64.of_int (Binio.rvarint r) in
  let z = Int64.logor lo (Int64.shift_left hi 32) in
  Int64.logxor (Int64.shift_right_logical z 1) (Int64.neg (Int64.logand z 1L))

let write_loc w st (l : Loc.t) =
  Binio.varint w (Strtab.intern_repeated st l.file);
  Binio.varint w l.line;
  Binio.varint w l.col

(* A prim inside a block: the source is implicit (the block's owner). *)
let write_block_prim w st p =
  let tag =
    pkind_code p.pkind lor (match p.pop with Some _ -> 0x8 | None -> 0)
  in
  Binio.u8 w tag;
  Binio.varint w p.pdst;
  (match p.pop with
  | Some (op, s) ->
      Binio.varint w (Strtab.intern st op);
      Binio.u8 w (strength_code s)
  | None -> ());
  write_loc w st p.ploc

(* A name's first 7 bytes, big-endian and zero-padded: prefixes order
   like the names they start. *)
let prefix7 s =
  let k = ref 0 in
  for b = 0 to 6 do
    k := (!k lsl 8) lor if b < String.length s then Char.code (String.unsafe_get s b) else 0
  done;
  !k

(* [targets] (ascending object ids) in TARGETS order: by name, then by
   id.  A stable LSD radix sort over the 7 prefix bytes, skipping any
   byte all prefixes share, then a sort by whole name and id within each
   run of equal prefixes. *)
let sort_targets vars targets =
  let n = Array.length targets in
  let keys = Array.map (fun i -> prefix7 vars.(i).vname) targets in
  let counts = Array.make (7 * 256) 0 in
  Array.iter
    (fun k ->
      for d = 0 to 6 do
        let c = (d lsl 8) lor ((k lsr (8 * d)) land 0xff) in
        counts.(c) <- counts.(c) + 1
      done)
    keys;
  let keys = ref keys and ids = ref targets in
  let keys' = ref (Array.make n 0) and ids' = ref (Array.make n 0) in
  for d = 0 to 6 do
    let base = d lsl 8 in
    if n > 0 && counts.(base lor ((!keys.(0) lsr (8 * d)) land 0xff)) < n then begin
      (* bucket starts, then a scatter in input order *)
      let at = ref 0 in
      for b = 0 to 255 do
        let c = counts.(base + b) in
        counts.(base + b) <- !at;
        at := !at + c
      done;
      let ks = !keys and is = !ids and ks' = !keys' and is' = !ids' in
      for j = 0 to n - 1 do
        let k = ks.(j) in
        let c = base lor ((k lsr (8 * d)) land 0xff) in
        let dst = counts.(c) in
        counts.(c) <- dst + 1;
        ks'.(dst) <- k;
        is'.(dst) <- is.(j)
      done;
      keys := ks';
      ids := is';
      keys' := ks;
      ids' := is
    end
  done;
  let keys = !keys and ids = !ids in
  let by_name i j =
    match String.compare vars.(i).vname vars.(j).vname with
    | 0 -> Int.compare i j
    | c -> c
  in
  let j = ref 0 in
  while !j < n do
    let stop = ref (!j + 1) in
    while !stop < n && keys.(!stop) = keys.(!j) do
      incr stop
    done;
    if !stop - !j > 1 then begin
      let run = Array.sub ids !j (!stop - !j) in
      Array.stable_sort by_name run;
      Array.blit run 0 ids !j (!stop - !j)
    end;
    j := !stop
  done;
  ids

(* What the encoder laid out: the sections in emission order, plus what
   {!encode} needs to describe the bytes without reading them back. *)
type layout = {
  sections : (int * Binio.writer list) list;
  st : Strtab.t;
  index : (int * int * int) list;
      (* (object, blob-relative offset, record count) per block, in
         object order *)
  blob_pos : int;  (* offset of the blob inside the DYNAMIC payload *)
  blob_size : int;
  targets : int array;  (* TARGETS order *)
}

(* Writers are sized from record counts at a few bytes per record (one
   or two per id, three or four per location), so most sections never
   grow. *)
let writer_for n bytes_per = Binio.writer ~size:(4 + (n * bytes_per)) ()

let layout (db : db) : layout =
  let nvars = Array.length db.vars and nkeys = List.length db.keys in
  (* names, types and owners repeat: about one string per object *)
  let st = Strtab.create ~size:(nvars + nkeys) () in
  (* Pre-intern everything so the string table can be emitted first;
     sections are built into their own writers. *)
  let b_vars = writer_for nvars 10 in
  Binio.u32 b_vars nvars;
  (* each var's name id, reused by TARGETS *)
  let name_ids = Array.make nvars 0 in
  Array.iteri
    (fun i v ->
      let name = Strtab.intern st v.vname in
      name_ids.(i) <- name;
      Binio.varint b_vars name;
      Binio.u8 b_vars (kind_code v.vkind);
      (match v.vkind with
      | Var.Arg i -> Binio.varint b_vars i
      | _ -> ());
      (* one byte: bit0 linkage, bit1 set when the object is only ever
         declared (never defined) — files written before the bit existed
         read back as defined, the closed-world assumption *)
      Binio.u8 b_vars
        ((match v.vlinkage with Var.Extern -> 0 | Var.Intern -> 1)
        lor if v.vdefined then 0 else 2);
      Binio.varint b_vars (Strtab.intern st v.vtyp);
      Binio.varint b_vars (Strtab.intern st v.vowner);
      write_loc b_vars st v.vloc)
    db.vars;
  let b_globals = writer_for nkeys 4 in
  Binio.u32 b_globals nkeys;
  List.iter
    (fun (var, key) ->
      Binio.varint b_globals var;
      Binio.varint b_globals (Strtab.intern st key))
    db.keys;
  let nstatics = List.length db.statics in
  let b_static = writer_for nstatics 8 in
  Binio.u32 b_static nstatics;
  List.iter
    (fun p ->
      Binio.varint b_static p.pdst;
      Binio.varint b_static p.psrc;
      write_loc b_static st p.ploc)
    db.statics;
  (* dynamic: blob of blocks + index; the blob is sized from the
     per-kind counts of the records blocks hold (all but x = &y) *)
  let c = db.meta.mcounts in
  let b_blob =
    writer_for (c.Prim.n_copy + c.Prim.n_store + c.Prim.n_deref2 + c.Prim.n_load) 7
  in
  let nblocks = ref 0 in
  let index = ref [] in
  Array.iteri
    (fun src prims ->
      match prims with
      | [] -> ()
      | prims ->
          let off = Binio.wpos b_blob in
          List.iter (fun p -> write_block_prim b_blob st p) prims;
          index := (src, off, List.length prims) :: !index;
          incr nblocks)
    db.blocks;
  let b_dynamic = writer_for !nblocks 6 in
  let index = List.rev !index in
  Binio.u32 b_dynamic !nblocks;
  List.iter
    (fun (src, off, n) ->
      Binio.varint b_dynamic src;
      Binio.varint b_dynamic off;
      Binio.varint b_dynamic n)
    index;
  Binio.u32 b_dynamic (Binio.wpos b_blob);
  (* the blob follows the index in the same section: {!Sectioned.write}
     copies it straight into the file *)
  let blob_pos = Binio.wpos b_dynamic in
  let nfundefs = List.length db.fundefs in
  let b_fundefs = writer_for nfundefs 12 in
  Binio.u32 b_fundefs nfundefs;
  List.iter
    (fun f ->
      Binio.varint b_fundefs f.ffvar;
      Binio.varint b_fundefs f.farity;
      Binio.varint b_fundefs f.fret;
      Array.iter (fun a -> Binio.varint b_fundefs a) f.fargs;
      write_loc b_fundefs st f.ffloc)
    db.fundefs;
  let nindirects = List.length db.indirects in
  let b_indirect = writer_for nindirects 12 in
  Binio.u32 b_indirect nindirects;
  List.iter
    (fun i ->
      Binio.varint b_indirect i.iptr;
      Binio.varint b_indirect i.inargs;
      Binio.varint b_indirect i.iret;
      Array.iter (fun a -> Binio.varint b_indirect a) i.iargs;
      write_loc b_indirect st i.iiloc)
    db.indirects;
  (* targets: the named objects' indices, sorted by (name, index) for
     binary search *)
  let targets = Array.make nvars 0 and ntargets = ref 0 in
  Array.iteri
    (fun i v ->
      match v.vkind with
      | Var.Temp | Var.Arg _ | Var.Ret -> ()
      | _ ->
          targets.(!ntargets) <- i;
          incr ntargets)
    db.vars;
  let targets = sort_targets db.vars (Array.sub targets 0 !ntargets) in
  let b_targets = writer_for (Array.length targets) 4 in
  Binio.u32 b_targets (Array.length targets);
  Array.iter
    (fun i ->
      Binio.varint b_targets name_ids.(i);
      Binio.varint b_targets i)
    targets;
  let b_meta = Binio.writer () in
  Binio.u32 b_meta (List.length db.meta.mfiles);
  List.iter (fun f -> Binio.varint b_meta (Strtab.intern st f)) db.meta.mfiles;
  Binio.varint b_meta db.meta.msource_lines;
  Binio.varint b_meta db.meta.mpreproc_lines;
  Binio.varint b_meta c.Prim.n_copy;
  Binio.varint b_meta c.Prim.n_addr;
  Binio.varint b_meta c.Prim.n_store;
  Binio.varint b_meta c.Prim.n_deref2;
  Binio.varint b_meta c.Prim.n_load;
  let b_consts = Binio.writer () in
  Binio.u32 b_consts (List.length db.consts);
  List.iter
    (fun (var, v) ->
      Binio.varint b_consts var;
      write_i64 b_consts v)
    db.consts;
  let b_openworld =
    Option.map
      (fun ow ->
        let b = Binio.writer () in
        Binio.varint b ow.owblob;
        Binio.u32 b (List.length ow.owundef);
        List.iter (fun n -> Binio.varint b (Strtab.intern st n)) ow.owundef;
        Binio.u32 b (List.length ow.owescape);
        List.iter (fun v -> Binio.varint b v) ow.owescape;
        b)
      db.openworld
  in
  let b_tuhash =
    Option.map
      (fun h ->
        let b = Binio.writer () in
        Binio.varint b (Strtab.intern st h);
        b)
      db.tuhash
  in
  (* strtab last to build, first to emit *)
  let b_strtab = Strtab.write st in
  let sections =
    [
      (sec_strtab, [ b_strtab ]); (sec_vars, [ b_vars ]);
      (sec_globals, [ b_globals ]); (sec_static, [ b_static ]);
      (sec_dynamic, [ b_dynamic; b_blob ]); (sec_fundefs, [ b_fundefs ]);
      (sec_indirect, [ b_indirect ]); (sec_targets, [ b_targets ]);
      (sec_meta, [ b_meta ]); (sec_consts, [ b_consts ]);
    ]
    @ (match b_openworld with Some b -> [ (sec_openworld, [ b ]) ] | None -> [])
    @ match b_tuhash with Some b -> [ (sec_tuhash, [ b ]) ] | None -> []
  in
  { sections; st; index; blob_pos; blob_size = Binio.wpos b_blob; targets }

(** Serialize a database to object-file bytes. *)
let write (db : db) : string = Sectioned.write format (layout db).sections

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)
(* ------------------------------------------------------------------ *)

(** A view over serialized object-file bytes.  Cheap sections (vars,
    globals, static, fundefs, indirect, targets, meta) are decoded eagerly;
    the DYNAMIC blocks — the bulk of the file — are decoded on demand via
    {!read_block}, which is what makes the load-on-demand /
    load-and-throw-away strategies of Section 6 possible. *)
type view = {
  data : string;
  strings : string array;
  rvars : varinfo array;
  rkeys : (int * string) list;
  rstatics : prim_rec array;
  block_index : int array;
      (** two cells per var: absolute offset (or [-1] if no block), then
          record count *)
  blob_limit : int;
      (** absolute end of the DYNAMIC blob — block reads never cross it *)
  rfundefs : fund_rec array;
  rindirects : indir_rec array;
  rtargets : (string * int) array;  (** sorted by name *)
  rconsts : (int * int64) list;
  ropenworld : ow option;  (** present iff linked under open-world mode *)
  rtuhash : string option;  (** per-unit content hash, if recorded *)
  rmeta : meta;
}

let decode_kind r =
  match Binio.ru8 r with
  | 0 -> Var.Global
  | 1 -> Var.Filelocal
  | 2 -> Var.Temp
  | 3 -> Var.Field
  | 4 -> Var.Heap
  | 5 -> Var.Func
  | 6 -> Var.Arg (Binio.rvarint r)
  | 7 -> Var.Ret
  | n -> raise (Binio.Corrupt (Fmt.str "bad var kind %d" n))

let decode_strength = function
  | 0 -> Strength.None_
  | 1 -> Strength.Weak
  | 2 -> Strength.Strong
  | n -> raise (Binio.Corrupt (Fmt.str "bad strength %d" n))

(* Checked string-table access: a corrupt index must surface as [Corrupt],
   never as [Invalid_argument] from a raw array access. *)
let str strings i =
  if i >= Array.length strings then
    raise (Binio.Corrupt (Fmt.str "string index %d out of range" i))
  else strings.(i)

let read_loc r strings =
  let file = str strings (Binio.rvarint r) in
  let line = Binio.rvarint r in
  let col = Binio.rvarint r in
  Loc.make ~file ~line ~col

let decode_pkind = function
  | 0 -> Pcopy
  | 1 -> Paddr
  | 2 -> Pstore
  | 3 -> Pderef2
  | 4 -> Pload
  | n -> raise (Binio.Corrupt (Fmt.str "bad prim kind %d" n))

(** Decode the eager sections of an opened container.

    Defensive by design: {!Sectioned} has validated the header and
    checks each section's CRC32 the first time it is opened; here every
    record count is checked against the bytes that remain and every
    decoded index is range checked.  Any violation raises
    {!Binio.Corrupt}; no input may produce [Invalid_argument],
    out-of-bounds access, or an attempted huge allocation. *)
let view_of_sections (s : Sectioned.t) : view =
  let data = Sectioned.data s in
  let sec = Sectioned.section s in
  let strings = Strtab.read (sec sec_strtab) in
  let r = sec sec_vars in
  let nvars = Binio.rcount ~min_size:8 r in
  let rvars =
    Array.init nvars (fun _ ->
        let vname = str strings (Binio.rvarint r) in
        let vkind = decode_kind r in
        let lb = Binio.ru8 r in
        let vlinkage = if lb land 1 = 0 then Var.Extern else Var.Intern in
        let vdefined = lb land 2 = 0 in
        let vtyp = str strings (Binio.rvarint r) in
        let vowner = str strings (Binio.rvarint r) in
        let vloc = read_loc r strings in
        { vname; vkind; vlinkage; vtyp; vloc; vowner; vdefined })
  in
  (* Object ids decoded from here on must index [rvars]. *)
  let check_var what v =
    if v >= nvars then
      raise (Binio.Corrupt (Fmt.str "%s id %d out of range (%d objects)" what v nvars))
    else v
  in
  let r = sec sec_globals in
  let nkeys = Binio.rcount ~min_size:2 r in
  let rkeys =
    List.init nkeys (fun _ ->
        let var = check_var "extern" (Binio.rvarint r) in
        let key = str strings (Binio.rvarint r) in
        (var, key))
  in
  let r = sec sec_static in
  let nstat = Binio.rcount ~min_size:5 r in
  let rstatics =
    Array.init nstat (fun _ ->
        let pdst = check_var "static dst" (Binio.rvarint r) in
        let psrc = check_var "static src" (Binio.rvarint r) in
        let ploc = read_loc r strings in
        { pkind = Paddr; pdst; psrc; pop = None; ploc })
  in
  let r = sec sec_dynamic in
  let nblocks = Binio.rcount ~min_size:3 r in
  (* (src, offset, count) triples, checked once the blob size is known *)
  let entries = Array.make (3 * nblocks) 0 in
  for e = 0 to nblocks - 1 do
    entries.(3 * e) <- check_var "block" (Binio.rvarint r);
    entries.((3 * e) + 1) <- Binio.rvarint r;
    entries.((3 * e) + 2) <- Binio.rvarint r
  done;
  let blob_size = Binio.ru32 r in
  let blob_start = r.Binio.pos in
  if blob_start + blob_size > r.Binio.limit then
    raise (Binio.Corrupt "dynamic blob larger than its section");
  let blob_limit = blob_start + blob_size in
  let block_index = Array.init (2 * nvars) (fun i -> if i land 1 = 0 then -1 else 0) in
  for e = 0 to nblocks - 1 do
    let src = entries.(3 * e)
    and off = entries.((3 * e) + 1)
    and n = entries.((3 * e) + 2) in
    (* each record is at least 5 bytes (tag, dst, 3-varint loc) *)
    if off > blob_size || n * 5 > blob_size - off then
      raise (Binio.Corrupt (Fmt.str "block of object %d outside the blob" src));
    block_index.(2 * src) <- blob_start + off;
    block_index.((2 * src) + 1) <- n
  done;
  let r = sec sec_fundefs in
  let nfun = Binio.rcount ~min_size:6 r in
  let check_args r n =
    if n * 1 > r.Binio.limit - r.Binio.pos then
      raise (Binio.Corrupt (Fmt.str "implausible arity %d" n))
    else n
  in
  let rfundefs =
    Array.init nfun (fun _ ->
        let ffvar = check_var "fundef" (Binio.rvarint r) in
        let farity = check_args r (Binio.rvarint r) in
        let fret = check_var "fundef ret" (Binio.rvarint r) in
        let fargs =
          Array.init farity (fun _ -> check_var "fundef arg" (Binio.rvarint r))
        in
        let ffloc = read_loc r strings in
        { ffvar; farity; fret; fargs; ffloc })
  in
  let r = sec sec_indirect in
  let nind = Binio.rcount ~min_size:6 r in
  let rindirects =
    Array.init nind (fun _ ->
        let iptr = check_var "indirect ptr" (Binio.rvarint r) in
        let inargs = check_args r (Binio.rvarint r) in
        let iret = check_var "indirect ret" (Binio.rvarint r) in
        let iargs =
          Array.init inargs (fun _ ->
              check_var "indirect arg" (Binio.rvarint r))
        in
        let iiloc = read_loc r strings in
        { iptr; inargs; iret; iargs; iiloc })
  in
  let r = sec sec_targets in
  let ntgt = Binio.rcount ~min_size:2 r in
  let rtargets =
    Array.init ntgt (fun _ ->
        let name = str strings (Binio.rvarint r) in
        let var = check_var "target" (Binio.rvarint r) in
        (name, var))
  in
  let rconsts =
    match Sectioned.find s sec_consts with
    | None -> [] (* object files written before the section existed *)
    | Some r ->
        let n = Binio.rcount ~min_size:3 r in
        List.init n (fun _ ->
            let var = check_var "const" (Binio.rvarint r) in
            let v = read_i64 r in
            (var, v))
  in
  let ropenworld =
    match Sectioned.find s sec_openworld with
    | None -> None (* closed-world file *)
    | Some r ->
        let owblob = check_var "open-world blob" (Binio.rvarint r) in
        let nundef = Binio.rcount ~min_size:1 r in
        let owundef =
          List.init nundef (fun _ -> str strings (Binio.rvarint r))
        in
        let nesc = Binio.rcount ~min_size:1 r in
        let owescape =
          List.init nesc (fun _ ->
              check_var "open-world escape" (Binio.rvarint r))
        in
        Some { owblob; owundef; owescape }
  in
  let rtuhash =
    match Sectioned.find s sec_tuhash with
    | None -> None (* linked databases and pre-incremental objects *)
    | Some r -> Some (str strings (Binio.rvarint r))
  in
  let r = sec sec_meta in
  let nfiles = Binio.rcount r in
  let mfiles = List.init nfiles (fun _ -> str strings (Binio.rvarint r)) in
  let msource_lines = Binio.rvarint r in
  let mpreproc_lines = Binio.rvarint r in
  let n_copy = Binio.rvarint r in
  let n_addr = Binio.rvarint r in
  let n_store = Binio.rvarint r in
  let n_deref2 = Binio.rvarint r in
  let n_load = Binio.rvarint r in
  {
    data;
    strings;
    rvars;
    rkeys;
    rstatics;
    block_index;
    blob_limit;
    rfundefs;
    rindirects;
    rtargets;
    rconsts;
    ropenworld;
    rtuhash;
    rmeta =
      {
        mfiles;
        msource_lines;
        mpreproc_lines;
        mcounts = { Prim.n_copy; n_addr; n_store; n_deref2; n_load };
      };
  }

let view_of_string data = view_of_sections (Sectioned.of_string format data)

(* STATIC stores only destination, source and location: a record reads
   back as a plain [Paddr]. *)
let as_static p =
  if p.pkind = Paddr && p.pop = None then p
  else { p with pkind = Paddr; pop = None }

(** Serialize [db] and describe the bytes from the records just encoded:
    the view {!view_of_string} would decode from them, without the
    decode.  Records (argument arrays included) are shared with [db];
    the arrays holding them are the view's own. *)
let encode (db : db) : view =
  let nvars = Array.length db.vars in
  if Array.length db.blocks <> nvars then
    invalid_arg "Objfile.encode: one block list per object expected";
  let l = layout db in
  let data = Sectioned.write format l.sections in
  let blob_start =
    Sectioned.payload_offset format l.sections sec_dynamic + l.blob_pos
  in
  let block_index = Array.init (2 * nvars) (fun i -> if i land 1 = 0 then -1 else 0) in
  List.iter
    (fun (src, off, n) ->
      block_index.(2 * src) <- blob_start + off;
      block_index.((2 * src) + 1) <- n)
    l.index;
  {
    data;
    strings = Strtab.to_array l.st;
    rvars = Array.copy db.vars;
    rkeys = db.keys;
    rstatics = Array.of_list (List.map as_static db.statics);
    block_index;
    blob_limit = blob_start + l.blob_size;
    rfundefs = Array.of_list db.fundefs;
    rindirects = Array.of_list db.indirects;
    rtargets = Array.map (fun i -> (db.vars.(i).vname, i)) l.targets;
    rconsts = db.consts;
    ropenworld = db.openworld;
    rtuhash = db.tuhash;
    rmeta = db.meta;
  }

(** Decode the dynamic block of [src]: the primitive assignments in which
    [src] is the source.  Each call re-reads from the underlying bytes —
    callers are free to discard the result and call again (the
    load-and-throw-away strategy). *)
let read_block (v : view) (src : int) : prim_rec list =
  let off = v.block_index.(2 * src) and n = v.block_index.((2 * src) + 1) in
  if off < 0 then []
  else begin
    let nvars = Array.length v.rvars in
    let r = Binio.reader ~pos:off ~limit:v.blob_limit v.data in
    List.init n (fun _ ->
        let tag = Binio.ru8 r in
        let pkind = decode_pkind (tag land 0x7) in
        let pdst = Binio.rvarint r in
        if pdst >= nvars then
          raise (Binio.Corrupt (Fmt.str "block dst %d out of range" pdst));
        let pop =
          if tag land 0x8 <> 0 then begin
            let op = str v.strings (Binio.rvarint r) in
            let s = decode_strength (Binio.ru8 r) in
            Some (op, s)
          end
          else None
        in
        let ploc = read_loc r v.strings in
        { pkind; pdst; psrc = src; pop; ploc })
  end

let has_block (v : view) (src : int) = v.block_index.(2 * src) >= 0
let n_vars (v : view) = Array.length v.rvars

(** Look up objects by display name (the "target section" hashtable of
    Figure 4; here a sorted array with binary search). *)
let find_targets (v : view) name : int list =
  let lo = ref 0 and hi = ref (Array.length v.rtargets) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if String.compare (fst v.rtargets.(mid)) name < 0 then lo := mid + 1
    else hi := mid
  done;
  let acc = ref [] in
  let i = ref !lo in
  while
    !i < Array.length v.rtargets && String.equal (fst v.rtargets.(!i)) name
  do
    acc := snd v.rtargets.(!i) :: !acc;
    incr i
  done;
  List.rev !acc

(* ------------------------------------------------------------------ *)
(* File helpers                                                        *)
(* ------------------------------------------------------------------ *)

let save path (db : db) =
  let data = write db in
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let load path : view = view_of_string (Binio.read_file path)

(** Like {!load}, but surfacing corruption and I/O failures as a
    structured {!Diag.t} naming the offending file. *)
let load_result path : (view, Diag.t) result =
  Diag.capture ~file:path ~phase:Diag.Load (fun () -> load path)
