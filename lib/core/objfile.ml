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

(* An int64 zigzag-encoded, as the two 32-bit halves written as
   varints. *)
let zigzag_halves (v : int64) =
  let z = Int64.logxor (Int64.shift_left v 1) (Int64.shift_right v 63) in
  ( Int64.to_int (Int64.logand z 0xFFFFFFFFL),
    Int64.to_int (Int64.shift_right_logical z 32) )

let read_i64 r =
  let lo = Int64.of_int (Binio.rvarint r) in
  let hi = Int64.of_int (Binio.rvarint r) in
  let z = Int64.logor lo (Int64.shift_left hi 32) in
  Int64.logxor (Int64.shift_right_logical z 1) (Int64.neg (Int64.logand z 1L))

(* TARGETS order: by name, then by id. *)
let by_name vars i j =
  match String.compare vars.(i).vname vars.(j).vname with
  | 0 -> Int.compare i j
  | c -> c

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
  let j = ref 0 in
  while !j < n do
    let stop = ref (!j + 1) in
    while !stop < n && keys.(!stop) = keys.(!j) do
      incr stop
    done;
    if !stop - !j > 1 then begin
      let run = Array.sub ids !j (!stop - !j) in
      Array.stable_sort (by_name vars) run;
      Array.blit run 0 ids !j (!stop - !j)
    end;
    j := !stop
  done;
  ids

(* ------------------------------------------------------------------ *)
(* Numbering: records as int columns                                  *)
(* ------------------------------------------------------------------ *)

(* The encoder runs in two steps.  [number] turns the records into one
   int column per section, every string an id in a {!Strtab}; [emit]
   writes the columns out as section bytes.  Emit gives each string its
   file id in the order the sections first use it — the order one pass
   over the records would intern them — so the bytes do not depend on
   the order in which the table learnt its strings.  That lets the
   delta linker keep the columns of its last relink and number only the
   records an edit added or replaced. *)

(* The big columns hold 32-bit words in bytes: half the size of an int
   array, copied by [Bytes.blit], and never scanned by the GC.  Word
   access is unchecked; every record's span is checked once with
   [span] before its words are read or written. *)
external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

let[@inline] cget a i = Int32.to_int (get32u a (4 * i))

let[@inline] cset a i v =
  let w = Int32.of_int v in
  if Int32.to_int w <> v then invalid_arg "Objfile: value out of 32-bit range";
  set32u a (4 * i) w

let[@inline] span a o w =
  if o < 0 || 4 * (o + w) > Bytes.length a then invalid_arg "Objfile: column overrun"

(* A column is the first [len] words of an arena that successive
   numberings share.  A column grows in place only while it ends at the
   arena's high-water mark [used]; otherwise it is copied first.  So
   the words of an older column never change, and a relink that appends
   copies nothing. *)
type arena = { mutable buf : Bytes.t; mutable used : int }
type col = { ar : arena; len : int }

let no_col () = { ar = { buf = Bytes.empty; used = 0 }; len = 0 }

(* The first [keep] words of [c] followed by room for [extra] more; in
   a new arena with [~copy]. *)
let grow ?(copy = false) c keep extra =
  let len = keep + extra in
  if (not copy) && keep = c.len && keep = c.ar.used then begin
    if 4 * len > Bytes.length c.ar.buf then begin
      (* a fresh column is sized exactly; one that grows doubles *)
      let buf =
        Bytes.create (if keep = 0 then 4 * len else max (4 * len) (2 * Bytes.length c.ar.buf))
      in
      Bytes.blit c.ar.buf 0 buf 0 (4 * keep);
      c.ar.buf <- buf
    end;
    c.ar.used <- len;
    { c with len }
  end
  else begin
    let buf = Bytes.create (4 * len) in
    Bytes.blit c.ar.buf 0 buf 0 (4 * keep);
    { ar = { buf; used = len }; len }
  end

(* Words per record of the fixed-width columns. *)
let var_w = 9 (* name, kind, argument index, linkage bits, type, owner, file, line, col *)
let static_w = 5 (* dst, src, file, line, col *)
let prim_w = 7 (* tag, dst, op, strength, file, line, col *)

(* A FUNDEFS or INDIRECT record takes [call_w] words and one per
   argument: object, arity, return, argument count, the arguments,
   file, line, col. *)
let call_w = 7

let arg_code = kind_code (Var.Arg 0)

type columns = {
  st : Strtab.t;  (* the columns' string ids; may hold strings none uses *)
  ordered : bool;  (* every id is already its file id: numbered afresh *)
  cvars : col;
  cstatics : col;
  cdyn : col;  (* the blocks' records, each block contiguous *)
  cdyn_at : int array;  (* per object: its block's first record, record count *)
  cfundefs : col;
  nfundefs : int;
  cindirects : col;
  nindirects : int;
  ctargets : (string * int) array;  (* TARGETS: (name, object), sorted *)
  cglobals : int array;  (* object, key *)
  cmeta : int array;
      (* file count, the files, source lines, preprocessed lines, the
         five Table 2 counts *)
  cconsts : int array;  (* object, the value's two halves *)
  copenworld : (int * int array * int array) option;
      (* blob, undefined names, escaping objects *)
  ctuhash : int option;
}

let empty =
  {
    vars = [||];
    keys = [];
    statics = [];
    blocks = [||];
    fundefs = [];
    indirects = [];
    consts = [];
    openworld = None;
    tuhash = None;
    meta =
      { mfiles = []; msource_lines = 0; mpreproc_lines = 0; mcounts = Prim.zero_counts };
  }

let number_loc st a o (l : Loc.t) =
  cset a o (Strtab.intern_repeated st l.file);
  cset a (o + 1) l.line;
  cset a (o + 2) l.col

let number_var st a i v =
  let o = var_w * i in
  span a o var_w;
  cset a o (Strtab.intern st v.vname);
  cset a (o + 1) (kind_code v.vkind);
  cset a (o + 2) (match v.vkind with Var.Arg n -> n | _ -> 0);
  (* bit0 linkage, bit1 set when the object is only ever declared
     (never defined) — files written before the bit existed read back
     as defined, the closed-world assumption *)
  cset a (o + 3)
    ((match v.vlinkage with Var.Extern -> 0 | Var.Intern -> 1)
    lor if v.vdefined then 0 else 2);
  cset a (o + 4) (Strtab.intern st v.vtyp);
  cset a (o + 5) (Strtab.intern st v.vowner);
  number_loc st a (o + 6) v.vloc

(* Number a list's records into [a] from word [o]. *)
let rec number_statics st a o = function
  | [] -> ()
  | p :: rest ->
      span a o static_w;
      cset a o p.pdst;
      cset a (o + 1) p.psrc;
      number_loc st a (o + 2) p.ploc;
      number_statics st a (o + static_w) rest

(* A prim inside a block: the source is implicit (the block's owner). *)
let rec number_prims st a o = function
  | [] -> ()
  | p :: rest ->
      span a o prim_w;
      cset a o (pkind_code p.pkind lor match p.pop with Some _ -> 0x8 | None -> 0);
      cset a (o + 1) p.pdst;
      (match p.pop with
      | Some (op, s) ->
          cset a (o + 2) (Strtab.intern st op);
          cset a (o + 3) (strength_code s)
      | None ->
          cset a (o + 2) 0;
          cset a (o + 3) 0);
      number_loc st a (o + 4) p.ploc;
      number_prims st a (o + prim_w) rest

let number_call st a o ~var ~arity ~ret args loc =
  let n = Array.length args in
  span a o (call_w + n);
  cset a o var;
  cset a (o + 1) arity;
  cset a (o + 2) ret;
  cset a (o + 3) n;
  Array.iteri (fun j x -> cset a (o + 4 + j) x) args;
  number_loc st a (o + 4 + n) loc

let fundef_w f = call_w + Array.length f.fargs
let indirect_w i = call_w + Array.length i.iargs

let rec number_fundefs st a o = function
  | [] -> ()
  | f :: rest ->
      number_call st a o ~var:f.ffvar ~arity:f.farity ~ret:f.fret f.fargs f.ffloc;
      number_fundefs st a (o + fundef_w f) rest

let rec number_indirects st a o = function
  | [] -> ()
  | i :: rest ->
      number_call st a o ~var:i.iptr ~arity:i.inargs ~ret:i.iret i.iargs i.iiloc;
      number_indirects st a (o + indirect_w i) rest

(* How many records [l] starts with that are physically those [old]
   starts with, and the records after them. *)
let rec shared_prefix k old l =
  match (old, l) with
  | o :: old', r :: l' when o == r -> shared_prefix (k + 1) old' l'
  | _ -> (k, l)

(* The words the first [k] records of a FUNDEFS or INDIRECT column
   take. *)
let calls_prefix a k =
  let o = ref 0 in
  for _ = 1 to k do
    span a !o call_w;
    o := !o + call_w + cget a (!o + 3)
  done;
  !o

let targetable v =
  match v.vkind with Var.Temp | Var.Arg _ | Var.Ret -> false | _ -> true

(* [kept] (in TARGETS order) with the objects [added] (ascending ids)
   merged in: each added object is placed by binary search, and the
   kept runs between them are copied whole. *)
let merge_targets vars kept added =
  let added = Array.map (fun i -> (vars.(i).vname, i)) (sort_targets vars added) in
  let nk = Array.length kept and na = Array.length added in
  if na = 0 then kept
  else if nk = 0 then added
  else begin
    let out = Array.make (nk + na) ("", 0) in
    let from = ref 0 in
    Array.iteri
      (fun j x ->
        let lo = ref !from and hi = ref nk in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          let n, i = kept.(mid) and m, k = x in
          let c = match String.compare n m with 0 -> Int.compare i k | c -> c in
          if c < 0 then lo := mid + 1 else hi := mid
        done;
        Array.blit kept !from out (!from + j) (!lo - !from);
        out.(!lo + j) <- x;
        from := !lo)
      added;
    Array.blit kept !from out (!from + na) (nk - !from);
    out
  end

(* DYNAMIC: a block physically the same as [o]'s keeps its records
   where they are; any other block is written at the end of the arena,
   the records it shares with [o]'s block copied, the rest numbered. *)
let number_blocks st (c : columns) (o : db) (blocks : prim_rec list array) =
  let nb = Array.length blocks and ob = Array.length o.blocks in
  let at = Array.make (2 * nb) 0 in
  Array.blit c.cdyn_at 0 at 0 (2 * min nb ob);
  let kept i prims = i < ob && prims == o.blocks.(i) in
  let extra = ref 0 in
  Array.iteri
    (fun i prims -> if not (kept i prims) then extra := !extra + List.length prims)
    blocks;
  let dyn = grow c.cdyn c.cdyn.len (prim_w * !extra) in
  let buf = dyn.ar.buf and r = ref (c.cdyn.len / prim_w) in
  Array.iteri
    (fun i prims ->
      if not (kept i prims) then begin
        let k, rest = if i < ob then shared_prefix 0 o.blocks.(i) prims else (0, prims) in
        if k > 0 then
          Bytes.blit buf (4 * prim_w * at.(2 * i)) buf (4 * prim_w * !r) (4 * prim_w * k);
        number_prims st buf (prim_w * (!r + k)) rest;
        let n = k + List.length rest in
        at.(2 * i) <- (if n = 0 then 0 else !r);
        at.((2 * i) + 1) <- n;
        r := !r + n
      end)
    blocks;
  (dyn, at)

let number ?old (db : db) : columns =
  let nvars = Array.length db.vars in
  let c, o =
    match old with
    | Some old -> old
    | None ->
        (* names, types and owners repeat: about one string per object *)
        let st = Strtab.create ~size:(nvars + List.length db.keys) () in
        ( {
            st;
            ordered = true;
            cvars = no_col ();
            cstatics = no_col ();
            cdyn = no_col ();
            cdyn_at = [||];
            cfundefs = no_col ();
            nfundefs = 0;
            cindirects = no_col ();
            nindirects = 0;
            ctargets = [||];
            cglobals = [||];
            cmeta = [||];
            cconsts = [||];
            copenworld = None;
            ctuhash = None;
          },
          empty )
  in
  let st = c.st in
  (* VARS: the objects [db] shares with [o] keep their columns *)
  let kept = min (Array.length o.vars) nvars in
  let replaced = ref [] in
  for i = kept - 1 downto 0 do
    if db.vars.(i) != o.vars.(i) then replaced := i :: !replaced
  done;
  let cvars =
    (* a replaced record is rewritten in a copy: [c] keeps its words *)
    grow ~copy:(!replaced <> []) c.cvars (var_w * kept) (var_w * (nvars - kept))
  in
  let vbuf = cvars.ar.buf in
  for i = kept to nvars - 1 do
    number_var st vbuf i db.vars.(i)
  done;
  List.iter (fun i -> number_var st vbuf i db.vars.(i)) !replaced;
  (* TARGETS: a replaced object moves if its name or targetability
     changed; the rest of the kept order stands *)
  let moved =
    List.filter
      (fun i ->
        (* [i] is below [kept]: its span is in both columns *)
        cget vbuf (var_w * i) <> cget c.cvars.ar.buf (var_w * i)
        || targetable db.vars.(i) <> targetable o.vars.(i))
      !replaced
  in
  let ctargets =
    let kept_targets =
      if moved = [] && kept = Array.length o.vars then c.ctargets
      else begin
        let stays = Array.make kept true in
        List.iter (fun i -> stays.(i) <- false) moved;
        Array.of_seq
          (Seq.filter (fun (_, i) -> i < kept && stays.(i)) (Array.to_seq c.ctargets))
      end
    in
    let added = Array.make (List.length moved + nvars - kept) 0 and n = ref 0 in
    let add i =
      if targetable db.vars.(i) then begin
        added.(!n) <- i;
        incr n
      end
    in
    List.iter add moved;
    for i = kept to nvars - 1 do
      add i
    done;
    merge_targets db.vars kept_targets (Array.sub added 0 !n)
  in
  (* GLOBALS is numbered whole, and before STATIC: a fresh numbering
     interns every string in the order emit first uses it *)
  let cglobals = Array.make (2 * List.length db.keys) 0 in
  (* an object keeps the key it had: its id need not be hashed again *)
  let key_of = Array.make kept (-1) in
  for j = 0 to (Array.length c.cglobals / 2) - 1 do
    let var = c.cglobals.(2 * j) in
    if var < kept then key_of.(var) <- c.cglobals.((2 * j) + 1)
  done;
  List.iteri
    (fun j (var, key) ->
      let k = if var < kept then key_of.(var) else -1 in
      cglobals.(2 * j) <- var;
      cglobals.((2 * j) + 1) <-
        (if k >= 0 && String.equal (Strtab.get st k) key then k else Strtab.intern st key))
    db.keys;
  let k, rest = shared_prefix 0 o.statics db.statics in
  let cstatics = grow c.cstatics (static_w * k) (static_w * List.length rest) in
  number_statics st cstatics.ar.buf (static_w * k) rest;
  let cdyn, cdyn_at = number_blocks st c o db.blocks in
  let k, rest = shared_prefix 0 o.fundefs db.fundefs in
  let at = calls_prefix c.cfundefs.ar.buf k in
  let cfundefs = grow c.cfundefs at (List.fold_left (fun n f -> n + fundef_w f) 0 rest) in
  number_fundefs st cfundefs.ar.buf at rest;
  let nfundefs = k + List.length rest in
  let k, rest = shared_prefix 0 o.indirects db.indirects in
  let at = calls_prefix c.cindirects.ar.buf k in
  let cindirects = grow c.cindirects at (List.fold_left (fun n i -> n + indirect_w i) 0 rest) in
  number_indirects st cindirects.ar.buf at rest;
  let nindirects = k + List.length rest in
  (* the small sections are numbered whole, in section order *)
  let m = db.meta and cnt = db.meta.mcounts in
  let cmeta =
    Array.of_list
      ((List.length m.mfiles :: List.map (Strtab.intern st) m.mfiles)
      @ [
          m.msource_lines; m.mpreproc_lines; cnt.Prim.n_copy; cnt.Prim.n_addr;
          cnt.Prim.n_store; cnt.Prim.n_deref2; cnt.Prim.n_load;
        ])
  in
  let cconsts = Array.make (3 * List.length db.consts) 0 in
  List.iteri
    (fun j (var, v) ->
      let lo, hi = zigzag_halves v in
      cconsts.(3 * j) <- var;
      cconsts.((3 * j) + 1) <- lo;
      cconsts.((3 * j) + 2) <- hi)
    db.consts;
  let copenworld =
    Option.map
      (fun ow ->
        ( ow.owblob,
          Array.of_list (List.map (Strtab.intern st) ow.owundef),
          Array.of_list ow.owescape ))
      db.openworld
  in
  let ctuhash = Option.map (Strtab.intern st) db.tuhash in
  {
    st;
    ordered = Option.is_none old;
    cvars;
    cstatics;
    cdyn;
    cdyn_at;
    cfundefs;
    nfundefs;
    cindirects;
    nindirects;
    ctargets;
    cglobals;
    cmeta;
    cconsts;
    copenworld;
    ctuhash;
  }

(* ------------------------------------------------------------------ *)
(* Emitting: columns as section bytes                                 *)
(* ------------------------------------------------------------------ *)

(* File ids: each string gets the next one the first time a section
   uses it. *)
type file_ids = {
  same : bool;  (* the table ids are the file ids *)
  file_id : int array;  (* by table id, [-1] until used *)
  order : int array;  (* table id by file id *)
  mutable next : int;
}

let first_use ids s =
  let f = ids.next in
  ids.file_id.(s) <- f;
  ids.order.(f) <- s;
  ids.next <- f + 1;
  f

let[@inline] fid ids s =
  if ids.same then s
  else
    let f = ids.file_id.(s) in
    if f >= 0 then f else first_use ids s

let[@inline] emit_loc w ids a o =
  Binio.varint w (fid ids (cget a o));
  Binio.varint w (cget a (o + 1));
  Binio.varint w (cget a (o + 2))

(* Writers are sized from record counts at a few bytes per record (one
   or two per id, three or four per location), so most sections never
   grow. *)
let writer_for n bytes_per = Binio.writer ~size:(4 + (n * bytes_per)) ()

(* FUNDEFS or INDIRECT: [n] records from column [a]. *)
let emit_calls ids n a =
  let w = writer_for n 12 in
  Binio.u32 w n;
  let o = ref 0 in
  for _ = 1 to n do
    let at = !o in
    span a at call_w;
    let nargs = cget a (at + 3) in
    span a at (call_w + nargs);
    for j = at to at + 2 do
      Binio.varint w (cget a j)
    done;
    for j = at + 4 to at + 3 + nargs do
      Binio.varint w (cget a j)
    done;
    emit_loc w ids a (at + 4 + nargs);
    o := at + call_w + nargs
  done;
  w

(* What the encoder laid out: the sections in emission order, plus what
   {!encode} needs to describe the bytes without reading them back. *)
type layout = {
  sections : (int * Binio.writer list) list;
  strings : string array;  (* STRTAB, by file id *)
  block_at : int array;
      (* two cells per object: blob-relative offset of its block (or
         [-1]), record count *)
  blob_pos : int;  (* offset of the blob inside the DYNAMIC payload *)
  blob_size : int;
}

let emit_sections (c : columns) : layout =
  let size = if c.ordered then 0 else Strtab.size c.st in
  let ids =
    { same = c.ordered; file_id = Array.make size (-1); order = Array.make size 0; next = 0 }
  in
  (* VARS and STATIC hold whole records: [nvars] and [nstatics] records
     span them *)
  let a = c.cvars.ar.buf in
  let nvars = c.cvars.len / var_w in
  let b_vars = writer_for nvars 10 in
  Binio.u32 b_vars nvars;
  for i = 0 to nvars - 1 do
    let o = var_w * i in
    let kind = cget a (o + 1) in
    Binio.varint b_vars (fid ids (cget a o));
    Binio.u8 b_vars kind;
    if kind = arg_code then Binio.varint b_vars (cget a (o + 2));
    Binio.u8 b_vars (cget a (o + 3));
    Binio.varint b_vars (fid ids (cget a (o + 4)));
    Binio.varint b_vars (fid ids (cget a (o + 5)));
    emit_loc b_vars ids a (o + 6)
  done;
  let nkeys = Array.length c.cglobals / 2 in
  let b_globals = writer_for nkeys 4 in
  Binio.u32 b_globals nkeys;
  for j = 0 to nkeys - 1 do
    Binio.varint b_globals c.cglobals.(2 * j);
    Binio.varint b_globals (fid ids c.cglobals.((2 * j) + 1))
  done;
  let a = c.cstatics.ar.buf in
  let nstatics = c.cstatics.len / static_w in
  let b_static = writer_for nstatics 8 in
  Binio.u32 b_static nstatics;
  for j = 0 to nstatics - 1 do
    let o = static_w * j in
    Binio.varint b_static (cget a o);
    Binio.varint b_static (cget a (o + 1));
    emit_loc b_static ids a (o + 2)
  done;
  (* DYNAMIC: the index of the non-empty blocks, then the blob *)
  let at = c.cdyn_at and a = c.cdyn.ar.buf in
  let nobj = Array.length at / 2 in
  let nblocks = ref 0 and nprims = ref 0 in
  for i = 0 to nobj - 1 do
    let n = at.((2 * i) + 1) in
    if n > 0 then begin
      incr nblocks;
      nprims := !nprims + n
    end
  done;
  let b_dynamic = writer_for !nblocks 6 in
  Binio.u32 b_dynamic !nblocks;
  let b_blob = writer_for !nprims 7 in
  let block_at = Array.make (2 * nobj) 0 in
  for src = 0 to nobj - 1 do
    let first = at.(2 * src) and n = at.((2 * src) + 1) in
    if n = 0 then block_at.(2 * src) <- -1
    else begin
      span a (prim_w * first) (prim_w * n);
      let off = Binio.wpos b_blob in
      Binio.varint b_dynamic src;
      Binio.varint b_dynamic off;
      Binio.varint b_dynamic n;
      block_at.(2 * src) <- off;
      block_at.((2 * src) + 1) <- n;
      for r = first to first + n - 1 do
        let o = prim_w * r in
        let tag = cget a o in
        Binio.u8 b_blob tag;
        Binio.varint b_blob (cget a (o + 1));
        if tag land 0x8 <> 0 then begin
          Binio.varint b_blob (fid ids (cget a (o + 2)));
          Binio.u8 b_blob (cget a (o + 3))
        end;
        emit_loc b_blob ids a (o + 4)
      done
    end
  done;
  Binio.u32 b_dynamic (Binio.wpos b_blob);
  (* the blob follows the index in the same section: {!Sectioned.write}
     copies it straight into the file *)
  let blob_pos = Binio.wpos b_dynamic in
  let b_fundefs = emit_calls ids c.nfundefs c.cfundefs.ar.buf in
  let b_indirect = emit_calls ids c.nindirects c.cindirects.ar.buf in
  (* targets: the named objects' indices, sorted by (name, index) for
     binary search *)
  let ntargets = Array.length c.ctargets in
  let b_targets = writer_for ntargets 4 in
  Binio.u32 b_targets ntargets;
  Array.iter
    (fun (_, i) ->
      span c.cvars.ar.buf (var_w * i) var_w;
      Binio.varint b_targets (fid ids (cget c.cvars.ar.buf (var_w * i)));
      Binio.varint b_targets i)
    c.ctargets;
  let m = c.cmeta in
  let b_meta = Binio.writer () in
  Binio.u32 b_meta m.(0);
  for j = 1 to m.(0) do
    Binio.varint b_meta (fid ids m.(j))
  done;
  for j = m.(0) + 1 to Array.length m - 1 do
    Binio.varint b_meta m.(j)
  done;
  let b_consts = Binio.writer () in
  Binio.u32 b_consts (Array.length c.cconsts / 3);
  Array.iter (Binio.varint b_consts) c.cconsts;
  let b_openworld =
    Option.map
      (fun (blob, undef, escape) ->
        let b = Binio.writer () in
        Binio.varint b blob;
        Binio.u32 b (Array.length undef);
        Array.iter (fun s -> Binio.varint b (fid ids s)) undef;
        Binio.u32 b (Array.length escape);
        Array.iter (Binio.varint b) escape;
        b)
      c.copenworld
  in
  let b_tuhash =
    Option.map
      (fun h ->
        let b = Binio.writer () in
        Binio.varint b (fid ids h);
        b)
      c.ctuhash
  in
  (* strtab last to build, first to emit *)
  let strings =
    if c.ordered then Strtab.to_array c.st
    else Array.init ids.next (fun f -> Strtab.get c.st ids.order.(f))
  in
  let sections =
    [
      (sec_strtab, [ Strtab.write strings ]); (sec_vars, [ b_vars ]);
      (sec_globals, [ b_globals ]); (sec_static, [ b_static ]);
      (sec_dynamic, [ b_dynamic; b_blob ]); (sec_fundefs, [ b_fundefs ]);
      (sec_indirect, [ b_indirect ]); (sec_targets, [ b_targets ]);
      (sec_meta, [ b_meta ]); (sec_consts, [ b_consts ]);
    ]
    @ (match b_openworld with Some b -> [ (sec_openworld, [ b ]) ] | None -> [])
    @ match b_tuhash with Some b -> [ (sec_tuhash, [ b ]) ] | None -> []
  in
  { sections; strings; block_at; blob_pos; blob_size = Binio.wpos b_blob }

(** Serialize a database to object-file bytes. *)
let write (db : db) : string =
  Sectioned.write format (emit_sections (number db)).sections

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

(** Emit [db]'s columns [c] and describe the bytes from the records:
    the view {!view_of_string} would decode from them, without the
    decode.  Records (argument arrays included) are shared with [db];
    the arrays holding them are the view's own. *)
let emit (c : columns) (db : db) : view =
  let nvars = Array.length db.vars in
  if Array.length db.blocks <> nvars then
    invalid_arg "Objfile.encode: one block list per object expected";
  let l = emit_sections c in
  let data = Sectioned.write format l.sections in
  let blob_start =
    Sectioned.payload_offset format l.sections sec_dynamic + l.blob_pos
  in
  let rstatics = Array.of_list db.statics in
  Array.map_inplace as_static rstatics;
  let block_index = l.block_at in
  for i = 0 to nvars - 1 do
    if block_index.(2 * i) >= 0 then
      block_index.(2 * i) <- blob_start + block_index.(2 * i)
  done;
  {
    data;
    strings = l.strings;
    rvars = Array.copy db.vars;
    rkeys = db.keys;
    rstatics;
    block_index;
    blob_limit = blob_start + l.blob_size;
    rfundefs = Array.of_list db.fundefs;
    rindirects = Array.of_list db.indirects;
    rtargets = Array.copy c.ctargets;
    rconsts = db.consts;
    ropenworld = db.openworld;
    rtuhash = db.tuhash;
    rmeta = db.meta;
  }

let encode (db : db) : view = emit (number db) db

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
