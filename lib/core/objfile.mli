(** The CLA object file: an indexed database of primitive assignments
    (Section 4, Figure 4 of the paper).

    One format serves as both "object file" (per translation unit) and
    "executable" (after linking), exactly as in the paper.  The layout is
    COFF/ELF-like — a {!Sectioned} container, a checksummed section
    table followed by sections — so that new sections can be added
    without rewriting existing analyses:

    - {b STRTAB}: interned common strings;
    - {b VARS}: one record per object (name, kind, linkage, type, owner
      function, declaration site);
    - {b GLOBALS}: linking information — the canonical key of every
      extern object;
    - {b STATIC}: the address-of assignments [x = &y], always loaded by
      points-to analysis;
    - {b DYNAMIC}: per-object blocks — for each object, the primitive
      assignments in which it is the {e source} — preceded by an index so
      one lookup finds a block;
    - {b FUNDEFS} / {b INDIRECT}: standardized argument/return variables
      of function definitions and indirect call sites, linked at analysis
      time;
    - {b TARGETS}: name → object index, for the dependence analysis;
    - {b META}: provenance and Table 2 statistics;
    - {b OPENWORLD} (optional): the open-world summary — blob variable,
      undefined functions, escaping externs — present iff the database
      was linked with [--open-world]. *)

open Cla_ir

(* ------------------------------------------------------------------ *)
(** {1 In-memory database} *)

type varinfo = {
  vname : string;  (** display name ([f@1] for standardized arguments) *)
  vkind : Var.kind;
  vlinkage : Var.linkage;
  vtyp : string;  (** pretty-printed declared type, or [""] *)
  vloc : Loc.t;  (** declaration site *)
  vowner : string;  (** enclosing function for locals, or [""] *)
  vdefined : bool;
      (** false while the object is only ever declared ([extern] without
          initializer); files written before the bit existed read back as
          defined *)
}

(** The five primitive kinds, in Table 2 column order. *)
type pkind = Pcopy | Paddr | Pstore | Pderef2 | Pload

type prim_rec = {
  pkind : pkind;
  pdst : int;
  psrc : int;
  pop : (string * Strength.t) option;
      (** operation provenance on copies ([x =(+) y]) *)
  ploc : Loc.t;
}

type fund_rec = {
  ffvar : int;  (** the function object *)
  farity : int;
  fret : int;  (** standardized return variable, or [-1] *)
  fargs : int array;  (** standardized argument variables (may hold [-1]) *)
  ffloc : Loc.t;
}

type indir_rec = {
  iptr : int;  (** the called pointer *)
  inargs : int;
  iret : int;
  iargs : int array;
  iiloc : Loc.t;
}

(** {2 Analysis-time call binding}

    One rule for every solver: an indirect call reaching a function
    object binds through that object's FUNDEF. *)

(** FUNDEF records keyed by their function object ([ffvar]). *)
val fundef_table : fund_rec array -> (int, fund_rec) Hashtbl.t

(** Add FUNDEF records to such a table; a later record for the same
    function object replaces an earlier one. *)
val add_fundefs : (int, fund_rec) Hashtbl.t -> fund_rec Seq.t -> unit

(** [iter_call_copies fd r f] calls [f ~dst ~src] for each copy the
    indirect call [r] makes when it reaches the function of [fd]: the
    [i]-th parameter gets the [i]-th actual ([g@i = f@i]) for every [i]
    below both arities where both sides exist, then the call's result
    gets the callee's return value ([f@ret = g@ret]) when both exist.
    Extra actuals and a missing return bind nothing. *)
val iter_call_copies :
  fund_rec -> indir_rec -> (dst:int -> src:int -> unit) -> unit

type meta = {
  mfiles : string list;
  msource_lines : int;  (** non-blank, non-# source lines (Table 2) *)
  mpreproc_lines : int;
  mcounts : Prim.counts;  (** per-kind totals (Table 2) *)
}

(** Open-world summary attached by the linker's [Open_world] policy.
    The havoc constraints themselves are ordinary prim/fundef/indirect
    records baked into the normal sections — every solver consumes them
    through the standard machinery; this summary records what was
    synthesized and why. *)
type ow = {
  owblob : int;  (** var id of the blob abstract location *)
  owundef : string list;  (** declared-but-undefined function names *)
  owescape : int list;  (** extern objects never defined by any unit *)
}

(** A complete database, ready to serialize.  Produced by the compile
    phase, the linker, and the {!Transform} optimizers. *)
type db = {
  vars : varinfo array;
  keys : (int * string) list;  (** extern object → canonical linking key *)
  statics : prim_rec list;  (** all [Paddr], in source order *)
  blocks : prim_rec list array;  (** indexed by source object *)
  fundefs : fund_rec list;
  indirects : indir_rec list;
  consts : (int * int64) list;
      (** integer constants assigned directly to objects — the paper's
          constants section, used by the narrowing checker *)
  openworld : ow option;  (** present iff linked under open-world mode *)
  tuhash : string option;
      (** content hash of the preprocessed TU + compile flags — present
          on per-unit objects produced by {!Compilep}, absent on linked
          databases.  The incremental pipeline compares it to skip
          recompiling unchanged units. *)
  meta : meta;
}

(* ------------------------------------------------------------------ *)
(** {1 Serialization} *)

(** The container format: magic ["CLA2"], no version word. *)
val format : Sectioned.format

(** Serialize a database to object-file bytes. *)
val write : db -> string

(** A view over serialized bytes.  Everything cheap is decoded eagerly;
    the DYNAMIC blocks — the bulk of the file — decode on demand via
    {!read_block}, which is what enables the load-on-demand and
    load-and-throw-away strategies of Section 6. *)
type view = {
  data : string;
  strings : string array;
  rvars : varinfo array;
  rkeys : (int * string) list;
  rstatics : prim_rec array;
  block_index : int array;
      (** two cells per object: absolute offset (or [-1]), record count *)
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

(** Parse the header and eager sections.  Raises {!Binio.Corrupt} on a
    malformed file — and only {!Binio.Corrupt}: {!Sectioned} validates
    the table and checks each section's CRC32 at first open, record
    counts are validated against the bytes available, and every decoded
    object/string index is range checked, so hostile bytes cannot
    surface as [Invalid_argument], out-of-bounds access, or a huge
    allocation. *)
val view_of_string : string -> view

(** {2 The encoder's two steps}

    {!write} and {!encode} run both: {e number} turns the records into
    one int column per section, every string an id in a string table,
    and {e emit} writes the columns out as section bytes, giving the
    strings their file ids in the order the sections first use them.
    The bytes therefore depend only on the records, not on the order in
    which the table learnt its strings, so columns can be kept and
    patched: the delta linker renumbers only what a relink changed. *)

(** The database with no objects, records or files. *)
val empty : db

(** A database's records as int columns, one per section. *)
type columns

(** [number db] numbers [db] afresh.  [number ~old:(c, o) db], where [c]
    is [o] numbered, numbers only the records of [db] that [o] does not
    hold physically in the same place: a VARS record is kept when
    [db.vars.(i) == o.vars.(i)], a block, the STATIC, FUNDEFS and
    INDIRECT lists keep their longest physically shared prefix, and
    TARGETS merges the new and renamed objects into the kept order.
    GLOBALS, META, CONSTS, OPENWORLD and TUHASH are numbered whole.
    Emitting the result gives the bytes of [number db]; [c] stays valid
    (its string table only grows). *)
val number : ?old:columns * db -> db -> columns

(** [emit c db], where [c] is [db] numbered, is [encode db]. *)
val emit : columns -> db -> view

(** [encode db] is [view_of_string (write db)], built from the records
    it has just encoded instead of by decoding the bytes again.  The
    view shares [db]'s records, but the arrays holding them ([rvars],
    [rstatics], ...) are its own, so a later write into [db.vars]
    cannot reach it.  Every view of a
    database built in memory comes from here; {!view_of_string} is for
    bytes from outside.  Raises [Invalid_argument] unless [db.blocks]
    has one list per object. *)
val encode : db -> view

(** Decode the dynamic block of an object: the assignments in which it is
    the source.  Re-reads the underlying bytes on every call — callers are
    free to discard results and ask again. *)
val read_block : view -> int -> prim_rec list

val has_block : view -> int -> bool
val n_vars : view -> int

(** Look up objects by display name (Figure 4's "target section"). *)
val find_targets : view -> string -> int list

(* ------------------------------------------------------------------ *)
(** {1 Files} *)

val save : string -> db -> unit
val load : string -> view

(** Like {!load}, but surfacing corruption and I/O failures as a
    structured {!Diag.t} naming the offending file. *)
val load_result : string -> (view, Diag.t) result
