(** Primitive assignments — the five-kind intermediate language of the CLA
    database (Section 4 of the paper).

    Every C assignment, initializer, argument pass and return lowers to
    these forms; nested [*]/[&] and operator arguments go through
    temporaries.  [Copy] optionally remembers the operation it came from
    ([x = y + z] yields two copies, each tagged with ["+"] and its Table 1
    strength). *)

(** Operation provenance on a [Copy]. *)
type opinfo = {
  op : string;  (** source operator, e.g. ["+"], [">>"], ["cast"] *)
  strength : Strength.t;
}

(** [opinfo op pos] tags a copy with [op], classifying the strength of
    argument position [pos] per Table 1. *)
val opinfo : string -> Strength.position -> opinfo option

type kind =
  | Copy of opinfo option  (** [x = y], optionally through an operation *)
  | Addr  (** [x = &y] — the only base assignment *)
  | Store  (** [*x = y] *)
  | Load  (** [x = *y] *)
  | Deref2  (** [*x = *y] *)

type t = { dst : Var.t; src : Var.t; kind : kind; loc : Loc.t }

val copy : ?op:opinfo -> loc:Loc.t -> Var.t -> Var.t -> t
val addr : loc:Loc.t -> Var.t -> Var.t -> t
val store : loc:Loc.t -> Var.t -> Var.t -> t
val load : loc:Loc.t -> Var.t -> Var.t -> t
val deref2 : loc:Loc.t -> Var.t -> Var.t -> t

(** Strength of the dependence edge [src -> dst] this assignment induces
    (pointer-indirection assignments behave like direct copies). *)
val strength : t -> Strength.t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Table 2 buckets, in the paper's column order. *)
type counts = {
  n_copy : int;
  n_addr : int;
  n_store : int;
  n_deref2 : int;
  n_load : int;
}

val zero_counts : counts
val count_list : t list -> counts
val total : counts -> int
val add_counts : counts -> counts -> counts
val pp_counts : Format.formatter -> counts -> unit
