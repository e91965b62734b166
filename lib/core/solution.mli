(** Points-to analysis results over a linked database.

    A solution maps every variable id of the database to the set of
    locations it may point to.  Locations are themselves variable ids
    (variables, struct fields, heap-allocation sites, functions). *)

(** Which rung of a degradation ladder produced this solution (see
    {!Pipeline.points_to_ladder}); [None] for a plain solve. *)
type provenance = {
  p_rung : string;  (** algorithm that answered, e.g. ["steensgaard"] *)
  p_degraded : bool;
      (** [true] when a more precise rung timed out first *)
  p_note : string;  (** soundness statement for the rung *)
}

type t = {
  view : Objfile.view;
  pts : Lvalset.t array;  (** indexed by variable id *)
  mutable prov : provenance option;
}

val create : Objfile.view -> Lvalset.t array -> t
val set_provenance : t -> provenance -> unit
val provenance : t -> provenance option

(** The points-to set of a variable.  Ids beyond the variable table
    (fresh solver-internal nodes) yield [empty]; a negative id can only
    come from an uninitialized linker sentinel or a corrupted database
    and raises [Invalid_argument] so corruption fails loudly instead of
    analyzing as empty. *)
val points_to : t -> int -> Lvalset.t

val var_name : t -> int -> string

(** Normalizer temporaries are excluded from reported counts, as in
    Table 3. *)
val is_program_var : t -> int -> bool

(** Table 3's "pointer variables": program objects with a non-empty
    points-to set. *)
val n_pointer_vars : t -> int

(** Table 3's "points-to relations": total size of all points-to sets of
    program objects. *)
val n_relations : t -> int

(** Resolve a variable by display name (first match). *)
val find : t -> string -> int option

(** Print every non-empty set, one line each. *)
val pp : Format.formatter -> t -> unit

(** Exact equality of two solutions on program variables — the contract
    between the pre-transitive solver and the baselines. *)
val equal : t -> t -> bool
