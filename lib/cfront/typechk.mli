(** Best-effort type synthesis for expressions.

    Field-based mode needs to know {e which} struct's field an access
    [e.f] / [e->f] goes through ("the same field of the same struct
    type", Section 2), and the normalizer must distinguish arrays
    (index-independent objects) from pointers (dereferenced).  Synthesis
    is purely syntactic; failure degrades gracefully to a per-name
    wildcard composite. *)

open Cast

type env = {
  comps : (string, compdef) Hashtbl.t;  (** struct/union tag -> definition *)
  typedefs : (string, typ) Hashtbl.t;
  lookup : string -> typ option;  (** visible object types, scope-aware *)
}

(** Unroll typedef indirections. *)
val resolve : env -> typ -> typ

val field_type : env -> string -> string -> typ option

val typeof : env -> expr -> typ option

(** Tag of the struct/union that [e.f] (resp. [e->f]) accesses. *)
val member_tag : env -> expr -> string option

val arrow_tag : env -> expr -> string option
val is_array : env -> typ -> bool
val is_function : env -> typ -> bool

(** Does dereferencing a value of type [t] in call position denote a
    function?  True for function types and pointers to functions, false
    for pointers to function pointers (where [*e] is a genuine load). *)
val is_function_pointer : env -> typ -> bool
