(** Per-translation-unit variable table: interns variables by canonical
    key so every occurrence of a source object maps to one {!Var.t} with
    a unit-local uid.  The compile phase serializes the table; the linker
    merges [Extern] entries by key. *)

type t

val create : unit -> t
val size : t -> int

(** Return the existing variable with the same canonical key, or create
    one.  [typ] and [loc] are recorded on first creation only, and [typ]
    (default [""]) is only called then; [linkage]
    defaults by kind (globals/fields/functions/args/rets extern, the rest
    intern).  [defined] (default [true]) marks whether this occurrence
    defines the object; definitions are sticky — an extern declaration
    ([defined:false]) never downgrades an object already defined. *)
val intern :
  ?scope:string ->
  ?typ:(unit -> string) ->
  ?loc:Loc.t ->
  ?linkage:Var.linkage ->
  ?defined:bool ->
  t ->
  kind:Var.kind ->
  name:string ->
  unit ->
  Var.t

(** Fresh compiler temporary; never aliases an existing variable. *)
val fresh_temp : ?loc:Loc.t -> t -> Var.t

(** All variables in increasing uid order. *)
val to_array : t -> Var.t array
