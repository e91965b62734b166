(** Abstract objects ("variables") tracked by the analyses: source
    variables, struct fields (one per field of each struct definition in
    field-based mode), heap-allocation sites, functions themselves, and
    the standardized argument/return variables [f@i] / [f@ret] of
    Section 4. *)

type kind =
  | Global  (** file-scope variable with external linkage *)
  | Filelocal  (** [static] variable, function local, or parameter *)
  | Temp  (** temporary introduced by the normalizer *)
  | Field  (** struct/union field object; the name is ["S.f"] *)
  | Heap  (** heap allocation site; one per static occurrence of malloc *)
  | Func  (** a function, as an object function pointers can denote *)
  | Arg of int  (** standardized i-th argument (1-based) of a function *)
  | Ret  (** standardized return variable of a function *)

(** [Extern] objects are merged by canonical key across object files by
    the linker; [Intern] objects are private to their translation unit. *)
type linkage = Extern | Intern

type t = {
  uid : int;  (** identity within one translation unit *)
  name : string;
  kind : kind;
  linkage : linkage;
  typ : string;  (** pretty-printed declared type, for dependence reports *)
  loc : Loc.t;  (** declaration site *)
  owner : string;  (** enclosing function for locals, or [""] *)
  mutable defined : bool;
      (** [false] while the unit has only seen extern declarations — the
          open-world linker uses this to find escaping externs *)
}

val uid : t -> int
val name : t -> string
val kind : t -> kind
val linkage : t -> linkage
val owner : t -> string
val defined : t -> bool

(** Definitions are sticky: once a unit defines the object, later extern
    declarations do not un-define it. *)
val mark_defined : t -> unit

(** Canonical linking key: two extern objects with the same key are the
    same object.  [scope] disambiguates file-local names. *)
val key : ?scope:string -> kind -> string -> string

(** Display name: [f@2] for arguments ([f@...] for the [Arg 0] varargs
    bucket), [f@ret] for returns, the plain name otherwise. *)
val display : t -> string

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

val to_string : t -> string
