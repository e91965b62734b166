(** A translation unit (or a whole linked program) in primitive form —
    the normalizer's output and the compile phase's input. *)

(** Per defined function: its arity, so indirect calls can be linked at
    analysis time (Section 4). *)
type fundef = { fvar : Var.t; arity : int; floc : Loc.t }

(** A call through a function pointer. *)
type indirect = { ptr : Var.t; nargs : int; iloc : Loc.t }

type t = {
  file : string;
  assigns : Prim.t list;
  fundefs : fundef list;
  indirects : indirect list;
  vars : Var.t array;  (** all variables, indexed by uid *)
  consts : (Var.t * int64) list;
      (** integer constants assigned directly to an object (feeds the
          narrowing checker) *)
}

val empty : string -> t
val counts : t -> Prim.counts
val n_assigns : t -> int
val n_vars : t -> int

val pp : Format.formatter -> t -> unit
