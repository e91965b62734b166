(** Forward data-dependence analysis — the deployed application the
    points-to system was built for (Section 2 of the paper).

    Given a target object whose type must change, find every object that
    can take values from it, rank the dependence chains by the Table 1
    strength of the operations along them (fewest weak links first,
    shortest among equals), and — with {!check_narrowing} — classify which
    dependents must widen with the target to avoid implicit narrowing
    conversions. *)

open Cla_ir
open Cla_core

type t = {
  view : Objfile.view;
  solution : Solution.t;
  loader : Loader.t;
  deref_edges : (int, (int * string option * Loc.t) list) Hashtbl.t;
}

(** Build a dependence analysis from a linked view and a completed
    points-to run (whose retained complex assignments and analysis-time
    indirect-call links it reuses — exactly what Section 6's discard
    strategy keeps in core). *)
val prepare : Objfile.view -> Andersen.result -> t

(** One link of a chain: the source object and the assignment through
    which the value flowed. *)
type step = { s_var : int; s_op : string option; s_loc : Loc.t }

type dependent = {
  d_var : int;
  d_weak : int;  (** weak links on the best chain *)
  d_hops : int;  (** length of the best chain *)
  d_chain : step list;  (** from the dependent back to the target *)
}

type report = {
  r_target : int;
  r_dependents : dependent list;  (** most important chains first *)
}

(** Dependence query from a variable id.  [non_targets] are never entered,
    pruning chains through objects the user knows are irrelevant. *)
val query : t -> ?non_targets:int list -> int -> report

(** Resolve the target (and non-targets) by display name. *)
val query_by_name : t -> ?non_targets:string list -> string -> report option

(** {1 Narrowing check (the motivating application)} *)

(** Bit width of a C integer type ([None] for pointers, structs, floats). *)
val width_of_type : string -> int option

type verdict =
  | Must_widen  (** narrower than the target's new type: data loss *)
  | Wide_enough
  | Not_integer  (** flag for manual review *)

type narrowing = { nv_var : int; nv_typ : string; nv_verdict : verdict }

(** Integer constants known to flow directly into a variable (from the
    object file's constants section). *)
val constants_of : t -> int -> int64 list

(** Classify every dependent: if the target's type grows to [new_type],
    which dependents must grow with it? *)
val check_narrowing : t -> report -> new_type:string -> narrowing list

(** {1 Printing (Figure 1's chain format)} *)

val pp_dependent : t -> Format.formatter -> dependent -> unit
val pp_report : t -> Format.formatter -> report -> unit

(** Report with per-chain narrowing verdicts for a proposed retyping. *)
val pp_report_narrowing :
  t -> new_type:string -> Format.formatter -> report -> unit

(** The chains rendered as a tree rooted at the target — the browsable
    view Section 2 describes. *)
val pp_tree : t -> Format.formatter -> report -> unit
