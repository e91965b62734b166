(** A translation unit (or a whole linked program) in primitive form. *)

(** Function definition record.  The object file keeps, per defined
    function, its arity so that indirect calls can be linked at analysis
    time: when function [g] enters the points-to set of a called pointer
    [f], the analysis adds [g@i = f@i] and [f@ret = g@ret] (Section 4). *)
type fundef = {
  fvar : Var.t;  (** the [Func]-kind variable for the function *)
  arity : int;
  floc : Loc.t;
}

(** A call through a function pointer: the expression [( *f)(e1,...,en)]
    marks [f] as an indirectly-called pointer of the given arity. *)
type indirect = {
  ptr : Var.t;  (** the pointer expression's variable *)
  nargs : int;
  iloc : Loc.t;
}

type t = {
  file : string;  (** source file this unit came from, or ["<linked>"] *)
  assigns : Prim.t list;
  fundefs : fundef list;
  indirects : indirect list;
  vars : Var.t array;  (** all variables, indexed by [uid] *)
  consts : (Var.t * int64) list;
      (** integer constants assigned directly to an object — the paper's
          "sections that record information about constants", used by the
          narrowing checker *)
}

let empty file =
  { file; assigns = []; fundefs = []; indirects = []; vars = [||]; consts = [] }

let counts t = Prim.count_list t.assigns
let n_assigns t = List.length t.assigns
let n_vars t = Array.length t.vars

let pp ppf t =
  Fmt.pf ppf "@[<v>unit %s: %d vars, %d assigns@," t.file (n_vars t)
    (n_assigns t);
  List.iter (fun a -> Fmt.pf ppf "  %a %a@," Prim.pp a Loc.pp a.Prim.loc) t.assigns;
  List.iter
    (fun f -> Fmt.pf ppf "  fundef %a/%d@," Var.pp f.fvar f.arity)
    t.fundefs;
  List.iter
    (fun i -> Fmt.pf ppf "  indirect (*%a)(...%d args)@," Var.pp i.ptr i.nargs)
    t.indirects;
  Fmt.pf ppf "@]"
