(** Primitive assignments — the five-kind intermediate language of the CLA
    database (Section 4 of the paper).

    The compile phase breaks every C assignment, initializer, argument
    passing and return down to these forms, introducing temporaries for
    nested [*]/[&] and for operator arguments.  Each [Copy] optionally
    records the operation it came from ([x = y + z] yields two copies
    [x = y] and [x = z], each remembering ["+"] and its Table 1 strength) —
    the paper keeps this provenance for printing dependence chains. *)

(** Operation provenance attached to a [Copy]. *)
type opinfo = {
  op : string;  (** source operator, e.g. ["+"], [">>"], ["cast"] *)
  strength : Strength.t;  (** Table 1 strength of this argument position *)
}

let opinfo op pos = Some { op; strength = Strength.classify op pos }

type kind =
  | Copy of opinfo option  (** [x = y], optionally through an operation *)
  | Addr  (** [x = &y] — the only base assignment *)
  | Store  (** [*x = y] *)
  | Load  (** [x = *y] *)
  | Deref2  (** [*x = *y] *)

type t = {
  dst : Var.t;
  src : Var.t;
  kind : kind;
  loc : Loc.t;
}

let copy ?op ~loc dst src = { dst; src; kind = Copy op; loc }
let addr ~loc dst src = { dst; src; kind = Addr; loc }
let store ~loc dst src = { dst; src; kind = Store; loc }
let load ~loc dst src = { dst; src; kind = Load; loc }
let deref2 ~loc dst src = { dst; src; kind = Deref2; loc }

(** Strength of the dependence edge [src -> dst] this assignment induces.
    Pointer-indirection assignments behave like direct copies ([Strong]). *)
let strength t =
  match t.kind with
  | Copy (Some { strength; _ }) -> strength
  | Copy None | Addr | Store | Load | Deref2 -> Strength.Strong

let pp ppf t =
  match t.kind with
  | Copy None -> Fmt.pf ppf "%a = %a" Var.pp t.dst Var.pp t.src
  | Copy (Some { op; _ }) -> Fmt.pf ppf "%a =[%s] %a" Var.pp t.dst op Var.pp t.src
  | Addr -> Fmt.pf ppf "%a = &%a" Var.pp t.dst Var.pp t.src
  | Store -> Fmt.pf ppf "*%a = %a" Var.pp t.dst Var.pp t.src
  | Load -> Fmt.pf ppf "%a = *%a" Var.pp t.dst Var.pp t.src
  | Deref2 -> Fmt.pf ppf "*%a = *%a" Var.pp t.dst Var.pp t.src

let to_string t = Fmt.str "%a" pp t

(** Table 2 buckets, in the paper's column order:
    [x = y], [x = &y], [*x = y], [*x = *y], [x = *y]. *)
type counts = {
  n_copy : int;
  n_addr : int;
  n_store : int;
  n_deref2 : int;
  n_load : int;
}

let zero_counts = { n_copy = 0; n_addr = 0; n_store = 0; n_deref2 = 0; n_load = 0 }

let count_one c t =
  match t.kind with
  | Copy _ -> { c with n_copy = c.n_copy + 1 }
  | Addr -> { c with n_addr = c.n_addr + 1 }
  | Store -> { c with n_store = c.n_store + 1 }
  | Deref2 -> { c with n_deref2 = c.n_deref2 + 1 }
  | Load -> { c with n_load = c.n_load + 1 }

let count_list l = List.fold_left count_one zero_counts l

let total c = c.n_copy + c.n_addr + c.n_store + c.n_deref2 + c.n_load

let add_counts a b =
  {
    n_copy = a.n_copy + b.n_copy;
    n_addr = a.n_addr + b.n_addr;
    n_store = a.n_store + b.n_store;
    n_deref2 = a.n_deref2 + b.n_deref2;
    n_load = a.n_load + b.n_load;
  }

let pp_counts ppf c =
  Fmt.pf ppf "x=y:%d x=&y:%d *x=y:%d *x=*y:%d x=*y:%d" c.n_copy c.n_addr
    c.n_store c.n_deref2 c.n_load
