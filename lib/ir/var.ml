(** Abstract objects ("variables") tracked by the analyses.

    A variable is anything that can hold or be a pointer value: source
    variables, struct fields (in the field-based mode every field of every
    struct definition becomes one variable, Section 3), heap-allocation
    sites, functions themselves (targets of function pointers), the
    standardized argument/return variables [f@i]/[f@ret] of Section 4, and
    compiler temporaries introduced while flattening complex expressions. *)

type kind =
  | Global  (** file-scope variable with external linkage *)
  | Filelocal  (** [static] variable, function local, or parameter *)
  | Temp  (** temporary introduced by the normalizer *)
  | Field  (** struct/union field object; [name] is ["S.f"] *)
  | Heap  (** heap allocation site; one per static occurrence of malloc *)
  | Func  (** a function, as an object function pointers can denote *)
  | Arg of int  (** standardized i-th argument (1-based) of function [name] *)
  | Ret  (** standardized return variable of function [name] *)

(** [Extern] variables are merged by name across object files by the linker;
    [Intern] variables are private to their translation unit. *)
type linkage = Extern | Intern

type t = {
  uid : int;  (** identity within one translation unit (assigned by {!Vartab}) *)
  name : string;  (** source-level name, or synthesized name for temps/heap *)
  kind : kind;
  linkage : linkage;
  typ : string;  (** pretty-printed declared type, for dependence reports *)
  loc : Loc.t;  (** declaration site *)
  owner : string;
      (** enclosing function for locals — the paper's object files record
          "for each local variable ... the function in which it is defined"
          to support advanced searches and context-sensitivity experiments *)
  mutable defined : bool;
      (** [false] while the unit has only seen extern declarations of the
          object — the linker's open-world mode uses this to find externs
          whose definition lives outside the analyzed fragment *)
}

let uid v = v.uid
let name v = v.name
let kind v = v.kind
let linkage v = v.linkage
let owner v = v.owner
let defined v = v.defined
let mark_defined v = v.defined <- true

let kind_tag = function
  | Global -> "G"
  | Filelocal -> "L"
  | Temp -> "T"
  | Field -> "F"
  | Heap -> "H"
  | Func -> "N"
  | Arg i -> "A" ^ string_of_int i
  | Ret -> "R"

(* The [scope] argument disambiguates file-local names ("f::x" vs "g::x");
   it is empty for every other kind. *)
let key ?(scope = "") kind name =
  match kind with
  | Filelocal -> "L:" ^ scope ^ ":" ^ name
  | k -> kind_tag k ^ ":" ^ name

(** Display name used in analysis output: [f@2] for arguments, [f@ret] for
    returns, the plain name otherwise. *)
let display v =
  match v.kind with
  | Arg 0 -> v.name ^ "@..."  (* the varargs bucket of a variadic function *)
  | Arg i -> Fmt.str "%s@%d" v.name i
  | Ret -> v.name ^ "@ret"
  | _ -> v.name

let equal a b = a.uid = b.uid
let compare a b = Int.compare a.uid b.uid
let hash a = a.uid

let pp ppf v = Fmt.string ppf (display v)

let to_string v = Fmt.str "%a" pp v
