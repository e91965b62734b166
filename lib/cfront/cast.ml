(** Abstract syntax for the C subset the frontend accepts.

    The subset is chosen to cover what a flow-insensitive,
    assignment-oriented analysis needs from real C: full declarations with
    typedefs, struct/union/enum definitions (including nested and
    anonymous), the complete expression grammar, and all statement forms
    (whose control structure the analysis ignores — only the expressions
    inside matter). *)

open Cla_ir

(* ------------------------------------------------------------------ *)
(* Types                                                               *)
(* ------------------------------------------------------------------ *)

type typ =
  | Tvoid
  | Tint of string  (** any integer type, by its canonical spelling *)
  | Tfloat of string  (** float / double / long double *)
  | Tptr of typ
  | Tarray of typ * expr option  (** element type, optional size expr *)
  | Tfun of typ * param list * bool  (** return, params, is_variadic *)
  | Tnamed of string  (** typedef name (resolved via the parser's table) *)
  | Tcomp of bool * string  (** [is_union], tag (synthesized if anonymous) *)
  | Tenum of string

and param = { pname : string option; ptyp : typ }

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

and expr = { edesc : edesc; eloc : Loc.t }

and edesc =
  | Eident of string
  | Eint of int64 * string
  | Efloat of string
  | Echar of int
  | Estring of string
  | Eunop of string * expr
      (** ["u-"], ["u+"], ["!"], ["~"], ["++pre"], ["--pre"], ["++post"],
          ["--post"] *)
  | Ederef of expr  (** [*e] *)
  | Eaddrof of expr  (** [&e] *)
  | Ebinop of string * expr * expr
  | Eassign of string option * expr * expr
      (** [e1 = e2] when [None]; [e1 op= e2] when [Some op] *)
  | Econd of expr * expr * expr
  | Ecall of expr * expr list
  | Emember of expr * string  (** [e.f] *)
  | Earrow of expr * string  (** [e->f] *)
  | Eindex of expr * expr  (** [e1\[e2\]] *)
  | Ecast of typ * expr
  | Esizeof_expr of expr
  | Esizeof_typ of typ
  | Ecomma of expr * expr
  | Ecompound of typ * init  (** C99 compound literal [(T){...}] *)

(* ------------------------------------------------------------------ *)
(* Declarations and statements                                         *)
(* ------------------------------------------------------------------ *)

and storage = Sauto | Sstatic | Sextern | Stypedef | Sregister

and init =
  | Iexpr of expr
  | Ilist of (string option * init) list
      (** elements with an optional [.field] designator; array designators
          are dropped (the analysis is index-independent anyway) *)

and decl = {
  dname : string;
  dtyp : typ;
  dstorage : storage;
  dinit : init option;
  dloc : Loc.t;
}

and stmt = { sdesc : sdesc; sloc : Loc.t }

and sdesc =
  | Sexpr of expr
  | Sblock of stmt list
  | Sif of expr * stmt * stmt option
  | Swhile of expr * stmt
  | Sdo of stmt * expr
  | Sfor of forinit option * expr option * expr option * stmt
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sswitch of expr * stmt
  | Scase of expr * stmt
  | Sdefault of stmt
  | Slabel of string * stmt
  | Sgoto of string
  | Sdecl of decl list
  | Snull

and forinit = Fexpr of expr | Fdecl of decl list

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

(** Definition of a struct or union collected during parsing.  Anonymous
    composites receive synthesized tags ["$anon<n>"], so every field access
    can be attributed to a unique composite type (the paper's field-based
    mode requires "the same field of the same struct type", Section 2). *)
type compdef = {
  ctag : string;
  cunion : bool;
  cfields : (string * typ) list;
  cloc : Loc.t;
}

type fundef = {
  fname : string;
  freturn : typ;
  fparams : param list;
  fvariadic : bool;
  fstorage : storage;
  fbody : stmt list;
  floc : Loc.t;
}

type top = Tdecl of decl list | Tfundef of fundef

(** A parsed translation unit: top-level items in source order plus the
    composite and enum definitions encountered anywhere in the unit. *)
type tunit = {
  file : string;
  tops : top list;
  comps : compdef list;
  enums : (string * (string * int64 option) list) list;
}

(* ------------------------------------------------------------------ *)
(* Printing (used by error messages, tests and the dump tool)          *)
(* ------------------------------------------------------------------ *)

(* The one spelling of a type: [int*], [char[]], [int(char*,...)],
   [struct s].  It is recorded as each variable's type, so it reaches
   object bytes. *)
let rec add_typ b = function
  | Tvoid -> Buffer.add_string b "void"
  | Tint s | Tfloat s | Tnamed s -> Buffer.add_string b s
  | Tptr t -> add_typ b t; Buffer.add_char b '*'
  | Tarray (t, _) -> add_typ b t; Buffer.add_string b "[]"
  | Tfun (r, ps, va) ->
      add_typ b r;
      Buffer.add_char b '(';
      List.iteri
        (fun i p ->
          if i > 0 then Buffer.add_char b ',';
          add_typ b p.ptyp)
        ps;
      if va then Buffer.add_string b ",...";
      Buffer.add_char b ')'
  | Tcomp (false, tag) -> Buffer.add_string b "struct "; Buffer.add_string b tag
  | Tcomp (true, tag) -> Buffer.add_string b "union "; Buffer.add_string b tag
  | Tenum tag -> Buffer.add_string b "enum "; Buffer.add_string b tag

let typ_to_string = function
  | Tvoid -> "void"
  | Tint s | Tfloat s | Tnamed s -> s
  | t ->
      let b = Buffer.create 32 in
      add_typ b t;
      Buffer.contents b

let pp_typ ppf t = Fmt.string ppf (typ_to_string t)

let rec pp_expr ppf e =
  match e.edesc with
  | Eident x -> Fmt.string ppf x
  | Eint (_, s) -> Fmt.string ppf s
  | Efloat s -> Fmt.string ppf s
  | Echar c -> Fmt.pf ppf "'\\%03d'" c
  | Estring s -> Fmt.pf ppf "%S" s
  | Eunop (("++post" | "--post") as op, e1) ->
      Fmt.pf ppf "(%a)%s" pp_expr e1 (String.sub op 0 2)
  | Eunop (op, e1) ->
      let op = if op = "u-" then "-" else if op = "u+" then "+" else op in
      let op = if op = "++pre" then "++" else if op = "--pre" then "--" else op in
      Fmt.pf ppf "%s(%a)" op pp_expr e1
  | Ederef e1 -> Fmt.pf ppf "*(%a)" pp_expr e1
  | Eaddrof e1 -> Fmt.pf ppf "&(%a)" pp_expr e1
  | Ebinop (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp_expr a op pp_expr b
  | Eassign (None, a, b) -> Fmt.pf ppf "%a = %a" pp_expr a pp_expr b
  | Eassign (Some op, a, b) -> Fmt.pf ppf "%a %s= %a" pp_expr a op pp_expr b
  | Econd (c, a, b) -> Fmt.pf ppf "(%a ? %a : %a)" pp_expr c pp_expr a pp_expr b
  | Ecall (f, args) ->
      (* parenthesize the callee: postfix application binds tighter than
         the prefix operators a callee expression may contain *)
      Fmt.pf ppf "(%a)(%a)" pp_expr f
        (Fmt.list ~sep:(Fmt.any ", ") pp_expr)
        args
  | Emember (e1, f) -> Fmt.pf ppf "(%a).%s" pp_expr e1 f
  | Earrow (e1, f) -> Fmt.pf ppf "(%a)->%s" pp_expr e1 f
  | Eindex (a, i) -> Fmt.pf ppf "(%a)[%a]" pp_expr a pp_expr i
  | Ecast (t, e1) -> Fmt.pf ppf "(%a)(%a)" pp_typ t pp_expr e1
  | Esizeof_expr e1 -> Fmt.pf ppf "sizeof(%a)" pp_expr e1
  | Esizeof_typ t -> Fmt.pf ppf "sizeof(%a)" pp_typ t
  | Ecomma (a, b) -> Fmt.pf ppf "(%a, %a)" pp_expr a pp_expr b
  | Ecompound (t, _) -> Fmt.pf ppf "(%a){...}" pp_typ t

let expr_to_string e = Fmt.str "%a" pp_expr e

let mk_expr ?(loc = Loc.none) edesc = { edesc; eloc = loc }
