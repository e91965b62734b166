(** Normalization: C AST -> primitive assignments (the "analysis" half of
    the compile phase, Section 4 of the paper).

    Every expression in the unit is walked flow-insensitively.  Complex
    assignments are broken into the five primitive kinds by introducing
    temporaries; operations are recorded on the copies they give rise to
    ([x = y + z] becomes [x =(+) y] and [x =(+) z]); functions get
    standardized argument/return variables; each static occurrence of an
    allocation primitive becomes a fresh heap location; constant strings
    are ignored; arrays are index-independent; structs are handled
    field-based or field-independent according to {!mode}. *)

open Cla_ir
open Cast

type mode = Field_based | Field_independent

(* ------------------------------------------------------------------ *)
(* Environment                                                         *)
(* ------------------------------------------------------------------ *)

(* A file, function or block scope.  A block's name ["f#3"] is the
   [scope] of its locals' keys; it and the bindings table are made at
   the block's first declaration, as most blocks declare nothing. *)
type scope = {
  mutable sname : string;  (* a block's function until {!scope_name} *)
  mutable sblock : int;  (* a block's number until named, else [-1] *)
  mutable bindings : (string, Var.t * typ) Hashtbl.t;
}

(* Every scope's table until its first binding; never written. *)
let no_bindings : (string, Var.t * typ) Hashtbl.t = Hashtbl.create 1

type env = {
  vt : Vartab.t;
  mode : mode;
  tenv : Typechk.env;
  enum_consts : (string, unit) Hashtbl.t;
  funcs : (string, typ) Hashtbl.t;  (* declared/defined function types *)
  static_funcs : (string, unit) Hashtbl.t;
  mutable scopes : scope list;  (* innermost first; last is the file scope *)
  mutable cur_fun : string option;
  mutable block_id : int;  (* unique suffix for nested block scopes *)
  mutable assigns : Prim.t list;  (* reversed *)
  mutable fundefs : Prog.fundef list;
  mutable indirects : Prog.indirect list;
  mutable heap_count : int;
  mutable consts : (Var.t * int64) list;
  file : string;
}

let alloc_names =
  [ "malloc"; "calloc"; "realloc"; "valloc"; "memalign"; "strdup"; "xmalloc"; "alloca" ]

let emit env p = env.assigns <- p :: env.assigns

let push_scope ?(block = -1) env name =
  env.scopes <- { sname = name; sblock = block; bindings = no_bindings } :: env.scopes

let pop_scope env =
  match env.scopes with
  | _ :: (_ :: _ as rest) -> env.scopes <- rest
  | _ -> invalid_arg "Normalize: scope underflow"

let fresh_block_scope env =
  let id = env.block_id in
  env.block_id <- id + 1;
  push_scope ~block:id env (match env.cur_fun with Some f -> f | None -> "")

let scope_name s =
  if s.sblock >= 0 then begin
    s.sname <- s.sname ^ "#" ^ string_of_int s.sblock;
    s.sblock <- -1
  end;
  s.sname

let bind s name b =
  if s.bindings == no_bindings then s.bindings <- Hashtbl.create 16;
  Hashtbl.replace s.bindings name b

let find_binding env name =
  let rec go = function
    | [] -> None
    | s :: rest -> (
        if Hashtbl.length s.bindings = 0 then go rest
        else
          match Hashtbl.find_opt s.bindings name with
          | Some b -> Some b
          | None -> go rest)
  in
  go env.scopes

(* Type lookup used by Typechk. *)
let lookup_type env name =
  match find_binding env name with
  | Some (_, t) -> Some t
  | None -> Hashtbl.find_opt env.funcs name

(* ------------------------------------------------------------------ *)
(* Variable creation                                                   *)
(* ------------------------------------------------------------------ *)

(* Declare an object in the current scope and return its variable.  An
   [extern] declaration without initializer does not define the object:
   the open-world linker treats externs never defined by any unit as
   escaping into the unanalyzed part of the program. *)
let declare ?(defined = true) env ~loc name typ storage =
  let file_scope = match env.scopes with [ _ ] -> true | _ -> false in
  let kind, scope, linkage =
    if file_scope then
      match storage with
      | Sstatic -> (Var.Filelocal, "", Some Var.Intern)
      | _ -> (Var.Global, "", None)
    else (Var.Filelocal, scope_name (List.hd env.scopes), Some Var.Intern)
  in
  let v =
    Vartab.intern env.vt ~kind ~name ~scope
      ~typ:(fun () -> Cast.typ_to_string typ)
      ~loc ?linkage ~defined ()
  in
  (match env.scopes with s :: _ -> bind s name (v, typ) | [] -> ());
  v

(* The variable for a struct field in field-based mode.  [tag] may be
   [None] when type synthesis failed; we then fall back to a per-name
   wildcard composite, written "?", so accesses still meet soundly. *)
let field_var env ~loc tag fname ftyp =
  let tag = match tag with Some t -> t | None -> "?" in
  let name = tag ^ "." ^ fname in
  let typ = Option.map (fun t () -> Cast.typ_to_string t) ftyp in
  Vartab.intern env.vt ~kind:Var.Field ~name ?typ ~loc ()

let func_var env ~loc name =
  let linkage =
    if Hashtbl.mem env.static_funcs name then Some Var.Intern else None
  in
  let typ =
    Option.map (fun t () -> Cast.typ_to_string t) (Hashtbl.find_opt env.funcs name)
  in
  Vartab.intern env.vt ~kind:Var.Func ~name ?typ ~loc ?linkage ()

let arg_var env ~loc fname i =
  let linkage =
    if Hashtbl.mem env.static_funcs fname then Some Var.Intern else None
  in
  Vartab.intern env.vt ~kind:(Var.Arg i) ~name:fname ~loc ?linkage ()

let ret_var env ~loc fname =
  let linkage =
    if Hashtbl.mem env.static_funcs fname then Some Var.Intern else None
  in
  Vartab.intern env.vt ~kind:Var.Ret ~name:fname ~loc ?linkage ()

(* Standardized arg/ret variables of an indirectly-called pointer [p]; they
   are unit-private and tied to p's uid (Section 4: "(*f)(x, y) ... adding
   the primitive assignments f1 = x, f2 = y"). *)
let iarg_var env ~loc p i =
  Vartab.intern env.vt ~kind:(Var.Arg i)
    ~name:("ip" ^ string_of_int (Var.uid p))
    ~loc ~linkage:Var.Intern ()

let iret_var env ~loc p =
  Vartab.intern env.vt ~kind:Var.Ret
    ~name:("ip" ^ string_of_int (Var.uid p))
    ~loc ~linkage:Var.Intern ()

let heap_var env ~loc callee =
  let n = env.heap_count in
  env.heap_count <- n + 1;
  Vartab.intern env.vt ~kind:Var.Heap
    ~name:
      (String.concat ""
         [ callee; "@"; Filename.basename loc.Loc.file; ":";
           string_of_int loc.Loc.line; "#"; string_of_int n ])
    ~loc ~linkage:Var.Intern ()

(* Resolve an identifier appearing in an expression. *)
type resolved =
  | Robj of Var.t * typ
  | Rfun of Var.t  (* function designator *)
  | Rconst  (* enum constant *)

let resolve_ident env ~loc name =
  match find_binding env name with
  | Some (v, t) -> Robj (v, t)
  | None ->
      if Hashtbl.mem env.enum_consts name then Rconst
      else if Hashtbl.mem env.funcs name then Rfun (func_var env ~loc name)
      else begin
        (* undeclared identifier (e.g. from a skipped system header):
           implicitly declare it as a global int; its definition, if any,
           lives outside this unit *)
        let v =
          Vartab.intern env.vt ~kind:Var.Global ~name ~typ:(fun () -> "int") ~loc
            ~defined:false ()
        in
        (match List.rev env.scopes with
        | file_scope :: _ -> bind file_scope name (v, Tint "int")
        | [] -> ());
        Robj (v, Tint "int")
      end

(* ------------------------------------------------------------------ *)
(* Values, contributions, places                                       *)
(* ------------------------------------------------------------------ *)

(* One contribution of an rvalue: a value together with the operation it
   flows through (None = direct). *)
type value =
  | Vnone  (* constants, strings, severed values *)
  | Vvar of Var.t  (* the value of an object *)
  | Vaddr of Var.t  (* &object (an lval in the paper's terms) *)
  | Vload of Var.t  (* *p where p holds the pointer value *)

type contrib = value * Prim.opinfo option

type place =
  | Pvar of Var.t
  | Pderef of Var.t  (* assignment through *p *)
  | Pnone

(* Emit the primitive assignments for "dst <- contribs". *)
let assign_var env ~loc dst (contribs : contrib list) =
  List.iter
    (fun (v, op) ->
      match v with
      | Vnone -> ()
      | Vvar s -> emit env (Prim.copy ?op ~loc dst s)
      | Vaddr s -> emit env (Prim.addr ~loc dst s)
      | Vload s -> emit env (Prim.load ~loc dst s))
    contribs

let assign_deref env ~loc p (contribs : contrib list) =
  List.iter
    (fun (v, _op) ->
      match v with
      | Vnone -> ()
      | Vvar s -> emit env (Prim.store ~loc p s)
      | Vaddr s ->
          (* *p = &y is not primitive: go through a temp *)
          let t = Vartab.fresh_temp ~loc env.vt in
          emit env (Prim.addr ~loc t s);
          emit env (Prim.store ~loc p t)
      | Vload s -> emit env (Prim.deref2 ~loc p s))
    contribs

let assign_place env ~loc place contribs =
  match place with
  | Pvar v -> assign_var env ~loc v contribs
  | Pderef p -> assign_deref env ~loc p contribs
  | Pnone -> ()

(* Materialize a contribution list as a single variable-or-address. *)
let collapse env ~loc (contribs : contrib list) : value =
  match contribs with
  | [] -> Vnone
  | [ (v, None) ] -> v
  | [ (Vaddr s, Some _) ] -> Vaddr s (* &x through arithmetic still points to x *)
  | _ ->
      let t = Vartab.fresh_temp ~loc env.vt in
      assign_var env ~loc t contribs;
      Vvar t

(* Apply an operation to every contribution ([x op e] / [e op x]).  A
   subexpression that already flows through an operation is materialized
   into a single temporary first — this is the paper's "complex assignments
   are broken down into primitive ones by introducing temporary variables"
   (and why "considerable implementation effort is required to avoid
   introducing too many temporary variables": one temp per subexpression,
   not one per contribution). *)
let reop env ~loc op pos (contribs : contrib list) : contrib list =
  let info = Prim.opinfo op pos in
  let needs_temp =
    List.exists
      (fun (v, prev) ->
        match (v, prev) with
        | (Vvar _ | Vload _), Some _ -> true
        | Vload _, None -> false
        | _ -> false)
      contribs
  in
  if needs_temp then begin
    let t = Vartab.fresh_temp ~loc env.vt in
    assign_var env ~loc t contribs;
    [ (Vvar t, info) ]
  end
  else
    List.map
      (fun (v, prev) ->
        match (v, prev) with
        | Vnone, _ -> ((Vnone : value), None)
        | _, None -> (v, info)
        | Vaddr s, Some _ -> (Vaddr s, info)
        | (Vvar _ | Vload _), Some _ -> assert false)
      contribs

(* ------------------------------------------------------------------ *)
(* Expression translation                                              *)
(* ------------------------------------------------------------------ *)

let rec rval env (e : expr) : contrib list =
  let loc = e.eloc in
  match e.edesc with
  | Eint _ | Efloat _ | Echar _ | Esizeof_typ _ -> []
  | Estring _ -> [] (* paper Section 6: constant strings are ignored *)
  | Esizeof_expr _ -> [] (* operand is not evaluated in C *)
  | Eident name -> (
      match resolve_ident env ~loc name with
      | Rconst -> []
      | Rfun fv -> [ (Vaddr fv, None) ] (* function designator decays *)
      | Robj (v, t) ->
          if Typechk.is_array env.tenv t then [ (Vaddr v, None) ]
            (* array decays to a pointer to the (index-independent) object *)
          else if Typechk.is_function env.tenv t then [ (Vaddr v, None) ]
          else [ (Vvar v, None) ])
  | Eunop (("++pre" | "--pre" | "++post" | "--post"), e1) ->
      (* x++ is x = x + 1: a self-copy, irrelevant to both analyses; its
         value is x *)
      rval env e1
  | Eunop (op, e1) ->
      let op = if op = "u-" then "u-" else op in
      reop env ~loc op Strength.Arg1 (rval env e1)
  | Ederef e1 -> (
      (* when *e denotes an array (e points to an array, as with
         pointer-to-array or a partially-indexed multi-dim array), the
         result decays to the array's address — a copy, not a load *)
      let decays =
        match Typechk.typeof env.tenv e with
        | Some t -> Typechk.is_array env.tenv t
        | None -> false
      in
      match place_of_deref env ~loc e1 with
      | Pvar v -> if decays then [ (Vaddr v, None) ] else [ (Vvar v, None) ]
      | Pderef p -> if decays then [ (Vvar p, None) ] else [ (Vload p, None) ]
      | Pnone -> [])
  | Eaddrof e1 -> (
      match lval env e1 with
      | Pvar v -> [ (Vaddr v, None) ]
      | Pderef p -> [ (Vvar p, None) ] (* &*p = p *)
      | Pnone -> [])
  | Ebinop (op, a, b) ->
      reop env ~loc op Strength.Arg1 (rval env a)
      @ reop env ~loc op Strength.Arg2 (rval env b)
  | Eassign (op, l, r) -> do_assign env ~loc op l r
  | Econd (c, a, b) ->
      ignore (rval env c);
      reop env ~loc "?:" Strength.Arg1 (rval env a)
      @ reop env ~loc "?:" Strength.Arg2 (rval env b)
  | Ecall (f, args) -> do_call env ~loc f args
  | Emember (e1, f) -> member_rval env ~loc e1 f ~arrow:false
  | Earrow (e1, f) -> member_rval env ~loc e1 f ~arrow:true
  | Eindex _ -> (
      let row =
        match Typechk.typeof env.tenv e with
        | Some t -> Typechk.is_array env.tenv t
        | None -> false
      in
      match lval env e with
      | Pvar v ->
          (* element of an index-independent array object *)
          if row then [ (Vaddr v, None) ] (* multi-dim: row decays to same object *)
          else [ (Vvar v, None) ]
      | Pderef p ->
          (* p[i] through a pointer-to-array: the row decays to p's own
             value — a copy, not a load of the array's contents *)
          if row then [ (Vvar p, None) ] else [ (Vload p, None) ]
      | Pnone -> [])
  | Ecast (_, e1) -> reop env ~loc "cast" Strength.Arg1 (rval env e1)
  | Ecomma (a, b) ->
      ignore (rval env a);
      rval env b
  | Ecompound (t, init) ->
      let tv = Vartab.fresh_temp ~loc env.vt in
      init_object env ~loc (Pvar tv) t init;
      if Typechk.is_array env.tenv t then [ (Vaddr tv, None) ]
      else [ (Vvar tv, None) ]

(* Literal integer value of an expression, if syntactically evident. *)
and const_of (e : expr) : int64 option =
  match e.edesc with
  | Eint (v, _) -> Some v
  | Echar c -> Some (Int64.of_int c)
  | Eunop ("u-", e1) -> Option.map Int64.neg (const_of e1)
  | Eunop ("u+", e1) -> const_of e1
  | Ecast (_, e1) -> const_of e1
  | _ -> None

(* The place denoted by *e1 (e1 is the pointer expression). *)
and place_of_deref env ~loc e1 =
  match collapse env ~loc (rval env e1) with
  | Vnone -> Pnone
  | Vvar p -> Pderef p
  | Vaddr v -> Pvar v (* *(&x) = x *)
  | Vload p ->
      let t = Vartab.fresh_temp ~loc env.vt in
      emit env (Prim.load ~loc t p);
      Pderef t

and member_rval env ~loc e1 f ~arrow =
  match env.mode with
  | Field_based ->
      (* evaluate the base for side effects only; the object is the field *)
      ignore (rval env e1);
      let tag =
        if arrow then Typechk.arrow_tag env.tenv e1
        else Typechk.member_tag env.tenv e1
      in
      let ftyp =
        match tag with
        | Some tg -> Typechk.field_type env.tenv tg f
        | None -> None
      in
      let fv = field_var env ~loc tag f ftyp in
      if
        match ftyp with
        | Some t -> Typechk.is_array env.tenv t
        | None -> false
      then [ (Vaddr fv, None) ]
      else [ (Vvar fv, None) ]
  | Field_independent ->
      if arrow then
        match collapse env ~loc (rval env e1) with
        | Vnone -> []
        | Vvar p -> [ (Vload p, None) ]
        | Vaddr v -> [ (Vvar v, None) ]
        | Vload p ->
            let t = Vartab.fresh_temp ~loc env.vt in
            emit env (Prim.load ~loc t p);
            [ (Vload t, None) ]
      else rval env e1 (* x.f reads the chunk x *)

and lval env (e : expr) : place =
  let loc = e.eloc in
  match e.edesc with
  | Eident name -> (
      match resolve_ident env ~loc name with
      | Rconst -> Pnone
      | Rfun fv -> Pvar fv
      | Robj (v, _) -> Pvar v)
  | Ederef e1 -> place_of_deref env ~loc e1
  | Eindex (a, i) -> (
      ignore (rval env i);
      let arrayish =
        match Typechk.typeof env.tenv a with
        | Some t -> Typechk.is_array env.tenv t
        | None -> false
      in
      if arrayish then lval env a (* index-independent: a[i] is the object a *)
      else place_of_deref env ~loc a)
  | Emember (e1, f) -> (
      match env.mode with
      | Field_based ->
          ignore_effects_of_base env e1;
          let tag = Typechk.member_tag env.tenv e1 in
          let ftyp =
            match tag with
            | Some tg -> Typechk.field_type env.tenv tg f
            | None -> None
          in
          Pvar (field_var env ~loc tag f ftyp)
      | Field_independent -> lval env e1 (* writing x.f writes the chunk x *))
  | Earrow (e1, f) -> (
      match env.mode with
      | Field_based ->
          ignore (rval env e1);
          let tag = Typechk.arrow_tag env.tenv e1 in
          let ftyp =
            match tag with
            | Some tg -> Typechk.field_type env.tenv tg f
            | None -> None
          in
          Pvar (field_var env ~loc tag f ftyp)
      | Field_independent -> place_of_deref env ~loc e1)
  | Ecast (_, e1) -> lval env e1
  | Ecomma (a, b) ->
      ignore (rval env a);
      lval env b
  | Eassign _ | Econd _ | Ecall _ ->
      (* rare as lvalues; evaluate for effects, no assignable place *)
      ignore (rval env e);
      Pnone
  | _ -> Pnone

(* Evaluate a member base for side effects only when it could have some
   (calls, assignments); plain variable bases have none. *)
and ignore_effects_of_base env e1 =
  match e1.edesc with Eident _ -> () | _ -> ignore (rval env e1)

and do_assign env ~loc op l r : contrib list =
  let place = lval env l in
  (* record integer constants assigned to objects (the object file's
     constants section feeds the narrowing checker) *)
  (match (place, op, const_of r) with
  | Pvar x, None, Some v -> env.consts <- (x, v) :: env.consts
  | _ -> ());
  let rhs = rval env r in
  let rhs =
    match op with
    | None -> rhs
    | Some op -> reop env ~loc op Strength.Arg2 rhs
    (* x op= e : the x-to-x self dependence is a no-op, only e flows in *)
  in
  assign_place env ~loc place rhs;
  (* the value of the assignment expression *)
  match place with
  | Pvar v -> [ (Vvar v, None) ]
  | Pderef p -> [ (Vload p, None) ]
  | Pnone -> rhs

and do_call env ~loc f args : contrib list =
  (* allocation primitives: each static occurrence is a fresh location *)
  let direct_name =
    match f.edesc with
    | Eident g -> Some g
    | Ederef { edesc = Eident g; _ } when Hashtbl.mem env.funcs g ->
        Some g (* ( *f)(...) on a plain function *)
    | _ -> None
  in
  match direct_name with
  | Some ("__builtin_va_start" | "va_start") -> (
      (* va_start(ap, last): ap now designates the caller-filled varargs
         bucket of the current (variadic) function *)
      match (args, env.cur_fun) with
      | ap :: rest, Some fn ->
          List.iter (fun a -> ignore (rval env a)) rest;
          let bucket = arg_var env ~loc fn 0 in
          assign_place env ~loc (lval env ap) [ (Vaddr bucket, None) ];
          []
      | args, _ ->
          List.iter (fun a -> ignore (rval env a)) args;
          [])
  | Some ("__builtin_va_arg" | "va_arg") -> (
      (* va_arg(ap, T) reads the next variadic argument: a load through
         ap, which va_start pointed at the varargs bucket *)
      match args with
      | ap :: _ -> (
          match place_of_deref env ~loc ap with
          | Pvar v -> [ (Vvar v, None) ]
          | Pderef p -> [ (Vload p, None) ]
          | Pnone -> [])
      | [] -> [])
  | Some ("__builtin_va_end" | "va_end") ->
      List.iter (fun a -> ignore (rval env a)) args;
      []
  | Some ("__builtin_va_copy" | "va_copy") -> (
      match args with
      | [ dst; src ] ->
          assign_place env ~loc (lval env dst) (rval env src);
          []
      | args ->
          List.iter (fun a -> ignore (rval env a)) args;
          [])
  | Some g when List.mem g alloc_names ->
      (* each static occurrence of an allocation primitive is a fresh
         location, whether or not a declaration of it is in scope *)
      List.iter (fun a -> ignore (rval env a)) args;
      [ (Vaddr (heap_var env ~loc g), None) ]
  | Some g when Hashtbl.mem env.funcs g || find_binding env g = None ->
      (* direct call; unknown identifiers become implicit declarations *)
      if not (Hashtbl.mem env.funcs g) then
        Hashtbl.replace env.funcs g (Tfun (Tint "int", [], true));
      (* calls to a known variadic prototype also feed arguments past the
         fixed arity into the callee's varargs bucket (read by va_arg) *)
      let fixed =
        match Typechk.resolve env.tenv (Hashtbl.find env.funcs g) with
        | Tfun (_, params, true) when params <> [] -> List.length params
        | _ -> max_int
      in
      List.iteri
        (fun i a ->
          let contribs = rval env a in
          assign_var env ~loc (arg_var env ~loc g (i + 1)) contribs;
          if i + 1 > fixed then
            assign_var env ~loc (arg_var env ~loc g 0) contribs)
        args;
      [ (Vvar (ret_var env ~loc g), None) ]
  | _ -> (
      (* indirect call through a pointer value *)
      let fptr =
        match f.edesc with
        | Ederef inner
          when (match Typechk.typeof env.tenv inner with
               | Some t -> Typechk.is_function_pointer env.tenv t
               | None -> true) ->
            (* ( *e)(...) where *e denotes the function itself: the deref
               is a no-op.  When e is a pointer to a function pointer the
               guard fails and the deref below is a genuine load. *)
            collapse env ~loc (rval env inner)
        | _ -> collapse env ~loc (rval env f)
      in
      match fptr with
      | Vnone ->
          List.iter (fun a -> ignore (rval env a)) args;
          []
      | Vaddr fv ->
          (* pointer literally to a known function object: direct *)
          List.iteri
            (fun i a ->
              let av = arg_var env ~loc (Var.name fv) (i + 1) in
              assign_var env ~loc av (rval env a))
            args;
          [ (Vvar (ret_var env ~loc (Var.name fv)), None) ]
      | Vload p ->
          let t = Vartab.fresh_temp ~loc env.vt in
          emit env (Prim.load ~loc t p);
          indirect_call env ~loc t args
      | Vvar p -> indirect_call env ~loc p args)

and indirect_call env ~loc p args : contrib list =
  env.indirects <- { Prog.ptr = p; nargs = List.length args; iloc = loc } :: env.indirects;
  List.iteri
    (fun i a ->
      let av = iarg_var env ~loc p (i + 1) in
      assign_var env ~loc av (rval env a))
    args;
  [ (Vvar (iret_var env ~loc p), None) ]

(* ------------------------------------------------------------------ *)
(* Initializers                                                        *)
(* ------------------------------------------------------------------ *)

and init_object env ~loc place typ (i : init) =
  match i with
  | Iexpr e ->
      (match (place, const_of e) with
      | Pvar x, Some v -> env.consts <- (x, v) :: env.consts
      | _ -> ());
      assign_place env ~loc place (rval env e)
  | Ilist items -> (
      match (Typechk.resolve env.tenv typ, env.mode) with
      | Tcomp (_, tag), Field_based ->
          let fields =
            match Hashtbl.find_opt env.tenv.Typechk.comps tag with
            | Some def -> def.cfields
            | None -> []
          in
          (* walk items positionally, honouring .f designators *)
          let rec go items fields =
            match items with
            | [] -> ()
            | (desig, item) :: rest -> (
                let fname, ftyp, remaining =
                  match desig with
                  | Some f ->
                      let ft = List.assoc_opt f fields in
                      (Some f, ft, fields)
                  | None -> (
                      match fields with
                      | (f, t) :: tl -> (Some f, Some t, tl)
                      | [] -> (None, None, []))
                in
                match fname with
                | Some f ->
                    let fv = field_var env ~loc (Some tag) f ftyp in
                    let ft = match ftyp with Some t -> t | None -> Tint "int" in
                    init_object env ~loc (Pvar fv) ft item;
                    go rest remaining
                | None ->
                    (* excess initializer: evaluate for effects *)
                    (match item with
                    | Iexpr e -> ignore (rval env e)
                    | Ilist _ -> ());
                    go rest remaining)
          in
          go items fields
      | Tarray (elem, _), _ ->
          (* index-independent: every element initializes the array object *)
          List.iter (fun (_, item) -> init_object env ~loc place elem item) items
      | _, _ ->
          (* field-independent struct (or untyped fallback): every element
             initializes the base chunk *)
          List.iter (fun (_, item) -> init_object env ~loc place typ item) items)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec stmt env (s : stmt) =
  let loc = s.sloc in
  match s.sdesc with
  | Sexpr e -> ignore (rval env e)
  | Sblock ss ->
      fresh_block_scope env;
      List.iter (stmt env) ss;
      pop_scope env
  | Sif (c, a, b) ->
      ignore (rval env c);
      stmt env a;
      Option.iter (stmt env) b
  | Swhile (c, b) ->
      ignore (rval env c);
      stmt env b
  | Sdo (b, c) ->
      stmt env b;
      ignore (rval env c)
  | Sfor (init, c, step, b) ->
      fresh_block_scope env;
      (match init with
      | Some (Fexpr e) -> ignore (rval env e)
      | Some (Fdecl ds) -> List.iter (local_decl env) ds
      | None -> ());
      Option.iter (fun e -> ignore (rval env e)) c;
      Option.iter (fun e -> ignore (rval env e)) step;
      stmt env b;
      pop_scope env
  | Sreturn (Some e) -> (
      let contribs = rval env e in
      match env.cur_fun with
      | Some f -> assign_var env ~loc (ret_var env ~loc f) contribs
      | None -> ())
  | Sreturn None -> ()
  | Sbreak | Scontinue | Sgoto _ | Snull -> ()
  | Sswitch (e, b) ->
      ignore (rval env e);
      stmt env b
  | Scase (e, b) ->
      ignore (rval env e);
      stmt env b
  | Sdefault b | Slabel (_, b) -> stmt env b
  | Sdecl ds -> List.iter (local_decl env) ds

and local_decl env (d : decl) =
  match d.dstorage with
  | Stypedef -> ()
  | Sextern ->
      (* extern declaration inside a function: binds the global without
         defining it *)
      let v =
        Vartab.intern env.vt ~kind:Var.Global ~name:d.dname
          ~typ:(fun () -> Cast.typ_to_string d.dtyp) ~loc:d.dloc ~defined:false ()
      in
      (match env.scopes with s :: _ -> bind s d.dname (v, d.dtyp) | [] -> ())
  | _ ->
      if Typechk.is_function env.tenv d.dtyp then
        Hashtbl.replace env.funcs d.dname d.dtyp
      else begin
        let defined = not (d.dstorage = Sextern && d.dinit = None) in
        let v = declare ~defined env ~loc:d.dloc d.dname d.dtyp d.dstorage in
        match d.dinit with
        | Some i -> init_object env ~loc:d.dloc (Pvar v) d.dtyp i
        | None -> ()
      end

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let top_decl env (d : decl) =
  match d.dstorage with
  | Stypedef -> ()
  | _ ->
      if Typechk.is_function env.tenv d.dtyp then begin
        Hashtbl.replace env.funcs d.dname d.dtyp;
        if d.dstorage = Sstatic then
          Hashtbl.replace env.static_funcs d.dname ()
      end
      else begin
        (* C makes a file-scope [int x;] a tentative definition; only a
           plain [extern] declaration leaves the object undefined here *)
        let defined = not (d.dstorage = Sextern && d.dinit = None) in
        let v = declare ~defined env ~loc:d.dloc d.dname d.dtyp d.dstorage in
        match d.dinit with
        | Some i -> init_object env ~loc:d.dloc (Pvar v) d.dtyp i
        | None -> ()
      end

let fundef env (fd : fundef) =
  let loc = fd.floc in
  let ftyp = Tfun (fd.freturn, fd.fparams, fd.fvariadic) in
  Hashtbl.replace env.funcs fd.fname ftyp;
  if fd.fstorage = Sstatic then Hashtbl.replace env.static_funcs fd.fname ();
  let fv = func_var env ~loc fd.fname in
  let arity = List.length fd.fparams in
  env.fundefs <- { Prog.fvar = fv; arity; floc = loc } :: env.fundefs;
  env.cur_fun <- Some fd.fname;
  push_scope env fd.fname;
  (* bind parameters; each takes its value from the standardized arg var *)
  List.iteri
    (fun i p ->
      (* the standardized variable exists even for unnamed parameters, so
         the function's object-file record is complete *)
      let av = arg_var env ~loc fd.fname (i + 1) in
      match p.pname with
      | Some name ->
          let pv = declare env ~loc name p.ptyp Sauto in
          emit env (Prim.copy ~loc pv av)
      | None -> ())
    fd.fparams;
  (* a variadic function owns a varargs bucket f@..., filled by direct
     callers past the fixed arity and read through va_arg *)
  if fd.fvariadic then ignore (arg_var env ~loc fd.fname 0);
  (* make sure the return variable exists even for void functions *)
  ignore (ret_var env ~loc fd.fname);
  List.iter (stmt env) fd.fbody;
  pop_scope env;
  env.cur_fun <- None

(** Record a function's interface — prototype, standardized arg/ret
    variables — without normalizing its body or emitting a definition
    record.  Models deleting the definition from an otherwise-complete
    program: the linker then sees a declared-but-undefined function. *)
let fundef_drop env (fd : fundef) =
  let loc = fd.floc in
  Hashtbl.replace env.funcs fd.fname (Tfun (fd.freturn, fd.fparams, fd.fvariadic));
  if fd.fstorage = Sstatic then Hashtbl.replace env.static_funcs fd.fname ();
  List.iteri (fun i _ -> ignore (arg_var env ~loc fd.fname (i + 1))) fd.fparams;
  if fd.fvariadic then ignore (arg_var env ~loc fd.fname 0);
  ignore (ret_var env ~loc fd.fname)

(** Normalize a parsed translation unit into primitive form.
    [drop_bodies name] suppresses the body (and definition record) of
    function [name], leaving only its declared interface. *)
let run ?(mode = Field_based) ?(drop_bodies = fun _ -> false)
    (parsed : Cparser.result) : Prog.t =
  let tu = parsed.Cparser.tunit in
  let comps = Hashtbl.create 64 in
  List.iter (fun c -> Hashtbl.replace comps c.ctag c) tu.comps;
  let enum_consts = Hashtbl.create 64 in
  List.iter
    (fun (_, items) -> List.iter (fun (n, _) -> Hashtbl.replace enum_consts n ()) items)
    tu.enums;
  let env_ref = ref None in
  let lookup name =
    match !env_ref with Some env -> lookup_type env name | None -> None
  in
  let tenv =
    { Typechk.comps; typedefs = parsed.Cparser.typedefs; lookup }
  in
  let env =
    {
      vt = Vartab.create ();
      mode;
      tenv;
      enum_consts;
      funcs = Hashtbl.create 64;
      static_funcs = Hashtbl.create 16;
      scopes = [ { sname = ""; sblock = -1; bindings = Hashtbl.create 64 } ];
      cur_fun = None;
      block_id = 0;
      assigns = [];
      fundefs = [];
      indirects = [];
      heap_count = 0;
      consts = [];
      file = tu.file;
    }
  in
  env_ref := Some env;
  (* Field-based mode generates "a new variable for each field f of a
     struct definition" (Section 6) — intern them at their definition
     site, before any use. *)
  if mode = Field_based then
    List.iter
      (fun (c : compdef) ->
        List.iter
          (fun (fname, ftyp) ->
            ignore (field_var env ~loc:c.cloc (Some c.ctag) fname (Some ftyp)))
          c.cfields)
      tu.comps;
  List.iter
    (function
      | Tdecl ds -> List.iter (top_decl env) ds
      | Tfundef fd ->
          if drop_bodies fd.fname then fundef_drop env fd else fundef env fd)
    tu.tops;
  {
    Prog.file = tu.file;
    assigns = List.rev env.assigns;
    fundefs = List.rev env.fundefs;
    indirects = List.rev env.indirects;
    vars = Vartab.to_array env.vt;
    consts = List.rev env.consts;
  }
