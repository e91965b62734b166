(** Typedef-aware recursive-descent parser for the C subset of {!Cast}.

    C's grammar is context-sensitive: [x * y;] is a declaration when [x]
    names a type and an expression otherwise.  The parser therefore keeps a
    scope stack recording, for each visible identifier, whether it currently
    names a typedef or an object, consulting it whenever it must decide
    whether a token sequence starts a type. *)

open Cla_ir
open Cast
module T = Ctoken

exception Parse_error of string * Loc.t

type binding = Btypedef | Bobject

module Scope = Hashtbl.Make (String)

(* The parser never backtracks and looks at most one token ahead, so it
   pulls tokens from the lexer through a two-token window: the current
   token and, once [peek2] has asked for it, the next. *)
type state = {
  lex : Clexer.scanner;
  mutable tok : T.t;
  mutable tok_loc : Loc.t;
  mutable ahead : T.t;  (* the token after [tok], when [has_ahead] *)
  mutable ahead_loc : Loc.t;
  mutable has_ahead : bool;
  mutable scopes : binding Scope.t list;
  typedefs : (string, typ) Hashtbl.t;  (* name -> definition *)
  mutable comps : compdef list;  (* collected struct/union defs, reversed *)
  mutable enums : (string * (string * int64 option) list) list;
  mutable anon : int;
  file : string;
}

let err st fmt =
  let loc = st.tok_loc in
  Fmt.kstr (fun m -> raise (Parse_error (m, loc))) fmt

(* Nodes at a known location ([Cast.mk_expr ~loc] boxes the option). *)
let expr_at eloc edesc = { edesc; eloc }
let stmt_at sloc sdesc = { sdesc; sloc }

(* ------------------------------------------------------------------ *)
(* Token-stream helpers                                                *)
(* ------------------------------------------------------------------ *)

(* [EOF] is the last token: advancing past it, or peeking beyond it,
   stays on it. *)
let peek st = st.tok
let loc st = st.tok_loc

let peek2 st =
  if st.has_ahead then st.ahead
  else if st.tok == T.EOF then T.EOF
  else begin
    st.ahead_loc <- Clexer.loc st.lex;
    st.ahead <- Clexer.next st.lex;
    st.has_ahead <- true;
    st.ahead
  end

let advance st =
  if st.has_ahead then begin
    st.tok <- st.ahead;
    st.tok_loc <- st.ahead_loc;
    st.has_ahead <- false
  end
  else if st.tok != T.EOF then begin
    st.tok_loc <- Clexer.loc st.lex;
    st.tok <- Clexer.next st.lex
  end

let eat st tok =
  if T.equal (peek st) tok then advance st
  else err st "expected %S but found %S" (T.to_string tok) (T.to_string (peek st))

let eat_ident st =
  match peek st with
  | T.IDENT s -> advance st; s
  | t -> err st "expected identifier, found %S" (T.to_string t)

(* ------------------------------------------------------------------ *)
(* Scopes                                                              *)
(* ------------------------------------------------------------------ *)

let enter_scope st = st.scopes <- Scope.create 16 :: st.scopes
let leave_scope st =
  match st.scopes with
  | _ :: (_ :: _ as rest) -> st.scopes <- rest
  | _ -> err st "internal: scope underflow"

let bind st name b =
  match st.scopes with
  | tbl :: _ -> Scope.replace tbl name b
  | [] -> assert false

(* The innermost scope binding [name] decides. *)
let is_typedef_name st name =
  let rec go = function
    | [] -> false
    | tbl :: rest -> (
        match Scope.find_opt tbl name with
        | Some Btypedef -> true
        | Some Bobject -> false
        | None -> go rest)
  in
  go st.scopes

(* GNU noise we tolerate and discard: attributes, asm annotations. *)
let rec skip_gnu_noise st =
  match peek st with
  | T.IDENT ("__attribute__" | "__attribute" | "__asm__" | "__asm" | "asm") ->
      advance st;
      if T.equal (peek st) T.LPAREN then begin
        (* skip balanced parens *)
        let depth = ref 0 in
        let continue = ref true in
        while !continue do
          (match peek st with
          | T.LPAREN -> incr depth
          | T.RPAREN -> decr depth
          | T.EOF -> err st "unterminated __attribute__"
          | _ -> ());
          advance st;
          if !depth = 0 then continue := false
        done
      end;
      skip_gnu_noise st
  | T.IDENT ("__extension__" | "__restrict" | "__restrict__" | "restrict") ->
      advance st; skip_gnu_noise st
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Does the current token start a type?                                *)
(* ------------------------------------------------------------------ *)

let starts_type st =
  match peek st with
  | T.KW_VOID | T.KW_CHAR | T.KW_SHORT | T.KW_INT | T.KW_LONG | T.KW_FLOAT
  | T.KW_DOUBLE | T.KW_SIGNED | T.KW_UNSIGNED | T.KW_STRUCT | T.KW_UNION
  | T.KW_ENUM | T.KW_CONST | T.KW_VOLATILE | T.KW_TYPEDEF | T.KW_EXTERN
  | T.KW_STATIC | T.KW_AUTO | T.KW_REGISTER | T.KW_INLINE ->
      true
  | T.IDENT name -> is_typedef_name st name
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Declaration specifiers                                              *)
(* ------------------------------------------------------------------ *)

type specs = { base : typ; storage : storage }

let fresh_anon st what =
  let n = st.anon in
  st.anon <- n + 1;
  Fmt.str "$%s%d@%s" what n (Filename.basename st.file)

(* forward declarations for the mutually recursive grammar *)
let rec parse_specs st : specs =
  let storage = ref Sauto in
  let int_words = ref [] in (* signed/unsigned/short/long/int/char/float/double *)
  let named : typ option ref = ref None in
  let seen_any = ref false in
  let continue = ref true in
  while !continue do
    skip_gnu_noise st;
    match peek st with
    | T.KW_TYPEDEF -> storage := Stypedef; advance st
    | T.KW_EXTERN -> storage := Sextern; advance st
    | T.KW_STATIC -> storage := Sstatic; advance st
    | T.KW_AUTO -> advance st
    | T.KW_REGISTER -> storage := Sregister; advance st
    | T.KW_INLINE | T.KW_CONST | T.KW_VOLATILE -> advance st
    | T.KW_VOID -> named := Some Tvoid; seen_any := true; advance st
    | T.KW_CHAR -> int_words := "char" :: !int_words; seen_any := true; advance st
    | T.KW_SHORT -> int_words := "short" :: !int_words; seen_any := true; advance st
    | T.KW_INT -> int_words := "int" :: !int_words; seen_any := true; advance st
    | T.KW_LONG -> int_words := "long" :: !int_words; seen_any := true; advance st
    | T.KW_FLOAT -> named := Some (Tfloat "float"); seen_any := true; advance st
    | T.KW_DOUBLE ->
        named := Some (Tfloat (if List.mem "long" !int_words then "long double" else "double"));
        int_words := List.filter (fun w -> w <> "long") !int_words;
        seen_any := true;
        advance st
    | T.KW_SIGNED -> int_words := "signed" :: !int_words; seen_any := true; advance st
    | T.KW_UNSIGNED -> int_words := "unsigned" :: !int_words; seen_any := true; advance st
    | T.KW_STRUCT | T.KW_UNION ->
        let is_union = T.equal (peek st) T.KW_UNION in
        advance st;
        named := Some (parse_comp_spec st is_union);
        seen_any := true
    | T.KW_ENUM ->
        advance st;
        named := Some (parse_enum_spec st);
        seen_any := true
    | T.IDENT name
      when (not !seen_any) && !int_words = [] && !named = None
           && is_typedef_name st name ->
        advance st;
        named := Some (Tnamed name);
        seen_any := true
    | _ -> continue := false
  done;
  let base =
    match (!named, List.rev !int_words) with
    | Some t, [] -> t
    | Some t, _ -> t (* e.g. "unsigned" with a typedef: tolerate *)
    | None, [] -> Tint "int" (* implicit int (K&R style) *)
    | None, words ->
        let canonical =
          match List.sort String.compare words with
          | ws when List.mem "char" ws ->
              if List.mem "unsigned" ws then "unsigned char"
              else if List.mem "signed" ws then "signed char"
              else "char"
          | ws when List.mem "short" ws ->
              if List.mem "unsigned" ws then "unsigned short" else "short"
          | ws when List.filter (( = ) "long") ws = [ "long"; "long" ] ->
              if List.mem "unsigned" ws then "unsigned long long" else "long long"
          | ws when List.mem "long" ws ->
              if List.mem "unsigned" ws then "unsigned long" else "long"
          | ws when List.mem "unsigned" ws -> "unsigned int"
          | _ -> "int"
        in
        Tint canonical
  in
  { base; storage = !storage }

and parse_comp_spec st is_union =
  skip_gnu_noise st;
  let def_loc = loc st in
  let tag =
    match peek st with
    | T.IDENT name -> advance st; name
    | _ -> fresh_anon st (if is_union then "union" else "struct")
  in
  (match peek st with
  | T.LBRACE ->
      advance st;
      let fields = ref [] in
      while not (T.equal (peek st) T.RBRACE) do
        let fs = parse_struct_declaration st in
        fields := List.rev_append fs !fields
      done;
      eat st T.RBRACE;
      let def =
        { ctag = tag; cunion = is_union; cfields = List.rev !fields; cloc = def_loc }
      in
      st.comps <- def :: st.comps
  | _ -> ());
  Tcomp (is_union, tag)

and parse_struct_declaration st : (string * typ) list =
  (* spec-qualifier-list struct-declarator-list ; *)
  let specs = parse_specs st in
  let fields = ref [] in
  if T.equal (peek st) T.SEMI then begin
    (* anonymous struct/union member or tag-only: keep fields of anonymous
       members by flattening them into the enclosing composite *)
    (match specs.base with
    | Tcomp (_, tag) -> (
        match List.find_opt (fun c -> c.ctag = tag) st.comps with
        | Some def -> fields := List.rev def.cfields
        | None -> ())
    | _ -> ());
    advance st;
    List.rev !fields
  end
  else begin
    let continue = ref true in
    while !continue do
      if T.equal (peek st) T.COLON then begin
        (* unnamed bit-field: skip its width *)
        advance st;
        ignore (parse_cond_expr st)
      end
      else begin
        let name, typ = parse_declarator st specs.base in
        if T.equal (peek st) T.COLON then begin
          advance st;
          ignore (parse_cond_expr st)
        end;
        skip_gnu_noise st;
        fields := (name, typ) :: !fields
      end;
      if T.equal (peek st) T.COMMA then advance st else continue := false
    done;
    eat st T.SEMI;
    List.rev !fields
  end

and parse_enum_spec st =
  skip_gnu_noise st;
  let tag =
    match peek st with
    | T.IDENT name -> advance st; name
    | _ -> fresh_anon st "enum"
  in
  (match peek st with
  | T.LBRACE ->
      advance st;
      let items = ref [] in
      while not (T.equal (peek st) T.RBRACE) do
        let name = eat_ident st in
        bind st name Bobject;
        let v =
          if T.equal (peek st) T.EQ then begin
            advance st;
            match (parse_cond_expr st).edesc with
            | Eint (v, _) -> Some v
            | _ -> None
          end
          else None
        in
        items := (name, v) :: !items;
        if T.equal (peek st) T.COMMA then advance st
      done;
      eat st T.RBRACE;
      st.enums <- (tag, List.rev !items) :: st.enums
  | _ -> ());
  Tenum tag

(* ------------------------------------------------------------------ *)
(* Declarators.  A declarator is parsed as a function from the base     *)
(* type to the declared type ("inside-out" construction).               *)
(* ------------------------------------------------------------------ *)

and parse_declarator st base : string * typ =
  match parse_declarator_opt st base with
  | Some name, typ -> (name, typ)
  | None, _ -> err st "expected declarator name"

and parse_abstract_declarator st base : typ =
  let _, typ = parse_declarator_opt st base in
  typ

(* Parses pointer direct-declarator; the name is optional (abstract
   declarators in casts and prototypes omit it). *)
and parse_declarator_opt st base : string option * typ =
  skip_gnu_noise st;
  if T.equal (peek st) T.STAR then begin
    advance st;
    let rec quals () =
      match peek st with
      | T.KW_CONST | T.KW_VOLATILE -> advance st; quals ()
      | T.IDENT ("__restrict" | "__restrict__" | "restrict") ->
          advance st; quals ()
      | _ -> ()
    in
    quals ();
    parse_declarator_opt st (Tptr base)
  end
  else parse_direct_declarator st base

and parse_direct_declarator st base : string option * typ =
  skip_gnu_noise st;
  (* The tricky case: '(' may open a parenthesized declarator or a
     parameter list of an omitted-name function declarator.  It is a
     parenthesized declarator iff what follows looks like a declarator
     (i.e. '*', '(' or an identifier that is not a typedef name). *)
  let name, wrap =
    match peek st with
    | T.IDENT id ->
        (* even a typedef name: in declarator position an identifier is the
           declared name (the new declaration shadows the typedef) *)
        advance st;
        (Some id, fun t -> t)
    | T.LPAREN
      when (match peek2 st with
           | T.STAR | T.LPAREN -> true
           | T.IDENT id -> not (is_typedef_name st id)
           | _ -> false) ->
        advance st;
        (* parse the inner declarator against a placeholder; we apply the
           suffixes of the outer declarator *inside* it afterwards. *)
        let inner_name, inner_typ = parse_declarator_opt st Tvoid in
        eat st T.RPAREN;
        let wrap outer =
          (* substitute [outer] for the Tvoid placeholder inside inner_typ *)
          let rec subst t =
            match t with
            | Tvoid -> outer
            | Tptr t' -> Tptr (subst t')
            | Tarray (t', e) -> Tarray (subst t', e)
            | Tfun (r, ps, va) -> Tfun (subst r, ps, va)
            | other -> other
          in
          subst inner_typ
        in
        (inner_name, wrap)
    | _ -> (None, fun t -> t)
  in
  (* suffixes: [...] and (...) *)
  let rec suffixes t =
    match peek st with
    | T.LBRACKET ->
        advance st;
        let size =
          if T.equal (peek st) T.RBRACKET then None else Some (parse_expr st)
        in
        eat st T.RBRACKET;
        let inner = suffixes t in
        Tarray (inner, size)
    | T.LPAREN ->
        advance st;
        let params, variadic = parse_param_list st in
        eat st T.RPAREN;
        let inner = suffixes t in
        Tfun (inner, params, variadic)
    | _ -> t
  in
  let declared = suffixes base in
  (name, wrap declared)

and parse_param_list st : param list * bool =
  if T.equal (peek st) T.RPAREN then ([], false)
  else if T.equal (peek st) T.KW_VOID && T.equal (peek2 st) T.RPAREN then begin
    advance st;
    ([], false)
  end
  else begin
    let params = ref [] in
    let variadic = ref false in
    let continue = ref true in
    while !continue do
      if T.equal (peek st) T.ELLIPSIS then begin
        advance st;
        variadic := true;
        continue := false
      end
      else if starts_type st then begin
        let specs = parse_specs st in
        let name, typ = parse_declarator_opt st specs.base in
        params := { pname = name; ptyp = typ } :: !params;
        if T.equal (peek st) T.COMMA then advance st else continue := false
      end
      else begin
        (* K&R identifier list: f(a, b, c) — record names with int type *)
        let name = eat_ident st in
        params := { pname = Some name; ptyp = Tint "int" } :: !params;
        if T.equal (peek st) T.COMMA then advance st else continue := false
      end
    done;
    (List.rev !params, !variadic)
  end

(* ------------------------------------------------------------------ *)
(* Expressions (precedence climbing)                                   *)
(* ------------------------------------------------------------------ *)

and parse_primary st : expr =
  let l = loc st in
  match peek st with
  | T.INTLIT (v, s) -> advance st; expr_at l (Eint (v, s))
  | T.FLOATLIT s -> advance st; expr_at l (Efloat s)
  | T.CHARLIT c -> advance st; expr_at l (Echar c)
  | T.STRLIT s ->
      advance st;
      (* adjacent string literals concatenate *)
      let b = Buffer.create (String.length s) in
      Buffer.add_string b s;
      let rec more () =
        match peek st with
        | T.STRLIT s2 -> advance st; Buffer.add_string b s2; more ()
        | _ -> ()
      in
      more ();
      expr_at l (Estring (Buffer.contents b))
  | T.IDENT x -> advance st; expr_at l (Eident x)
  | T.LPAREN ->
      advance st;
      let e = parse_expr st in
      eat st T.RPAREN;
      e
  | t -> err st "unexpected token %S in expression" (T.to_string t)

and parse_postfix st : expr =
  let e = ref (parse_primary st) in
  let continue = ref true in
  while !continue do
    let l = loc st in
    match peek st with
    | T.LPAREN ->
        advance st;
        let args = ref [] in
        if not (T.equal (peek st) T.RPAREN) then begin
          let more = ref true in
          while !more do
            (* builtins like va_arg(ap, T) take a type name as an
               argument; represent it as a (pointer-free) sizeof *)
            (if starts_type st then
               let t = parse_type_name st in
               args := expr_at (loc st) (Esizeof_typ t) :: !args
             else args := parse_assign_expr st :: !args);
            if T.equal (peek st) T.COMMA then advance st else more := false
          done
        end;
        eat st T.RPAREN;
        e := expr_at l (Ecall (!e, List.rev !args))
    | T.LBRACKET ->
        advance st;
        let i = parse_expr st in
        eat st T.RBRACKET;
        e := expr_at l (Eindex (!e, i))
    | T.DOT ->
        advance st;
        let f = eat_ident st in
        e := expr_at l (Emember (!e, f))
    | T.ARROW ->
        advance st;
        let f = eat_ident st in
        e := expr_at l (Earrow (!e, f))
    | T.PLUSPLUS ->
        advance st;
        e := expr_at l (Eunop ("++post", !e))
    | T.MINUSMINUS ->
        advance st;
        e := expr_at l (Eunop ("--post", !e))
    | _ -> continue := false
  done;
  !e

and parse_unary st : expr =
  let l = loc st in
  match peek st with
  | T.PLUSPLUS ->
      advance st;
      expr_at l (Eunop ("++pre", parse_unary st))
  | T.MINUSMINUS ->
      advance st;
      expr_at l (Eunop ("--pre", parse_unary st))
  | T.AMP -> advance st; expr_at l (Eaddrof (parse_cast_expr st))
  | T.STAR -> advance st; expr_at l (Ederef (parse_cast_expr st))
  | T.PLUS -> advance st; expr_at l (Eunop ("u+", parse_cast_expr st))
  | T.MINUS -> advance st; expr_at l (Eunop ("u-", parse_cast_expr st))
  | T.TILDE -> advance st; expr_at l (Eunop ("~", parse_cast_expr st))
  | T.BANG -> advance st; expr_at l (Eunop ("!", parse_cast_expr st))
  | T.KW_SIZEOF ->
      advance st;
      if T.equal (peek st) T.LPAREN && starts_type_after_lparen st then begin
        advance st;
        let t = parse_type_name st in
        eat st T.RPAREN;
        (* sizeof(T){...} is a compound literal being sized; tolerate *)
        expr_at l (Esizeof_typ t)
      end
      else expr_at l (Esizeof_expr (parse_unary st))
  | _ -> parse_postfix st

and starts_type_after_lparen st =
  (* we are AT the lparen; look one ahead *)
  match peek2 st with
  | T.KW_VOID | T.KW_CHAR | T.KW_SHORT | T.KW_INT | T.KW_LONG | T.KW_FLOAT
  | T.KW_DOUBLE | T.KW_SIGNED | T.KW_UNSIGNED | T.KW_STRUCT | T.KW_UNION
  | T.KW_ENUM | T.KW_CONST | T.KW_VOLATILE ->
      true
  | T.IDENT name -> is_typedef_name st name
  | _ -> false

and parse_cast_expr st : expr =
  let l = loc st in
  if T.equal (peek st) T.LPAREN && starts_type_after_lparen st then begin
    advance st;
    let t = parse_type_name st in
    eat st T.RPAREN;
    if T.equal (peek st) T.LBRACE then begin
      (* compound literal *)
      let init = parse_initializer st in
      expr_at l (Ecompound (t, init))
    end
    else expr_at l (Ecast (t, parse_cast_expr st))
  end
  else parse_unary st

and parse_type_name st : typ =
  let specs = parse_specs st in
  parse_abstract_declarator st specs.base

and binop_prec = function
  | T.STAR | T.SLASH | T.PERCENT -> 10
  | T.PLUS | T.MINUS -> 9
  | T.LTLT | T.GTGT -> 8
  | T.LT | T.GT | T.LE | T.GE -> 7
  | T.EQEQ | T.BANGEQ -> 6
  | T.AMP -> 5
  | T.CARET -> 4
  | T.BAR -> 3
  | T.AMPAMP -> 2
  | T.BARBAR -> 1
  | _ -> 0

and parse_binary st level : expr =
  let lhs = ref (parse_cast_expr st) in
  let continue = ref true in
  while !continue do
    let tok = peek st in
    let p = binop_prec tok in
    if p >= level && p > 0 then begin
      let l = loc st in
      advance st;
      let rhs = parse_binary st (p + 1) in
      lhs := expr_at l (Ebinop (T.to_string tok, !lhs, rhs))
    end
    else continue := false
  done;
  !lhs

and parse_cond_expr st : expr =
  let c = parse_binary st 1 in
  if T.equal (peek st) T.QUESTION then begin
    let l = loc st in
    advance st;
    let a = parse_expr st in
    eat st T.COLON;
    let b = parse_cond_expr st in
    expr_at l (Econd (c, a, b))
  end
  else c

and parse_assign_expr st : expr =
  let lhs = parse_cond_expr st in
  let l = loc st in
  let mk op =
    advance st;
    let rhs = parse_assign_expr st in
    expr_at l (Eassign (op, lhs, rhs))
  in
  match peek st with
  | T.EQ -> mk None
  | T.PLUSEQ -> mk (Some "+")
  | T.MINUSEQ -> mk (Some "-")
  | T.STAREQ -> mk (Some "*")
  | T.SLASHEQ -> mk (Some "/")
  | T.PERCENTEQ -> mk (Some "%")
  | T.LTLTEQ -> mk (Some "<<")
  | T.GTGTEQ -> mk (Some ">>")
  | T.AMPEQ -> mk (Some "&")
  | T.CARETEQ -> mk (Some "^")
  | T.BAREQ -> mk (Some "|")
  | _ -> lhs

and parse_expr st : expr =
  let e = parse_assign_expr st in
  if T.equal (peek st) T.COMMA then begin
    let l = loc st in
    advance st;
    let rest = parse_expr st in
    expr_at l (Ecomma (e, rest))
  end
  else e

(* ------------------------------------------------------------------ *)
(* Initializers                                                        *)
(* ------------------------------------------------------------------ *)

and parse_initializer st : init =
  if T.equal (peek st) T.LBRACE then begin
    advance st;
    let items = ref [] in
    while not (T.equal (peek st) T.RBRACE) do
      let designator = parse_designator_opt st in
      let i = parse_initializer st in
      items := (designator, i) :: !items;
      if T.equal (peek st) T.COMMA then advance st
    done;
    eat st T.RBRACE;
    Ilist (List.rev !items)
  end
  else Iexpr (parse_assign_expr st)

and parse_designator_opt st : string option =
  let rec go acc =
    match peek st with
    | T.DOT ->
        advance st;
        let f = eat_ident st in
        go (Some f)
    | T.LBRACKET ->
        advance st;
        let _ = parse_cond_expr st in
        eat st T.RBRACKET;
        go acc
    | T.EQ when acc <> None || T.equal (peek2 st) T.EOF -> advance st; acc
    | _ -> acc
  in
  match peek st with
  | T.DOT | T.LBRACKET ->
      let d = go None in
      if T.equal (peek st) T.EQ then advance st;
      d
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

and parse_stmt st : stmt =
  let l = loc st in
  match peek st with
  | T.SEMI -> advance st; stmt_at l Snull
  | T.LBRACE ->
      enter_scope st;
      let stmts = parse_block st in
      leave_scope st;
      stmt_at l (Sblock stmts)
  | T.KW_IF ->
      advance st;
      eat st T.LPAREN;
      let c = parse_expr st in
      eat st T.RPAREN;
      let then_ = parse_stmt st in
      let else_ =
        if T.equal (peek st) T.KW_ELSE then begin
          advance st;
          Some (parse_stmt st)
        end
        else None
      in
      stmt_at l (Sif (c, then_, else_))
  | T.KW_WHILE ->
      advance st;
      eat st T.LPAREN;
      let c = parse_expr st in
      eat st T.RPAREN;
      stmt_at l (Swhile (c, parse_stmt st))
  | T.KW_DO ->
      advance st;
      let body = parse_stmt st in
      eat st T.KW_WHILE;
      eat st T.LPAREN;
      let c = parse_expr st in
      eat st T.RPAREN;
      eat st T.SEMI;
      stmt_at l (Sdo (body, c))
  | T.KW_FOR ->
      advance st;
      eat st T.LPAREN;
      enter_scope st;
      let init =
        if T.equal (peek st) T.SEMI then (advance st; None)
        else if starts_type st then begin
          let ds = parse_declaration st in
          Some (Fdecl ds)
        end
        else begin
          let e = parse_expr st in
          eat st T.SEMI;
          Some (Fexpr e)
        end
      in
      let cond =
        if T.equal (peek st) T.SEMI then None else Some (parse_expr st)
      in
      eat st T.SEMI;
      let step =
        if T.equal (peek st) T.RPAREN then None else Some (parse_expr st)
      in
      eat st T.RPAREN;
      let body = parse_stmt st in
      leave_scope st;
      stmt_at l (Sfor (init, cond, step, body))
  | T.KW_RETURN ->
      advance st;
      let e = if T.equal (peek st) T.SEMI then None else Some (parse_expr st) in
      eat st T.SEMI;
      stmt_at l (Sreturn e)
  | T.KW_BREAK -> advance st; eat st T.SEMI; stmt_at l Sbreak
  | T.KW_CONTINUE -> advance st; eat st T.SEMI; stmt_at l Scontinue
  | T.KW_SWITCH ->
      advance st;
      eat st T.LPAREN;
      let e = parse_expr st in
      eat st T.RPAREN;
      stmt_at l (Sswitch (e, parse_stmt st))
  | T.KW_CASE ->
      advance st;
      let e = parse_cond_expr st in
      eat st T.COLON;
      stmt_at l (Scase (e, parse_stmt st))
  | T.KW_DEFAULT ->
      advance st;
      eat st T.COLON;
      stmt_at l (Sdefault (parse_stmt st))
  | T.KW_GOTO ->
      advance st;
      let lbl = eat_ident st in
      eat st T.SEMI;
      stmt_at l (Sgoto lbl)
  | T.IDENT name when T.equal (peek2 st) T.COLON && not (is_typedef_name st name) ->
      advance st;
      advance st;
      stmt_at l (Slabel (name, parse_stmt st))
  | _ when starts_type st ->
      let ds = parse_declaration st in
      stmt_at l (Sdecl ds)
  | _ ->
      let e = parse_expr st in
      eat st T.SEMI;
      stmt_at l (Sexpr e)

and parse_block st : stmt list =
  eat st T.LBRACE;
  let stmts = ref [] in
  while not (T.equal (peek st) T.RBRACE) do
    stmts := parse_stmt st :: !stmts
  done;
  eat st T.RBRACE;
  List.rev !stmts

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

(* Parses "specs init-declarator-list ;" and registers names. *)
and parse_declaration st : decl list =
  let specs = parse_specs st in
  if T.equal (peek st) T.SEMI then begin
    advance st;
    [] (* pure type declaration: struct S { ... }; *)
  end
  else begin
    let decls = ref [] in
    let continue = ref true in
    while !continue do
      let l = loc st in
      let name, typ = parse_declarator st specs.base in
      skip_gnu_noise st;
      if specs.storage = Stypedef then begin
        bind st name Btypedef;
        Hashtbl.replace st.typedefs name typ
      end
      else bind st name Bobject;
      let init =
        if T.equal (peek st) T.EQ then begin
          advance st;
          Some (parse_initializer st)
        end
        else None
      in
      decls :=
        { dname = name; dtyp = typ; dstorage = specs.storage; dinit = init; dloc = l }
        :: !decls;
      if T.equal (peek st) T.COMMA then advance st else continue := false
    done;
    eat st T.SEMI;
    List.rev !decls
  end

(* ------------------------------------------------------------------ *)
(* Top level                                                           *)
(* ------------------------------------------------------------------ *)

let parse_top st : top option =
  skip_gnu_noise st;
  match peek st with
  | T.SEMI -> advance st; Some (Tdecl [])
  | T.EOF -> None
  | _ ->
      let specs = parse_specs st in
      if T.equal (peek st) T.SEMI then begin
        advance st;
        Some (Tdecl [])
      end
      else begin
        let l = loc st in
        let name, typ = parse_declarator st specs.base in
        skip_gnu_noise st;
        match (typ, peek st) with
        | Tfun (ret, params, variadic), T.LBRACE ->
            bind st name Bobject;
            enter_scope st;
            List.iter
              (fun p -> match p.pname with Some n -> bind st n Bobject | None -> ())
              params;
            let body = parse_block st in
            leave_scope st;
            Some
              (Tfundef
                 {
                   fname = name;
                   freturn = ret;
                   fparams = params;
                   fvariadic = variadic;
                   fstorage = specs.storage;
                   fbody = body;
                   floc = l;
                 })
        | Tfun (ret, _, variadic), t
          when (match t with T.IDENT _ -> true | _ -> false) || starts_type st
          -> (
            (* K&R parameter declarations between ')' and '{' *)
            let kr_decls = ref [] in
            while starts_type st do
              kr_decls := parse_declaration st @ !kr_decls
            done;
            match peek st with
            | T.LBRACE ->
                bind st name Bobject;
                enter_scope st;
                let params =
                  List.map
                    (fun d -> { pname = Some d.dname; ptyp = d.dtyp })
                    (List.rev !kr_decls)
                in
                List.iter
                  (fun p ->
                    match p.pname with Some n -> bind st n Bobject | None -> ())
                  params;
                let body = parse_block st in
                leave_scope st;
                Some
                  (Tfundef
                     {
                       fname = name;
                       freturn = ret;
                       fparams = params;
                       fvariadic = variadic;
                       fstorage = specs.storage;
                       fbody = body;
                       floc = l;
                     })
            | _ -> err st "expected function body after K&R declarations")
        | _ ->
            (* ordinary declaration list *)
            if specs.storage = Stypedef then begin
              bind st name Btypedef;
              Hashtbl.replace st.typedefs name typ
            end
            else bind st name Bobject;
            let init =
              if T.equal (peek st) T.EQ then begin
                advance st;
                Some (parse_initializer st)
              end
              else None
            in
            let first =
              {
                dname = name;
                dtyp = typ;
                dstorage = specs.storage;
                dinit = init;
                dloc = l;
              }
            in
            let decls = ref [ first ] in
            while T.equal (peek st) T.COMMA do
              advance st;
              let l = loc st in
              let name, typ = parse_declarator st specs.base in
              skip_gnu_noise st;
              if specs.storage = Stypedef then begin
                bind st name Btypedef;
                Hashtbl.replace st.typedefs name typ
              end
              else bind st name Bobject;
              let init =
                if T.equal (peek st) T.EQ then begin
                  advance st;
                  Some (parse_initializer st)
                end
                else None
              in
              decls :=
                {
                  dname = name;
                  dtyp = typ;
                  dstorage = specs.storage;
                  dinit = init;
                  dloc = l;
                }
                :: !decls
            done;
            eat st T.SEMI;
            Some (Tdecl (List.rev !decls))
      end

(* ------------------------------------------------------------------ *)
(* Entry points                                                        *)
(* ------------------------------------------------------------------ *)

(** Result of parsing: the translation unit plus the typedef environment
    (the normalizer resolves {!Cast.Tnamed} through it). *)
type result = { tunit : tunit; typedefs : (string, typ) Hashtbl.t }

(** Parse preprocessed text (with optional [# line "file"] markers). *)
let parse_string ?(file = "<string>") text : result =
  let lex = Clexer.scanner ~file text in
  let tok_loc = Clexer.loc lex in
  let tok = Clexer.next lex in
  let st =
    {
      lex;
      tok;
      tok_loc;
      ahead = T.EOF;
      ahead_loc = tok_loc;
      has_ahead = false;
      scopes = [ Scope.create 64 ];
      typedefs = Hashtbl.create 64;
      comps = [];
      enums = [];
      anon = 0;
      file;
    }
  in
  (* the compiler-provided varargs carrier: model va_list as a pointer
     (va_start points it at the callee's varargs bucket) *)
  Hashtbl.replace st.typedefs "__builtin_va_list" (Tptr Tvoid);
  bind st "__builtin_va_list" Btypedef;
  let tops = ref [] in
  let rec go () =
    match parse_top st with
    | Some t ->
        tops := t :: !tops;
        go ()
    | None -> ()
  in
  (try go ()
   with Parse_error _ as e ->
     (* a lexing error anywhere in the text outranks a parse error, as
        when the whole text was lexed before parsing began *)
     while Clexer.next lex != T.EOF do () done;
     raise e);
  let tunit =
    {
      file;
      tops = List.rev !tops;
      comps = List.rev st.comps;
      enums = List.rev st.enums;
    }
  in
  { tunit; typedefs = st.typedefs }
