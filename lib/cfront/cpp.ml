(* Mini C preprocessor.

   The paper's compile phase consumes unpreprocessed source (Table 2 counts
   source lines before preprocessing) and runs it through cpp before ckit
   parses it.  The container is sealed, so we implement the subset of cpp
   that real code bases and our synthetic workloads exercise: object- and
   function-like macros (with # stringize and ## paste), #include with
   search paths and a virtual filesystem for tests, the full conditional
   family (#if/#ifdef/#ifndef/#elif/#else/#endif) with a constant-expression
   evaluator, #undef, #error, and #pragma/#line pass-through.

   Output is plain text with GNU-style [# <line> "<file>"] markers that
   Clexer interprets, so downstream locations refer to original files. *)

exception Cpp_error of string * string * int (* message, file, line *)

let error file line fmt = Fmt.kstr (fun m -> raise (Cpp_error (m, file, line))) fmt

(* ------------------------------------------------------------------ *)
(* Preprocessing tokens: a deliberately small token language.          *)
(* ------------------------------------------------------------------ *)

type ptok =
  | Id of string
  | Num of string
  | Str of string  (* with quotes, verbatim *)
  | Ch of string  (* with quotes, verbatim *)
  | Punct of string
  | Ws  (* any run of whitespace *)

let ptok_text = function
  | Id s | Num s | Str s | Ch s | Punct s -> s
  | Ws -> " "

let is_id_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_id_char c = is_id_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

let is_blank c = c = ' ' || c = '\t' || c = '\r'

(* The end of the pp-number starting at [i]: digits, letters, dots and
   exponent signs. *)
let ppnum_end s i n =
  let j = ref i in
  while
    !j < n
    && (is_id_char s.[!j] || s.[!j] = '.'
       || ((s.[!j] = '+' || s.[!j] = '-')
          && !j > i
          && (match s.[!j - 1] with 'e' | 'E' | 'p' | 'P' -> true | _ -> false)))
  do
    incr j
  done;
  !j

(* Scan one logical line into ptoks.  Comments were removed earlier. *)
let scan_line ~file ~line s =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  let push t = toks := t :: !toks in
  while !i < n do
    let c = s.[!i] in
    if is_blank c then begin
      while !i < n && is_blank s.[!i] do incr i done;
      push Ws
    end
    else if is_id_start c then begin
      let j = ref !i in
      while !j < n && is_id_char s.[!j] do incr j done;
      push (Id (String.sub s !i (!j - !i)));
      i := !j
    end
    else if is_digit c || (c = '.' && !i + 1 < n && is_digit s.[!i + 1]) then begin
      let j = ppnum_end s !i n in
      push (Num (String.sub s !i (j - !i)));
      i := j
    end
    else if c = '"' || c = '\'' then begin
      let quote = c in
      let j = ref (!i + 1) in
      while !j < n && s.[!j] <> quote do
        if s.[!j] = '\\' && !j + 1 < n then j := !j + 2 else incr j
      done;
      if !j >= n then error file line "unterminated %s literal"
          (if quote = '"' then "string" else "character");
      let lit = String.sub s !i (!j - !i + 1) in
      push (if quote = '"' then Str lit else Ch lit);
      i := !j + 1
    end
    else begin
      (* longest-match punctuation *)
      let try3 =
        if !i + 2 < n then
          match String.sub s !i 3 with
          | ("..." | "<<=" | ">>=") as p -> Some p
          | _ -> None
        else None
      in
      let try2 =
        if !i + 1 < n then
          match String.sub s !i 2 with
          | ( "##" | "->" | "++" | "--" | "<<" | ">>" | "<=" | ">=" | "=="
            | "!=" | "&&" | "||" | "+=" | "-=" | "*=" | "/=" | "%=" | "&="
            | "^=" | "|=" ) as p ->
              Some p
          | _ -> None
        else None
      in
      match try3 with
      | Some p -> push (Punct p); i := !i + 3
      | None -> (
          match try2 with
          | Some p -> push (Punct p); i := !i + 2
          | None ->
              push (Punct (String.make 1 c));
              incr i)
    end
  done;
  List.rev !toks

let render toks = String.concat "" (List.map ptok_text toks)

(* ------------------------------------------------------------------ *)
(* Macro table                                                         *)
(* ------------------------------------------------------------------ *)

type macro =
  | Obj of ptok list
  | Fn of string list * bool * ptok list  (* params, is_variadic, body *)

type source = Disk of string list (* include dirs *) | Virtual of (string * string) list

(* One [#include] resolution: what was asked for and the digest of what
   it resolved to ([None]: nothing, a tolerated missing <system> header). *)
type lookup = { name : string; from_dir : string; digest : Digest.t option }

type manifest = lookup list

type t = {
  defines : (string, macro) Hashtbl.t;
  seen : Bytes.t;
      (* marks the {!name_hash} bucket of every name ever defined: an
         unmarked bucket proves an identifier is no macro without
         allocating *)
  mutable sources : source list;  (* search order *)
  mutable included : string list;  (* stack, for cycle detection *)
  out : Buffer.t;
  line : Buffer.t;  (* one output line, rendered before its marker *)
  strip : Buffer.t;  (* a logical line with its comments removed *)
  mutable out_file : string;  (* current marker state *)
  mutable out_line : int;
  mutable max_depth : int;
  mutable lookups : lookup list;  (* the run's manifest, reversed *)
}

let seen_buckets = 4096

(* Hash of [s.[i..j)] into [0, seen_buckets). *)
let name_hash s i j =
  let h = ref 0 in
  for k = i to j - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get s k)
  done;
  !h land (seen_buckets - 1)

let define t name m =
  Bytes.unsafe_set t.seen (name_hash name 0 (String.length name)) '\001';
  Hashtbl.replace t.defines name m

(* [#undef] leaves the name's bucket marked: a stale mark only sends the
   lookup on to the table. *)
let names_macro t s i j =
  Bytes.unsafe_get t.seen (name_hash s i j) <> '\000'
  && Hashtbl.mem t.defines (String.sub s i (j - i))

let create ?(include_dirs = []) ?(virtual_fs = []) ?(defines = []) ?(size = 4096) () =
  let t =
    {
      defines = Hashtbl.create 64;
      seen = Bytes.make seen_buckets '\000';
      sources = [ Virtual virtual_fs; Disk include_dirs ];
      included = [];
      out = Buffer.create size;
      line = Buffer.create 256;
      strip = Buffer.create 256;
      out_file = "";
      out_line = 0;
      max_depth = 200;
      lookups = [];
    }
  in
  define t "__CLA__" (Obj [ Num "1" ]);
  define t "__STDC__" (Obj [ Num "1" ]);
  List.iter
    (fun (name, body) ->
      define t name (Obj (scan_line ~file:"<cmdline>" ~line:0 body)))
    defines;
  t

let is_defined t name = Hashtbl.mem t.defines name

(* ------------------------------------------------------------------ *)
(* Macro expansion with a no-recursion name set                        *)
(* ------------------------------------------------------------------ *)

module Sset = Set.Make (String)

let drop_ws = List.filter (fun x -> x <> Ws)

(* Split the token list of a macro argument list "(a, b, ...)" that starts
   after the opening paren.  Returns (args, rest-after-close).  Commas
   inside nested parens/brackets do not split. *)
let trim_ws l =
  let rec front = function Ws :: tl -> front tl | l -> l in
  front (List.rev (front (List.rev l)))

let split_args ~file ~line toks =
  let rec go depth cur args = function
    | [] -> error file line "unterminated macro argument list"
    | Punct "(" :: tl -> go (depth + 1) (Punct "(" :: cur) args tl
    | Punct ")" :: tl ->
        if depth = 0 then
          (List.rev (List.map trim_ws (List.rev cur :: args)), tl)
        else go (depth - 1) (Punct ")" :: cur) args tl
    | Punct "," :: tl when depth = 0 -> go depth [] (List.rev cur :: args) tl
    | hd :: tl -> go depth (hd :: cur) args tl
  in
  go 0 [] [] toks

let stringize arg =
  let body = String.trim (render arg) in
  let b = Buffer.create (String.length body + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      if c = '"' || c = '\\' then Buffer.add_char b '\\';
      Buffer.add_char b c)
    body;
  Buffer.add_char b '"';
  Str (Buffer.contents b)

(* Token paste: textual concatenation re-scanned. *)
let paste ~file ~line a b =
  let text = String.trim (render a) ^ String.trim (render b) in
  scan_line ~file ~line text

let rec expand t ~file ~line ~hide toks =
  match toks with
  | [] -> []
  | Ws :: tl -> Ws :: expand t ~file ~line ~hide tl
  | Id name :: tl when (not (Sset.mem name hide)) && Hashtbl.mem t.defines name -> (
      match Hashtbl.find t.defines name with
      | Obj body ->
          let body' = subst_hash t ~file ~line body [] [] in
          let expanded = expand t ~file ~line ~hide:(Sset.add name hide) body' in
          expanded @ expand t ~file ~line ~hide tl
      | Fn (params, variadic, body) -> (
          (* only a call-looking use expands *)
          let rec after_ws = function Ws :: l -> after_ws l | l -> l in
          match after_ws tl with
          | Punct "(" :: rest ->
              let args, rest' = split_args ~file ~line rest in
              let args =
                (* f() with one empty arg = zero args when params = [] *)
                match (args, params) with
                | [ [] ], [] -> []
                | _ -> args
              in
              let nparams = List.length params in
              let args =
                if variadic && List.length args > nparams then
                  (* collapse extra args into the last (__VA_ARGS__) slot *)
                  let fixed = ref [] and rest_args = ref [] in
                  List.iteri
                    (fun i a ->
                      if i < nparams - 1 then fixed := a :: !fixed
                      else rest_args := a :: !rest_args)
                    args;
                  let va =
                    List.concat
                      (List.mapi
                         (fun i a -> if i = 0 then a else (Punct "," :: a))
                         (List.rev !rest_args))
                  in
                  List.rev (va :: !fixed)
                else args
              in
              if List.length args <> nparams && not variadic then
                error file line "macro %s expects %d arguments, got %d" name
                  nparams (List.length args);
              let expanded_args =
                List.map (fun a -> expand t ~file ~line ~hide a) args
              in
              let body' = subst_hash t ~file ~line body params args in
              let body'' = subst_params body' params expanded_args in
              let expanded =
                expand t ~file ~line ~hide:(Sset.add name hide) body''
              in
              expanded @ expand t ~file ~line ~hide rest'
          | _ -> Id name :: expand t ~file ~line ~hide tl))
  | hd :: tl -> hd :: expand t ~file ~line ~hide tl

(* First pass over a macro body: handle # and ## using the *unexpanded*
   argument tokens, per the standard. *)
and subst_hash t ~file ~line body params args =
  let arg_of p =
    let rec find ps as_ =
      match (ps, as_) with
      | p' :: _, a :: _ when p' = p -> Some a
      | _ :: ps', _ :: as_' -> find ps' as_'
      | _ -> None
    in
    find params args
  in
  let rec go = function
    | [] -> []
    | Punct "#" :: rest -> (
        let rec skip_ws = function Ws :: l -> skip_ws l | l -> l in
        match skip_ws rest with
        | Id p :: tl when arg_of p <> None -> (
            match arg_of p with
            | Some a -> stringize a :: go tl
            | None -> assert false)
        | _ -> Punct "#" :: go rest)
    | a :: Ws :: Punct "##" :: tl -> go (a :: Punct "##" :: tl)
    | a :: Punct "##" :: Ws :: tl -> go (a :: Punct "##" :: tl)
    | a :: Punct "##" :: b :: tl ->
        let resolve x =
          match x with
          | Id p -> ( match arg_of p with Some arg -> drop_ws arg | None -> [ x ])
          | _ -> [ x ]
        in
        let pasted = paste ~file ~line (resolve a) (resolve b) in
        go (pasted @ tl)
    | hd :: tl -> hd :: go tl
  in
  ignore t;
  go body

(* Second pass: ordinary parameter substitution with pre-expanded args. *)
and subst_params body params expanded_args =
  let tbl = Hashtbl.create 8 in
  List.iter2 (fun p a -> Hashtbl.replace tbl p a) params expanded_args;
  List.concat_map
    (function
      | Id p when Hashtbl.mem tbl p -> Hashtbl.find tbl p
      | tok -> [ tok ])
    body

(* ------------------------------------------------------------------ *)
(* #if constant expressions                                            *)
(* ------------------------------------------------------------------ *)

(* Replace defined(X) / defined X before macro expansion. *)
let replace_defined t toks =
  let rec go = function
    | [] -> []
    | Id "defined" :: tl -> (
        let rec skip_ws = function Ws :: l -> skip_ws l | l -> l in
        match skip_ws tl with
        | Punct "(" :: tl' -> (
            match skip_ws tl' with
            | Id name :: tl'' -> (
                match skip_ws tl'' with
                | Punct ")" :: rest ->
                    Num (if is_defined t name then "1" else "0") :: go rest
                | _ -> Punct "?" :: go tl'')
            | _ -> Punct "?" :: go tl')
        | Id name :: rest -> Num (if is_defined t name then "1" else "0") :: go rest
        | _ -> Punct "?" :: go tl)
    | hd :: tl -> hd :: go tl
  in
  go toks

(* Tiny Pratt parser over int64 for #if expressions. *)
let eval_if_expr ~file ~line toks =
  let toks = ref (drop_ws toks) in
  let peek () = match !toks with [] -> None | t :: _ -> Some t in
  let advance () = match !toks with [] -> () | _ :: tl -> toks := tl in
  let expect p =
    match peek () with
    | Some (Punct q) when q = p -> advance ()
    | _ -> error file line "#if: expected %s" p
  in
  let num_value s =
    let e = ref (String.length s) in
    while
      !e > 0 && (match s.[!e - 1] with 'u' | 'U' | 'l' | 'L' -> true | _ -> false)
    do
      decr e
    done;
    try Int64.of_string (String.sub s 0 !e) with _ -> 0L
  in
  let rec primary () =
    match peek () with
    | Some (Num s) -> advance (); num_value s
    | Some (Ch s) ->
        advance ();
        if String.length s >= 3 then Int64.of_int (Char.code s.[1]) else 0L
    | Some (Id _) -> advance (); 0L (* undefined identifiers are 0 *)
    | Some (Punct "(") ->
        advance ();
        let v = ternary () in
        expect ")"; v
    | Some (Punct "!") -> advance (); if primary () = 0L then 1L else 0L
    | Some (Punct "~") -> advance (); Int64.lognot (primary ())
    | Some (Punct "-") -> advance (); Int64.neg (primary ())
    | Some (Punct "+") -> advance (); primary ()
    | _ -> error file line "#if: parse error"
  and binop level =
    (* precedence-climbing over a fixed table *)
    let prec = function
      | "*" | "/" | "%" -> 10
      | "+" | "-" -> 9
      | "<<" | ">>" -> 8
      | "<" | ">" | "<=" | ">=" -> 7
      | "==" | "!=" -> 6
      | "&" -> 5
      | "^" -> 4
      | "|" -> 3
      | "&&" -> 2
      | "||" -> 1
      | _ -> 0
    in
    let apply op a b =
      let b2i x = if x then 1L else 0L in
      match op with
      | "*" -> Int64.mul a b
      | "/" -> if b = 0L then 0L else Int64.div a b
      | "%" -> if b = 0L then 0L else Int64.rem a b
      | "+" -> Int64.add a b
      | "-" -> Int64.sub a b
      | "<<" -> Int64.shift_left a (Int64.to_int b land 63)
      | ">>" -> Int64.shift_right a (Int64.to_int b land 63)
      | "<" -> b2i (a < b)
      | ">" -> b2i (a > b)
      | "<=" -> b2i (a <= b)
      | ">=" -> b2i (a >= b)
      | "==" -> b2i (a = b)
      | "!=" -> b2i (a <> b)
      | "&" -> Int64.logand a b
      | "^" -> Int64.logxor a b
      | "|" -> Int64.logor a b
      | "&&" -> b2i (a <> 0L && b <> 0L)
      | "||" -> b2i (a <> 0L || b <> 0L)
      | _ -> 0L
    in
    let rec loop lhs =
      match peek () with
      | Some (Punct op) when prec op >= level && prec op > 0 ->
          advance ();
          let rhs = binop (prec op + 1) in
          loop (apply op lhs rhs)
      | _ -> lhs
    in
    loop (primary ())
  and ternary () =
    let c = binop 1 in
    match peek () with
    | Some (Punct "?") ->
        advance ();
        let a = ternary () in
        expect ":";
        let b = ternary () in
        if c <> 0L then a else b
    | _ -> c
  in
  let v = ternary () in
  (match peek () with
  | None -> ()
  | Some _ -> error file line "#if: trailing tokens");
  v <> 0L

(* ------------------------------------------------------------------ *)
(* Driver: logical lines, comment removal, directives                  *)
(* ------------------------------------------------------------------ *)

(* Remove the comments of [s.[i..j)] into [b], tracking multi-line
   /* */ state; returns the new state. *)
let strip_comments b ~in_comment s i j =
  Buffer.clear b;
  let i = ref i in
  let in_c = ref in_comment in
  let quote = ref ' ' in
  while !i < j do
    let c = s.[!i] in
    if !in_c then begin
      if c = '*' && !i + 1 < j && s.[!i + 1] = '/' then begin
        in_c := false;
        Buffer.add_char b ' ';
        i := !i + 2
      end
      else incr i
    end
    else if !quote <> ' ' then begin
      Buffer.add_char b c;
      if c = '\\' && !i + 1 < j then begin
        Buffer.add_char b s.[!i + 1];
        i := !i + 2
      end
      else begin
        if c = !quote then quote := ' ';
        incr i
      end
    end
    else if c = '"' || c = '\'' then begin
      quote := c;
      Buffer.add_char b c;
      incr i
    end
    else if c = '/' && !i + 1 < j && s.[!i + 1] = '/' then i := j
    else if c = '/' && !i + 1 < j && s.[!i + 1] = '*' then begin
      in_c := true;
      i := !i + 2
    end
    else begin
      Buffer.add_char b c;
      incr i
    end
  done;
  !in_c

(* Render [s.[k..j)] into [t.line] for {!plain_line}; [s.[from..k)] is
   still to be copied verbatim, once a blank or the end shows up. *)
let rec plain_from t ~file ~line s j from k =
  let b = t.line in
  if k >= j then (Buffer.add_substring b s from (k - from); true)
  else
    let c = String.unsafe_get s k in
    if is_blank c then begin
      Buffer.add_substring b s from (k - from);
      Buffer.add_char b ' ';
      let k = ref (k + 1) in
      while !k < j && is_blank (String.unsafe_get s !k) do incr k done;
      plain_from t ~file ~line s j !k !k
    end
    else if is_id_start c then begin
      let e = ref (k + 1) in
      while !e < j && is_id_char (String.unsafe_get s !e) do incr e done;
      (not (names_macro t s k !e)) && plain_from t ~file ~line s j from !e
    end
    else if is_digit c || (c = '.' && k + 1 < j && is_digit s.[k + 1]) then
      plain_from t ~file ~line s j from (ppnum_end s k j)
    else if c = '"' || c = '\'' then begin
      let e = ref (k + 1) in
      while !e < j && s.[!e] <> c do
        if s.[!e] = '\\' && !e + 1 < j then e := !e + 2 else incr e
      done;
      if !e >= j then error file line "unterminated %s literal"
          (if c = '"' then "string" else "character");
      plain_from t ~file ~line s j from (!e + 1)
    end
    else plain_from t ~file ~line s j from (k + 1)

(* The plain-line path.  A line in which no identifier names a macro
   expands to itself, so [render (expand (scan_line line))] is the line
   with each run of blanks outside literals collapsed to one space.
   Render [s.[i..j)] so into [t.line] and return [true], or return
   [false] at the first identifier that names a macro: only the ptok
   path can expand it.  Raises [scan_line]'s unterminated-literal
   error. *)
let plain_line t ~file ~line s i j =
  Buffer.clear t.line;
  plain_from t ~file ~line s j i i

type cond = { mutable active : bool; mutable taken : bool; parent_active : bool }

let read_source t name ~from_dir =
  let try_virtual () =
    List.find_map
      (function
        | Virtual fs -> List.assoc_opt name fs
        | Disk _ -> None)
      t.sources
  in
  let try_disk () =
    let candidates =
      (if from_dir <> "" then [ Filename.concat from_dir name ] else [])
      @ List.concat_map
          (function
            | Disk dirs -> List.map (fun d -> Filename.concat d name) dirs
            | Virtual _ -> [])
          t.sources
      @ [ name ]
    in
    List.find_map
      (fun path ->
        if Sys.file_exists path && not (Sys.is_directory path) then
          Some (In_channel.with_open_bin path In_channel.input_all)
        else None)
      candidates
  in
  match try_virtual () with Some s -> Some s | None -> try_disk ()

(* [read_source], noting the lookup in the run's manifest. *)
let lookup_source t name ~from_dir =
  let r = read_source t name ~from_dir in
  t.lookups <-
    { name; from_dir; digest = Option.map Digest.string r } :: t.lookups;
  r

let emit_marker t file line =
  if t.out_file <> file || t.out_line <> line then begin
    Buffer.add_string t.out "# ";
    Buffer.add_string t.out (string_of_int line);
    Buffer.add_string t.out " \"";
    Buffer.add_string t.out file;
    Buffer.add_string t.out "\"\n";
    t.out_file <- file;
    t.out_line <- line
  end

(* Emit the rendered [t.line] as line [line] of [file]. *)
let emit_line t file line =
  emit_marker t file line;
  Buffer.add_buffer t.out t.line;
  Buffer.add_char t.out '\n';
  t.out_line <- line + 1

(* The first [c] in [s.[i..j)], or [j]. *)
let rec index_in s i j c =
  if i < j && String.unsafe_get s i <> c then index_in s (i + 1) j c else i

(* [String.trim]'s blanks: a logical line made of them alone is empty. *)
let is_space c = c = ' ' || c = '\012' || c = '\n' || c = '\r' || c = '\t'

let rec process_string t ~file content =
  if List.length t.included > t.max_depth then
    error file 0 "#include nesting too deep (cycle?)";
  t.included <- file :: t.included;
  let conds : cond list ref = ref [] in
  let active () = List.for_all (fun c -> c.active) !conds in
  let in_comment = ref false in
  let lineno = ref 0 in
  let pending = Buffer.create 80 in  (* a line continued with '\\' *)
  let pending_start = ref 0 in
  (* The logical line [s.[i..j)] (continuations joined), read in place
     unless it holds a comment. *)
  let rec flush_logical s i j =
    if (not !in_comment) && index_in s i j '/' = j then logical s i j
    else begin
      in_comment := strip_comments t.strip ~in_comment:!in_comment s i j;
      logical (Buffer.contents t.strip) 0 (Buffer.length t.strip)
    end
  and logical s i j =
    let line0 = !pending_start in
    let k = ref i in
    while !k < j && is_space (String.unsafe_get s !k) do incr k done;
    if !k = j then ()
    else if s.[!k] = '#' then
      directive t ~file ~line:line0 conds active
        (String.trim (String.sub s !k (j - !k)))
    else if active () then begin
      if not (plain_line t ~file ~line:line0 s i j) then begin
        let toks = scan_line ~file ~line:line0 (String.sub s i (j - i)) in
        Buffer.clear t.line;
        List.iter
          (fun tok -> Buffer.add_string t.line (ptok_text tok))
          (expand t ~file ~line:line0 ~hide:Sset.empty toks)
      end;
      emit_line t file line0
    end
  in
  (* Physical lines as [String.split_on_char '\n'] cuts them. *)
  let n = String.length content in
  let rec physical start =
    let e = index_in content start n '\n' in
    incr lineno;
    if Buffer.length pending = 0 then pending_start := !lineno;
    let stop = if e > start && content.[e - 1] = '\r' then e - 1 else e in
    if stop > start && content.[stop - 1] = '\\' then
      Buffer.add_substring pending content start (stop - 1 - start)
    else if Buffer.length pending = 0 then flush_logical content start stop
    else begin
      Buffer.add_substring pending content start (stop - start);
      let logical = Buffer.contents pending in
      Buffer.clear pending;
      flush_logical logical 0 (String.length logical)
    end;
    if e < n then physical (e + 1)
  in
  physical 0;
  if Buffer.length pending > 0 then begin
    let logical = Buffer.contents pending in
    flush_logical logical 0 (String.length logical)
  end;
  (match !conds with
  | [] -> ()
  | _ -> error file !lineno "unterminated #if");
  t.included <- List.tl t.included

and directive t ~file ~line conds active text =
  (* text starts with '#' *)
  let body = String.sub text 1 (String.length text - 1) in
  let body = String.trim body in
  let name, rest =
    let i = ref 0 in
    let n = String.length body in
    while !i < n && is_id_char body.[!i] do incr i done;
    (String.sub body 0 !i, String.trim (String.sub body !i (n - !i)))
  in
  let parent_active () = List.for_all (fun c -> c.active) !conds in
  match name with
  | "ifdef" | "ifndef" ->
      let neg = name = "ifndef" in
      let macro_name =
        match drop_ws (scan_line ~file ~line rest) with
        | Id m :: _ -> m
        | _ -> error file line "#%s: expected identifier" name
      in
      let v = is_defined t macro_name in
      let v = if neg then not v else v in
      let pa = parent_active () in
      conds := { active = pa && v; taken = v; parent_active = pa } :: !conds
  | "if" ->
      let pa = parent_active () in
      let v =
        if pa then
          let toks = replace_defined t (scan_line ~file ~line rest) in
          let toks = expand t ~file ~line ~hide:Sset.empty toks in
          eval_if_expr ~file ~line toks
        else false
      in
      conds := { active = pa && v; taken = v; parent_active = pa } :: !conds
  | "elif" -> (
      match !conds with
      | [] -> error file line "#elif without #if"
      | c :: _ ->
          if c.taken then c.active <- false
          else begin
            let v =
              if c.parent_active then
                let toks = replace_defined t (scan_line ~file ~line rest) in
                let toks = expand t ~file ~line ~hide:Sset.empty toks in
                eval_if_expr ~file ~line toks
              else false
            in
            c.active <- c.parent_active && v;
            c.taken <- v
          end)
  | "else" -> (
      match !conds with
      | [] -> error file line "#else without #if"
      | c :: _ ->
          c.active <- c.parent_active && not c.taken;
          c.taken <- true)
  | "endif" -> (
      match !conds with
      | [] -> error file line "#endif without #if"
      | _ :: tl -> conds := tl)
  | _ when not (active ()) -> ()
  | "define" ->
      let toks = scan_line ~file ~line rest in
      (match drop_ws toks with
      | Id mname :: _ -> (
          (* function-like iff '(' immediately follows the name (no ws) *)
          let after_name =
            let rec skip = function
              | Id m :: tl when m = mname -> tl
              | _ :: tl -> skip tl
              | [] -> []
            in
            skip toks
          in
          match after_name with
          | Punct "(" :: tl ->
              let rec params acc variadic = function
                | Ws :: l -> params acc variadic l
                | Punct ")" :: l -> (List.rev acc, variadic, l)
                | Id p :: l -> params (p :: acc) variadic l
                | Punct "..." :: l -> params ("__VA_ARGS__" :: acc) true l
                | Punct "," :: l -> params acc variadic l
                | _ -> error file line "#define %s: bad parameter list" mname
              in
              let ps, variadic, body_toks = params [] false tl in
              let body_toks =
                match body_toks with Ws :: l -> l | l -> l
              in
              define t mname (Fn (ps, variadic, body_toks))
          | body_toks ->
              let body_toks = match body_toks with Ws :: l -> l | l -> l in
              define t mname (Obj body_toks))
      | _ -> error file line "#define: expected macro name")
  | "undef" -> (
      match drop_ws (scan_line ~file ~line rest) with
      | Id m :: _ -> Hashtbl.remove t.defines m
      | _ -> error file line "#undef: expected identifier")
  | "include" -> (
      let rest_toks = drop_ws (scan_line ~file ~line rest) in
      let target, local =
        match rest_toks with
        | Str s :: _ -> (String.sub s 1 (String.length s - 2), true)
        | Punct "<" :: tl ->
            let rec until_gt acc = function
              | Punct ">" :: _ -> String.concat "" (List.rev acc)
              | tok :: tl -> until_gt (ptok_text tok :: acc) tl
              | [] -> error file line "#include: missing >"
            in
            (until_gt [] tl, false)
        | _ -> error file line "#include: expected \"file\" or <file>"
      in
      let from_dir = if local then Filename.dirname file else "" in
      match lookup_source t target ~from_dir with
      | Some content ->
          if List.mem target t.included then
            error file line "#include cycle through %s" target;
          process_string t ~file:target content;
          (* restore marker to the including file *)
          t.out_file <- "";
          t.out_line <- 0
      | None ->
          if local then error file line "#include: cannot find %S" target
          (* missing <system> headers expand to nothing: the analysis only
             needs assignment structure, and synthetic/test code carries its
             own declarations *))
  | "error" -> error file line "#error %s" rest
  | "warning" | "pragma" | "line" | "ident" -> ()
  | "" -> () (* a lone '#' is a null directive *)
  | other -> error file line "unknown directive #%s" other

(* ------------------------------------------------------------------ *)
(* Public entry points                                                 *)
(* ------------------------------------------------------------------ *)

(** Preprocess [content] as if it were file [file]; returns text with line
    markers, ready for {!Clexer}, and the run's include lookups in the
    order it made them. *)
let preprocess_recorded ?include_dirs ?virtual_fs ?defines ~file content =
  (* the output is about as long as the input *)
  let size = String.length content + 4096 in
  let t = create ?include_dirs ?virtual_fs ?defines ~size () in
  process_string t ~file content;
  (Buffer.contents t.out, List.rev t.lookups)

let preprocess_string ?include_dirs ?virtual_fs ?defines ~file content =
  fst (preprocess_recorded ?include_dirs ?virtual_fs ?defines ~file content)

(** Replay a manifest's lookups, in order, against the current search
    path: true iff every one resolves to the same bytes (or to nothing)
    again. *)
let manifest_holds ?include_dirs ?virtual_fs (m : manifest) =
  let t = create ?include_dirs ?virtual_fs () in
  List.for_all
    (fun l ->
      Option.equal Digest.equal l.digest
        (Option.map Digest.string (read_source t l.name ~from_dir:l.from_dir)))
    m
