(** The CLA compile phase: C source -> object file database.

    "The compile phase parses source files, extracts assignments and
    function calls/returns/definitions, and writes an object file that is
    basically an indexed database structure of these basic program
    components.  No analysis is performed yet." (Section 4) *)

open Cla_ir
open Cla_cfront

type options = {
  mode : Normalize.mode;
  include_dirs : string list;
  defines : (string * string) list;
  virtual_fs : (string * string) list;
  drop_bodies : string -> bool;
      (** suppress these function bodies, keeping declared interfaces *)
}

let default_options =
  {
    mode = Normalize.Field_based;
    include_dirs = [];
    defines = [];
    virtual_fs = [];
    drop_bodies = (fun _ -> false);
  }

(* Non-blank, non-# lines — the paper's source line count metric: a
   line counts when its first character that [String.trim] keeps is not
   a '#'. *)
let count_source_lines text =
  let n = ref 0 and at_start = ref true in
  String.iter
    (function
      | '\n' -> at_start := true
      | ' ' | '\012' | '\r' | '\t' -> ()
      | c ->
          if !at_start && c <> '#' then incr n;
          at_start := false)
    text;
  !n

(* The lines [String.split_on_char '\n'] would cut. *)
let count_lines text =
  let n = ref 1 in
  String.iter (fun c -> if c = '\n' then incr n) text;
  !n

(** Lower a normalized translation unit to a serializable database. *)
let db_of_prog ?(source_lines = 0) ?(preproc_lines = 0) (p : Prog.t) : Objfile.db
    =
  let nvars = Array.length p.vars in
  let vars =
    Array.map
      (fun v ->
        {
          Objfile.vname = Var.display v;
          vkind = Var.kind v;
          vlinkage = Var.linkage v;
          vtyp = v.Var.typ;
          vloc = v.Var.loc;
          vowner = Var.owner v;
          vdefined = Var.defined v;
        })
      p.vars
  in
  let keys =
    Array.to_list p.vars
    |> List.filter_map (fun v ->
           if Var.linkage v = Var.Extern then
             Some (Var.uid v, Var.key (Var.kind v) (Var.name v))
           else None)
  in
  (* find the standardized arg/ret variables by (kind, owner name) *)
  let std = Hashtbl.create 64 in
  Array.iter
    (fun v ->
      match Var.kind v with
      | Var.Arg i -> Hashtbl.replace std (`Arg i, Var.name v) (Var.uid v)
      | Var.Ret -> Hashtbl.replace std (`Ret, Var.name v) (Var.uid v)
      | _ -> ())
    p.vars;
  let statics = ref [] in
  let blocks = Array.make nvars [] in
  List.iter
    (fun (a : Prim.t) ->
      let dst = Var.uid a.dst and src = Var.uid a.src in
      let rec_ pkind pop =
        { Objfile.pkind; pdst = dst; psrc = src; pop; ploc = a.loc }
      in
      match a.kind with
      | Prim.Addr -> statics := rec_ Objfile.Paddr None :: !statics
      | Prim.Copy op ->
          let pop =
            Option.map (fun o -> (o.Prim.op, o.Prim.strength)) op
          in
          blocks.(src) <- rec_ Objfile.Pcopy pop :: blocks.(src)
      | Prim.Store -> blocks.(src) <- rec_ Objfile.Pstore None :: blocks.(src)
      | Prim.Load -> blocks.(src) <- rec_ Objfile.Pload None :: blocks.(src)
      | Prim.Deref2 -> blocks.(src) <- rec_ Objfile.Pderef2 None :: blocks.(src))
    p.assigns;
  Array.iteri (fun i l -> blocks.(i) <- List.rev l) blocks;
  let lookup_std what owner missing =
    match Hashtbl.find_opt std (what, owner) with
    | Some uid -> uid
    | None -> missing
  in
  let fundefs =
    List.map
      (fun (f : Prog.fundef) ->
        let fname = Var.name f.fvar in
        {
          Objfile.ffvar = Var.uid f.fvar;
          farity = f.arity;
          fret = lookup_std `Ret fname (-1);
          fargs =
            Array.init f.arity (fun i ->
                lookup_std (`Arg (i + 1)) fname (-1));
          ffloc = f.floc;
        })
      p.fundefs
  in
  let indirects =
    List.map
      (fun (i : Prog.indirect) ->
        let owner = Fmt.str "ip%d" (Var.uid i.ptr) in
        {
          Objfile.iptr = Var.uid i.ptr;
          inargs = i.nargs;
          iret = lookup_std `Ret owner (-1);
          iargs =
            Array.init i.nargs (fun k ->
                lookup_std (`Arg (k + 1)) owner (-1));
          iiloc = i.iloc;
        })
      p.indirects
  in
  {
    Objfile.vars;
    keys;
    statics = List.rev !statics;
    blocks;
    fundefs;
    indirects;
    consts =
      List.map (fun (v, c) -> (Var.uid v, c)) p.consts;
    openworld = None;
    tuhash = None;
    meta =
      {
        mfiles = [ p.file ];
        msource_lines = source_lines;
        mpreproc_lines = preproc_lines;
        mcounts = Prog.counts p;
      };
  }

(* Canonical rendering of the compile options that shape the produced
   database, for the TU content hash and the direct key.  [virtual_fs]
   is omitted — its effect is captured by the preprocessed text (and by
   the include manifest's digests); [drop_bodies] is a function and
   cannot be rendered, so callers that use it must not reuse units by
   key. *)
let render_options (o : options) =
  let b = Buffer.create 64 in
  Buffer.add_string b
    (match o.mode with
    | Normalize.Field_based -> "field_based"
    | Normalize.Field_independent -> "field_independent");
  List.iter
    (fun d ->
      Buffer.add_string b "\x00I";
      Buffer.add_string b d)
    o.include_dirs;
  List.iter
    (fun (k, v) ->
      Buffer.add_string b "\x00D";
      Buffer.add_string b k;
      Buffer.add_char b '=';
      Buffer.add_string b v)
    o.defines;
  Buffer.contents b

(* The TU content hash: preprocessed source + canonical options.  Two
   units with equal hashes compile to interchangeable databases. *)
let hash_of_preprocessed ~options preprocessed =
  Digest.to_hex
    (Digest.string (render_options options ^ "\x00" ^ preprocessed))

(** Content-hash a translation unit without parsing it: just the
    preprocessor plus a digest.  This is the cheap probe the incremental
    pipeline runs to decide whether the expensive parse / normalize /
    serialize steps can be skipped; it equals the [tuhash] recorded in
    the object {!compile_string} would produce for the same input. *)
let tu_hash ?(options = default_options) ~file source : string =
  let preprocessed =
    Cpp.preprocess_string ~include_dirs:options.include_dirs
      ~virtual_fs:options.virtual_fs ~defines:options.defines ~file source
  in
  hash_of_preprocessed ~options preprocessed

(** The direct-mode key: a digest of the options, the file name and the
    raw source bytes — no preprocessing.  With a {!Cpp.manifest} that
    still holds, it identifies the unit as well as {!tu_hash} does. *)
let direct_key ?(options = default_options) ~file source : string =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00" [ render_options options; file; source ]))

(** Replay an include manifest under [options]' search path. *)
let manifest_holds ?(options = default_options) manifest =
  Cpp.manifest_holds ~include_dirs:options.include_dirs
    ~virtual_fs:options.virtual_fs manifest

(** Compile C source text into a database, with the preprocessor's
    include manifest.  Recorded as a ["compile"] span (labelled with the
    file) over one span per layer — ["cpp"], ["parse"], ["normalize"],
    ["encode"], the perfbench ledger's names — and published as
    [compile.*] metrics. *)
let compile_recorded ?(options = default_options) ~file source :
    Objfile.db * Cpp.manifest =
  let span = Cla_obs.Span.with_span in
  span "compile" ~label:file (fun () ->
      let preprocessed, manifest =
        span "cpp" (fun () ->
            Cpp.preprocess_recorded ~include_dirs:options.include_dirs
              ~virtual_fs:options.virtual_fs ~defines:options.defines ~file
              source)
      in
      let parsed = span "parse" (fun () -> Cparser.parse_string ~file preprocessed) in
      let prog =
        span "normalize" (fun () ->
            Normalize.run ~mode:options.mode ~drop_bodies:options.drop_bodies
              parsed)
      in
      let db =
        span "encode" (fun () ->
            {
              (db_of_prog
                 ~source_lines:(count_source_lines source)
                 ~preproc_lines:(count_lines preprocessed) prog)
              with
              Objfile.tuhash = Some (hash_of_preprocessed ~options preprocessed);
            })
      in
      Cla_obs.Metrics.incr "compile.units";
      Cla_obs.Metrics.incr ~by:db.Objfile.meta.Objfile.msource_lines
        "compile.source_lines";
      Cla_obs.Metrics.incr ~by:db.Objfile.meta.Objfile.mpreproc_lines
        "compile.preproc_lines";
      (db, manifest))

let compile_string ?options ~file source : Objfile.db =
  fst (compile_recorded ?options ~file source)

(** Compile a C file from disk into a database. *)
let compile_file ?(options = default_options) path : Objfile.db =
  compile_string ~options ~file:path (Binio.read_file path)

(** Compile and serialize to an object file on disk (like [cc -c]). *)
let compile_to ?(options = default_options) ~output path =
  Objfile.save output (compile_file ~options path)

(** Like {!compile_file}, surfacing front-end failures (parse, cpp, lex,
    missing file) as a structured {!Diag.t} instead of an exception. *)
let compile_file_result ?(options = default_options) path :
    (Objfile.db, Diag.t) result =
  Diag.capture ~file:path ~phase:Diag.Compile (fun () ->
      compile_file ~options path)
