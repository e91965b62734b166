(** The CLA link phase: merge object files into one database.

    "The link phase merges all of the database files into one database,
    using the linking information present in the object files to link
    global symbols ... During this process we must recompute indexing
    information." (Section 4) *)

open Cla_ir

type stats = {
  n_units : int;
  n_extern_merged : int;  (** extern symbol occurrences unified away *)
  n_vars_out : int;
  n_undefined : int;  (** declared-but-undefined functions detected *)
}

(** Incomplete-program policy: [Ignore] links the fragment as-is (the
    library default — a closed-world under-approximation), [Error]
    raises {!Diag.Fail} naming the undefined functions (the strict
    [cla link] contract, rendered as exit 3), [Open_world] synthesizes
    {!Openworld} havoc constraints and attaches the summary section. *)
type undef_policy = Ignore | Error | Open_world

(* Per-record remaps from a unit's uids to linked ids; [-1] (no
   argument or return variable) stays [-1]. *)
let map_opt map a = if a >= 0 then map.(a) else -1

let remap_prim map (p : Objfile.prim_rec) =
  { p with Objfile.pdst = map.(p.Objfile.pdst); psrc = map.(p.Objfile.psrc) }

let remap_fundef map (f : Objfile.fund_rec) =
  {
    f with
    Objfile.ffvar = map.(f.Objfile.ffvar);
    fret = map_opt map f.Objfile.fret;
    fargs = Array.map (map_opt map) f.Objfile.fargs;
  }

let remap_indirect map (i : Objfile.indir_rec) =
  {
    i with
    Objfile.iptr = map.(i.Objfile.iptr);
    iret = map_opt map i.Objfile.iret;
    iargs = Array.map (map_opt map) i.Objfile.iargs;
  }

(* Canonical linking key -> linked id.  Folding it gives [db.keys]; its
   buckets are those of a polymorphic [Hashtbl] under the same
   insertions, so the GLOBALS order is too. *)
module Key_tbl = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let keys_of_table key_ids = Key_tbl.fold (fun key id acc -> (id, key) :: acc) key_ids []

(* A unit's linking key per uid ([None] for unkeyed objects); a later
   GLOBALS entry for the same uid wins. *)
let unit_keys (v : Objfile.view) =
  let keys = Array.make (Objfile.n_vars v) None in
  List.iter (fun (uid, key) -> keys.(uid) <- Some key) v.Objfile.rkeys;
  keys

(* A unit's full contribution to the linked database, in linked ids. *)
type contrib = {
  c_statics : Objfile.prim_rec list;
  c_prims : Objfile.prim_rec list;  (* dynamic blocks, flattened *)
  c_fundefs : Objfile.fund_rec list;
  c_indirects : Objfile.indir_rec list;
}

let empty_contrib =
  { c_statics = []; c_prims = []; c_fundefs = []; c_indirects = [] }

(* The contribution of a unit whose dynamic records, remapped and in uid
   order, are [c_prims]. *)
let contrib_with (v : Objfile.view) map c_prims =
  let remap_all f a = Array.fold_right (fun x acc -> f map x :: acc) a [] in
  {
    c_statics = remap_all remap_prim v.Objfile.rstatics;
    c_prims;
    c_fundefs = remap_all remap_fundef v.Objfile.rfundefs;
    c_indirects = remap_all remap_indirect v.Objfile.rindirects;
  }

let contrib_of (v : Objfile.view) (map : int array) : contrib =
  let prims = ref [] in
  for uid = Objfile.n_vars v - 1 downto 0 do
    if Objfile.has_block v uid then
      prims :=
        List.rev_append
          (List.rev_map (remap_prim map) (Objfile.read_block v uid))
          !prims
  done;
  contrib_with v map !prims

(* The per-variable passes over a linked variable table, given each
   unit's view and uid -> linked-id map: a declaration with a type wins
   over one without (the same extern may be declared with and without
   type info in different units), and a merged object is defined iff
   any unit defines it — one definition satisfies every extern
   declaration of the same key. *)
let refresh_vars vars (units : (Objfile.view * int array) list) =
  List.iter
    (fun ((v : Objfile.view), map) ->
      Array.iteri
        (fun uid id ->
          let vi = v.Objfile.rvars.(uid) in
          if vars.(id).Objfile.vtyp = "" && vi.Objfile.vtyp <> "" then
            vars.(id) <- vi)
        map)
    units;
  let defined = Array.make (Array.length vars) false in
  List.iter
    (fun ((v : Objfile.view), map) ->
      Array.iteri
        (fun uid id ->
          if v.Objfile.rvars.(uid).Objfile.vdefined then defined.(id) <- true)
        map)
    units;
  Array.iteri
    (fun id vi ->
      if vi.Objfile.vdefined <> defined.(id) then
        vars.(id) <- { vi with Objfile.vdefined = defined.(id) })
    vars

(* Table 2 statistics and provenance, summed over the units. *)
let meta_of_views (views : Objfile.view list) : Objfile.meta =
  let files = ref [] and src = ref 0 and pre = ref 0 in
  let counts = ref Prim.zero_counts in
  List.iter
    (fun (v : Objfile.view) ->
      let m = v.Objfile.rmeta in
      files := List.rev_append m.Objfile.mfiles !files;
      src := !src + m.Objfile.msource_lines;
      pre := !pre + m.Objfile.mpreproc_lines;
      counts := Prim.add_counts !counts m.Objfile.mcounts)
    views;
  {
    Objfile.mfiles = List.rev !files;
    msource_lines = !src;
    mpreproc_lines = !pre;
    mcounts = !counts;
  }

(** Link several object-file views into a single database.  Extern objects
    with the same canonical key are unified; unit-private objects are
    renumbered.  Also returns the per-unit uid → linked-id maps and the
    canonical-key table, which the delta linker below snapshots, and —
    with [contribs] — each unit's {!contrib}. *)
let link_views_full ?(contribs = false) (views : Objfile.view list) =
  let key_ids = Key_tbl.create 1024 in
  let out_vars = ref [] in
  (* reversed *)
  let next = ref 0 in
  let merged = ref 0 in
  let alloc (vi : Objfile.varinfo) =
    let id = !next in
    incr next;
    out_vars := vi :: !out_vars;
    id
  in
  let unit_maps =
    List.map
      (fun (v : Objfile.view) ->
        let keys = unit_keys v in
        let map =
          Array.mapi
            (fun uid vi ->
              match keys.(uid) with
              | Some key -> (
                  match Key_tbl.find_opt key_ids key with
                  | Some id ->
                      incr merged;
                      id
                  | None ->
                      let id = alloc vi in
                      Key_tbl.replace key_ids key id;
                      id)
              | None -> alloc vi)
            v.Objfile.rvars
        in
        (v, map))
      views
  in
  let nvars = !next in
  let vars =
    Array.make nvars
      {
        Objfile.vname = "";
        vkind = Var.Temp;
        vlinkage = Var.Intern;
        vtyp = "";
        vloc = Loc.none;
        vowner = "";
        vdefined = true;
      }
  in
  List.iteri
    (fun i vi -> vars.(nvars - 1 - i) <- vi)
    !out_vars;
  refresh_vars vars unit_maps;
  let statics = ref [] in
  let blocks = Array.make nvars [] in
  let fundefs = ref [] in
  let seen_fun = Hashtbl.create 64 in
  let indirects = ref [] in
  let consts = ref [] in
  let unit_contribs =
    List.map
      (fun ((v : Objfile.view), map) ->
        Array.iter
          (fun p -> statics := remap_prim map p :: !statics)
          v.Objfile.rstatics;
        let unit_prims = ref [] (* reversed; kept for [contribs] only *) in
        for uid = 0 to Objfile.n_vars v - 1 do
          if Objfile.has_block v uid then begin
            let prims = List.map (remap_prim map) (Objfile.read_block v uid) in
            let id = map.(uid) in
            blocks.(id) <- List.rev_append (List.rev prims) blocks.(id);
            if contribs then unit_prims := List.rev_append prims !unit_prims
          end
        done;
        Array.iter
          (fun (f : Objfile.fund_rec) ->
            let id = map.(f.ffvar) in
            if not (Hashtbl.mem seen_fun id) then begin
              Hashtbl.replace seen_fun id ();
              fundefs := remap_fundef map f :: !fundefs
            end)
          v.Objfile.rfundefs;
        Array.iter
          (fun i -> indirects := remap_indirect map i :: !indirects)
          v.Objfile.rindirects;
        List.iter
          (fun (var, c) -> consts := (map.(var), c) :: !consts)
          v.Objfile.rconsts;
        if contribs then contrib_with v map (List.rev !unit_prims)
        else empty_contrib)
      unit_maps
  in
  let db =
    {
      Objfile.vars;
      keys = keys_of_table key_ids;
      statics = List.rev !statics;
      blocks;
      fundefs = List.rev !fundefs;
      indirects = List.rev !indirects;
      consts = List.rev !consts;
      openworld = None;
      tuhash = None;
      meta = meta_of_views views;
    }
  in
  ( db,
    {
      n_units = List.length views;
      n_extern_merged = !merged;
      n_vars_out = nvars;
      n_undefined = 0;
    },
    unit_maps,
    key_ids,
    unit_contribs )

let link_views views : Objfile.db * stats =
  let db, stats, _, _, _ = link_views_full views in
  (db, stats)

(* Publish a stats record into the metrics registry under [link.*]. *)
let publish_stats (s : stats) =
  let set k v = Cla_obs.Metrics.set ("link." ^ k) v in
  set "units" s.n_units;
  set "extern_merged" s.n_extern_merged;
  set "vars_out" s.n_vars_out

(* Apply the incomplete-program policy to a freshly merged database. *)
let apply_policy undefined (db, stats) =
  match undefined with
  | Ignore -> (db, stats)
  | Error -> (
      let r = Openworld.detect db in
      match r.Openworld.undefined with
      | [] -> (db, stats)
      | names ->
          Diag.fail ~phase:Diag.Link
            (Fmt.str "undefined function%s: %s (link with --open-world to \
                      analyze the incomplete program soundly)"
               (if List.length names = 1 then "" else "s")
               (String.concat ", " names)))
  | Open_world ->
      let r = Openworld.detect db in
      let db = Openworld.synthesize db r in
      let n_undefined = List.length r.Openworld.undefined in
      Cla_obs.Metrics.set "link.open_world.undefined" n_undefined;
      Cla_obs.Metrics.set "link.open_world.escaping"
        (List.length r.Openworld.escaping);
      (db, { stats with n_undefined })

(* Shadow the raw implementation with the instrumented entry point. *)
let link_views ?(undefined = Ignore) views =
  Cla_obs.Span.with_span "link"
    ~label:(string_of_int (List.length views) ^ " unit(s)")
    (fun () ->
      let db, stats = apply_policy undefined (link_views views) in
      publish_stats stats;
      (db, stats))

(** Link object files from disk and write the "executable" database. *)
let link_files ?undefined ~output paths =
  let views = List.map Objfile.load paths in
  let db, stats = link_views ?undefined views in
  Objfile.save output db;
  stats

(** Like {!link_files}, surfacing corrupt or unreadable inputs as
    structured diagnostics (bumping [load.corrupt]).  With [keep_going]
    the bad object files are skipped and the rest are linked; without it
    the first failure raises {!Diag.Fail}.  [None] means no input
    survived, in which case no output is written. *)
let link_files_result ?(keep_going = false) ?undefined ~output paths :
    stats option * Diag.t list =
  let c = Diag.collector () in
  let views =
    List.filter_map
      (fun path ->
        match Objfile.load_result path with
        | Ok v -> Some v
        | Error d ->
            Diag.add c d;
            if not keep_going then raise (Diag.Fail d);
            None)
      paths
  in
  let stats =
    if views = [] then None
    else begin
      let db, stats = link_views ?undefined views in
      Objfile.save output db;
      Some stats
    end
  in
  (stats, Diag.to_list c)

(* ------------------------------------------------------------------ *)
(* Delta linking                                                       *)
(* ------------------------------------------------------------------ *)

(** What changed between two consecutive linked databases, in the linked
    id space.  Produced by {!relink}; consumed by the incremental solver
    ({!Andersen.resume}) and the delta tests. *)
type delta = {
  d_old_nvars : int;
  d_new_nvars : int;
  d_changed_units : int;
  d_added_statics : Objfile.prim_rec list;
  d_removed_statics : Objfile.prim_rec list;
  d_added_prims : Objfile.prim_rec list;  (** non-[Paddr], [psrc] mapped *)
  d_removed_prims : Objfile.prim_rec list;
  d_added_fundefs : Objfile.fund_rec list;
  d_removed_fundefs : Objfile.fund_rec list;
  d_added_indirects : Objfile.indir_rec list;
  d_removed_indirects : Objfile.indir_rec list;
  d_full_relink : bool;
      (** the database was rebuilt by a full merge (constraint removal);
          linked ids are NOT stable across this delta *)
}

let delta_is_pure_add d =
  (not d.d_full_relink)
  && d.d_removed_statics = []
  && d.d_removed_prims = []
  && d.d_removed_fundefs = []
  && d.d_removed_indirects = []

let delta_size_added d =
  List.length d.d_added_statics + List.length d.d_added_prims
  + List.length d.d_added_fundefs
  + List.length d.d_added_indirects

let delta_size_removed d =
  List.length d.d_removed_statics + List.length d.d_removed_prims
  + List.length d.d_removed_fundefs
  + List.length d.d_removed_indirects

type unit_entry = {
  ue_name : string;
  mutable ue_hash : string option;  (** the unit's [rtuhash], if any *)
  mutable ue_view : Objfile.view;
  mutable ue_map : int array;  (** uid → linked id *)
  mutable ue_contrib : contrib;  (** the unit's records under [ue_map] *)
}

(** Persistent linker state for delta mode: the unit set with its uid →
    linked-id maps, the canonical-key table, and the current linked
    database, its encoder columns and its view.  Only the closed-world
    [Ignore] policy is supported — open-world havoc synthesis rewrites
    the whole database and would defeat id stability (callers wanting
    [--open-world] must re-link fully). *)
type state = {
  mutable s_key_ids : int Key_tbl.t;
  mutable s_units : unit_entry list;  (** in link order *)
  mutable s_next : int;  (** next fresh linked id *)
  mutable s_db : Objfile.db;
  mutable s_cols : Objfile.columns;  (** [s_db] numbered *)
  mutable s_view : Objfile.view;
}

let state_view st = st.s_view

(* Make [db] the state's database and encode it.  With [patched] the
   columns of the last relink are kept for the records [db] shares with
   the last database, and only the rest is numbered. *)
let set_db st ~patched db =
  Cla_obs.Span.with_span "link.encode" (fun () ->
      let old = if patched then Some (st.s_cols, st.s_db) else None in
      let cols = Objfile.number ?old db in
      st.s_db <- db;
      st.s_cols <- cols;
      st.s_view <- Objfile.emit cols db)

(* Multiset diff of two record lists under a key [key] (location fields
   are excluded from identities — a line-number shift is not a semantic
   change).  Returns (added, removed) with records drawn from the
   respective sides, each in its side's order; a surplus key is removed
   by its first occurrences. *)
let multiset_diff (type k) (module T : Hashtbl.S with type key = k)
    ~(key : 'a -> k) (old_l : 'a list) (new_l : 'a list) =
  match (old_l, new_l) with
  | [], _ -> (new_l, [])
  | _, [] -> ([], old_l)
  | _ ->
      let counts = T.create 64 in
      List.iter
        (fun x ->
          let k = key x in
          match T.find_opt counts k with
          | Some n -> incr n
          | None -> T.add counts k (ref 1))
        old_l;
      (* take one old record of [x]'s key off the counts, if one is left *)
      let take x =
        match T.find_opt counts (key x) with
        | Some n when !n > 0 ->
            decr n;
            true
        | _ -> false
      in
      let added = List.filter (fun x -> not (take x)) new_l in
      (* the old records left over are the removed ones *)
      let removed = List.filter take old_l in
      (added, removed)

module Int_tbl = Hashtbl.Make (Int)

module Ints_tbl = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) b = Array.length a = Array.length b && Array.for_all2 Int.equal a b
  let hash (a : t) = Hashtbl.hash a
end)

(* Record identities packed into ints.  Linked ids stay far below 2^29
   (a variable record alone takes tens of bytes), so the fields never
   overlap. *)
let static_key (p : Objfile.prim_rec) = (p.Objfile.pdst lsl 31) lor p.Objfile.psrc

let prim_key (p : Objfile.prim_rec) =
  let kind =
    match p.Objfile.pkind with
    | Objfile.Pcopy -> 0
    | Paddr -> 1
    | Pstore -> 2
    | Pderef2 -> 3
    | Pload -> 4
  in
  (p.Objfile.pdst lsl 32) lor (p.Objfile.psrc lsl 3) lor kind

let fund_key (f : Objfile.fund_rec) =
  Array.append [| f.Objfile.ffvar; f.Objfile.farity; f.Objfile.fret |] f.Objfile.fargs

let indir_key (i : Objfile.indir_rec) =
  Array.append [| i.Objfile.iptr; i.Objfile.inargs; i.Objfile.iret |] i.Objfile.iargs

(** Re-link after some units changed.  Units are matched to the previous
    set by name; a unit whose [rtuhash] is unchanged is not even
    diffed, and a changed one is diffed against the contribution kept
    from the last relink.  When every change is an addition, the new
    database is built by {e patching} the previous one — old linked ids
    are stable, old section lists survive as exact prefixes (the
    solver's positional caches depend on this) — and the returned delta
    is "pure add".  Any constraint removal falls back to a full merge
    (ids reassigned, [d_full_relink] set), which the solver answers with
    a from-scratch solve.  Publishes [link.delta.*] metrics. *)
let relink (st : state) (units : (string * Objfile.view) list) : delta =
  Cla_obs.Span.with_span "link" ~label:"delta" (fun () ->
  let old_nvars = Array.length st.s_db.Objfile.vars in
  let old_by_name = Hashtbl.create 16 in
  List.iter (fun ue -> Hashtbl.replace old_by_name ue.ue_name ue) st.s_units;
  (* tentative fresh-id allocations: committed only on the patch path *)
  let next = ref st.s_next in
  let new_keys = Key_tbl.create 16 in
  let new_vars = ref [] (* reversed *) in
  let alloc vi =
    let id = !next in
    incr next;
    new_vars := vi :: !new_vars;
    id
  in
  let key_id key vi =
    match Key_tbl.find_opt st.s_key_ids key with
    | Some id -> id
    | None -> (
        match Key_tbl.find_opt new_keys key with
        | Some id -> id
        | None ->
            let id = alloc vi in
            Key_tbl.replace new_keys key id;
            id)
  in
  (* The stable-id map for a changed unit: keyed (extern) objects resolve
     through the canonical-key table exactly as before; an unkeyed object
     keeps its old linked id iff the same uid held an identical-identity
     unkeyed object in the old unit (append-only edits always satisfy
     this); anything else gets a fresh id. *)
  let map_for (v : Objfile.view) (old : unit_entry option) : int array =
    let keys = unit_keys v in
    let old_keys =
      match old with Some ue -> unit_keys ue.ue_view | None -> [||]
    in
    Array.mapi
      (fun uid (vi : Objfile.varinfo) ->
        match keys.(uid) with
        | Some key -> key_id key vi
        | None -> (
            match old with
            | Some ue when uid < Array.length old_keys && old_keys.(uid) = None ->
                let ovi = ue.ue_view.Objfile.rvars.(uid) in
                if
                  String.equal ovi.Objfile.vname vi.Objfile.vname
                  && ovi.Objfile.vkind = vi.Objfile.vkind
                  && String.equal ovi.Objfile.vowner vi.Objfile.vowner
                then ue.ue_map.(uid)
                else alloc vi
            | _ -> alloc vi))
      v.Objfile.rvars
  in
  let changed = ref 0 in
  let add_st = ref [] and rem_st = ref [] in
  let add_pr = ref [] and rem_pr = ref [] in
  let add_fn = ref [] and rem_fn = ref [] in
  let add_in = ref [] and rem_in = ref [] in
  let accum oldc newc =
    let diff tbl ~key old_l new_l acc_add acc_rem =
      let a, r = multiset_diff tbl ~key old_l new_l in
      acc_add := a @ !acc_add;
      acc_rem := r @ !acc_rem
    in
    diff (module Int_tbl) ~key:static_key oldc.c_statics newc.c_statics add_st rem_st;
    diff (module Int_tbl) ~key:prim_key oldc.c_prims newc.c_prims add_pr rem_pr;
    diff (module Ints_tbl) ~key:fund_key oldc.c_fundefs newc.c_fundefs add_fn rem_fn;
    diff (module Ints_tbl) ~key:indir_key oldc.c_indirects newc.c_indirects add_in rem_in
  in
  let new_entries =
    List.map
      (fun (name, v) ->
        let old = Hashtbl.find_opt old_by_name name in
        if old <> None then Hashtbl.remove old_by_name name;
        let hash = v.Objfile.rtuhash in
        match old with
        | Some ue when hash <> None && ue.ue_hash = hash ->
            ue (* unchanged: same hash, not even diffed *)
        | _ -> (
            incr changed;
            let map = map_for v old in
            let newc = contrib_of v map in
            match old with
            | Some ue ->
                accum ue.ue_contrib newc;
                ue.ue_hash <- hash;
                ue.ue_view <- v;
                ue.ue_map <- map;
                ue.ue_contrib <- newc;
                ue
            | None ->
                accum empty_contrib newc;
                { ue_name = name; ue_hash = hash; ue_view = v; ue_map = map; ue_contrib = newc }))
      units
  in
  (* units dropped from the set: their whole contribution is removed *)
  Hashtbl.iter
    (fun _ ue ->
      incr changed;
      accum ue.ue_contrib empty_contrib)
    old_by_name;
  let has_removals =
    !rem_st <> [] || !rem_pr <> [] || !rem_fn <> [] || !rem_in <> []
  in
  let added_prims = List.rev !add_pr in
  (* the FUNDEFs a patch appends: the first of a function stands, as in
     the full merge, and the delta reports only those *)
  let added_fundefs =
    let seen_fun = Hashtbl.create 64 in
    List.iter
      (fun (f : Objfile.fund_rec) ->
        Hashtbl.replace seen_fun f.Objfile.ffvar ())
      st.s_db.Objfile.fundefs;
    List.filter
      (fun (f : Objfile.fund_rec) ->
        if Hashtbl.mem seen_fun f.Objfile.ffvar then false
        else begin
          Hashtbl.replace seen_fun f.Objfile.ffvar ();
          true
        end)
      (List.rev !add_fn)
  in
  if not has_removals then begin
    (* Patch path: append-only.  Old ids, old list prefixes, and old
       block order all survive — the solver resumes on top of them. *)
    st.s_next <- !next;
    Key_tbl.iter (fun k id -> Key_tbl.replace st.s_key_ids k id) new_keys;
    let nvars = !next in
    let fresh = Array.of_list (List.rev !new_vars) in
    let vars =
      Array.init nvars (fun id ->
          if id < old_nvars then st.s_db.Objfile.vars.(id)
          else fresh.(id - old_nvars))
    in
    refresh_vars vars
      (List.map (fun ue -> (ue.ue_view, ue.ue_map)) new_entries);
    let blocks = Array.make nvars [] in
    Array.blit st.s_db.Objfile.blocks 0 blocks 0 old_nvars;
    (* each source's added records, appended in [!add_pr] order *)
    let tails = Array.make nvars [] in
    List.iter
      (fun (p : Objfile.prim_rec) ->
        let src = p.Objfile.psrc in
        tails.(src) <- p :: tails.(src))
      added_prims;
    List.iter
      (fun (p : Objfile.prim_rec) ->
        let src = p.Objfile.psrc in
        if tails.(src) <> [] then begin
          blocks.(src) <- blocks.(src) @ tails.(src);
          tails.(src) <- []
        end)
      added_prims;
    let consts = ref [] in
    List.iter
      (fun ue ->
        List.iter
          (fun (var, c) -> consts := (ue.ue_map.(var), c) :: !consts)
          ue.ue_view.Objfile.rconsts)
      new_entries;
    let db =
      {
        Objfile.vars;
        keys =
          (* no new key: the table and so its fold order are unchanged *)
          (if Key_tbl.length new_keys = 0 then st.s_db.Objfile.keys
           else keys_of_table st.s_key_ids);
        statics = st.s_db.Objfile.statics @ List.rev !add_st;
        blocks;
        fundefs = st.s_db.Objfile.fundefs @ added_fundefs;
        indirects = st.s_db.Objfile.indirects @ List.rev !add_in;
        consts = List.rev !consts;
        openworld = None;
        tuhash = None;
        meta = meta_of_views (List.map (fun ue -> ue.ue_view) new_entries);
      }
    in
    set_db st ~patched:true db;
    st.s_units <- new_entries
  end
  else begin
    (* Removal: rebuild by full merge.  Ids are reassigned; the caller's
       solver must start from scratch (d_full_relink tells it so). *)
    let views = List.map snd units in
    let db, _stats, maps, key_ids, contribs =
      link_views_full ~contribs:true views
    in
    st.s_key_ids <- key_ids;
    st.s_next <- Array.length db.Objfile.vars;
    st.s_units <-
      List.map2
        (fun ((name, v), (_, map)) ue_contrib ->
          { ue_name = name; ue_hash = v.Objfile.rtuhash; ue_view = v; ue_map = map;
            ue_contrib })
        (List.combine units maps) contribs;
    set_db st ~patched:false db
  end;
  let d =
    {
      d_old_nvars = old_nvars;
      d_new_nvars = Array.length st.s_db.Objfile.vars;
      d_changed_units = !changed;
      d_added_statics = List.rev !add_st;
      d_removed_statics = List.rev !rem_st;
      d_added_prims = added_prims;
      d_removed_prims = List.rev !rem_pr;
      d_added_fundefs = (if has_removals then List.rev !add_fn else added_fundefs);
      d_removed_fundefs = List.rev !rem_fn;
      d_added_indirects = List.rev !add_in;
      d_removed_indirects = List.rev !rem_in;
      d_full_relink = has_removals;
    }
  in
  Cla_obs.Metrics.set "link.delta.units_changed" d.d_changed_units;
  Cla_obs.Metrics.set "link.delta.added" (delta_size_added d);
  Cla_obs.Metrics.set "link.delta.removed" (delta_size_removed d);
  Cla_obs.Metrics.set "link.delta.pure" (if delta_is_pure_add d then 1 else 0);
  if d.d_full_relink then Cla_obs.Metrics.incr "link.delta.full_relinks";
  Cla_obs.Metrics.set "link.units" (List.length units);
  Cla_obs.Metrics.set "link.vars_out" d.d_new_nvars;
  d)

(** Fresh delta-linker state over an initial unit set: (name, unit view)
    pairs, names unique.  The first delta is everything-added. *)
let state_create (units : (string * Objfile.view) list) : state * delta =
  let cols = Objfile.number Objfile.empty in
  let st =
    {
      s_key_ids = Key_tbl.create 1024;
      s_units = [];
      s_next = 0;
      s_db = Objfile.empty;
      s_cols = cols;
      s_view = Objfile.emit cols Objfile.empty;
    }
  in
  let d = relink st units in
  (st, d)
