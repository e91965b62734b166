(** The CLA link phase: merge object files into one database, linking
    global symbols and recomputing the indexes (Section 4). *)

type stats = {
  n_units : int;
  n_extern_merged : int;  (** extern symbol occurrences unified away *)
  n_vars_out : int;
  n_undefined : int;  (** declared-but-undefined functions detected *)
}

(** What to do about declared-but-undefined functions (and never-defined
    extern objects):

    - [Ignore] — the library default: link the fragment as-is, with the
      closed-world under-approximation (tools and tests that analyze
      snippets calling [printf] etc. keep working);
    - [Error] — the strict linker contract ([cla link] without
      [--open-world]): raise {!Diag.Fail} naming the undefined
      functions, which the CLI renders as exit 3 (internal taxonomy:
      the link cannot produce a sound closed-world executable);
    - [Open_world] — [cla link --open-world]: synthesize
      {!Openworld} havoc constraints so the analysis stays sound, attach
      the {!Objfile.ow} summary, and publish the
      [link.open_world.undefined] / [link.open_world.escaping] metrics. *)
type undef_policy = Ignore | Error | Open_world

(** Link several object-file views into a single database.  Extern objects
    with the same canonical key are unified; unit-private objects are
    renumbered; dynamic blocks of merged objects are concatenated; Table 2
    statistics are summed.  Recorded as a ["link"] span and published as
    [link.*] metrics.  [undefined] (default [Ignore]) selects the
    incomplete-program policy. *)
val link_views :
  ?undefined:undef_policy -> Objfile.view list -> Objfile.db * stats

(** Link object files from disk and write the "executable" database
    (which has the same format as the inputs, as in the paper). *)
val link_files :
  ?undefined:undef_policy -> output:string -> string list -> stats

(** Like {!link_files}, surfacing corrupt or unreadable inputs as
    structured diagnostics (bumping [load.corrupt]).  With [keep_going]
    the bad object files are skipped and the rest are linked; without it
    the first failure raises {!Diag.Fail}.  [None] means no input
    survived, in which case no output is written. *)
val link_files_result :
  ?keep_going:bool ->
  ?undefined:undef_policy ->
  output:string ->
  string list ->
  stats option * Diag.t list

(* ------------------------------------------------------------------ *)
(** {1 Delta linking}

    Watch-mode machinery: keep the linker's state alive across edits and
    patch the linked database instead of re-merging the world. *)

(** What changed between two consecutive linked databases, in the linked
    id space.  Location fields are excluded from record identities (a
    pure line-number shift is not a semantic change). *)
type delta = {
  d_old_nvars : int;
  d_new_nvars : int;
  d_changed_units : int;  (** units added, removed, or content-changed *)
  d_added_statics : Objfile.prim_rec list;
  d_removed_statics : Objfile.prim_rec list;
  d_added_prims : Objfile.prim_rec list;
      (** non-[Paddr] dynamic assignments, [psrc]/[pdst] in linked ids *)
  d_removed_prims : Objfile.prim_rec list;
  d_added_fundefs : Objfile.fund_rec list;
  d_removed_fundefs : Objfile.fund_rec list;
  d_added_indirects : Objfile.indir_rec list;
  d_removed_indirects : Objfile.indir_rec list;
  d_full_relink : bool;
      (** the database was rebuilt by a full merge (constraint removal);
          linked ids are NOT stable across this delta *)
}

(** True iff the delta only adds constraints — the precondition for the
    solver's truly-incremental resume.  On a pure-add delta, every old
    linked id is unchanged and every old section list survives as an
    exact prefix of its successor (positional caches stay valid). *)
val delta_is_pure_add : delta -> bool

val delta_size_added : delta -> int
val delta_size_removed : delta -> int

(** Persistent linker state for delta mode.  Only the closed-world
    [Ignore] policy is supported: open-world havoc synthesis rewrites
    the whole database and would defeat id stability. *)
type state

(** The current linked database / view (re-encoded after every
    {!relink}, so block reads see the patched sections). *)
val state_view : state -> Objfile.view

(** Fresh delta-linker state over an initial unit set — (name, per-unit
    view) pairs, names unique.  The returned delta is everything-added. *)
val state_create : (string * Objfile.view) list -> state * delta

(** Re-link after some units changed.  Units are matched to the previous
    set by name; a unit whose {!Objfile.view.rtuhash} is unchanged is
    not even diffed, and a changed one is diffed against the records it
    contributed at the last relink (kept, in linked ids, from then).  When every change is an addition the database is
    patched in place (old ids stable, old lists as prefixes) and the
    delta is pure-add; any removal falls back to a full merge with
    [d_full_relink] set.  Publishes [link.delta.*] metrics. *)
val relink : state -> (string * Objfile.view) list -> delta
