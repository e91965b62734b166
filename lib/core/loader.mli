(** Demand loader over a linked object-file view (the analyze phase's I/O
    layer, Section 4).

    The static section is always loaded; dynamic blocks are decoded only
    when the analysis asks, and decoded records may be discarded and
    re-read later.  The loader keeps Table 3's accounting: assignments
    loaded, assignments retained in core, assignments in the file.

    With [~budget], retention is bounded: blocks holding retained
    assignments are tracked in LRU order and discarded — with an
    [on_evict] notification — whenever a [retain] would push the in-core
    total past the budget.  The analysis re-loads discarded blocks on
    demand (the paper's discard-and-re-load strategy, Section 6). *)

type t

(** [create ?budget view].  [budget] is the maximum number of retained
    assignments kept in core; omitted means unbounded (the seed
    behavior).  A budget smaller than a single block's retention cannot
    be honored — the lone block is never evicted mid-retention. *)
val create : ?budget:int -> Objfile.view -> t

(** Install the callback invoked with a block's object id when its
    retained assignments are discarded to stay within the budget. *)
val set_on_evict : t -> (int -> unit) -> unit

val budget : t -> int option

(** [true] while the block of [src] holds retained assignments (retained
    and not evicted since). *)
val is_retained : t -> int -> bool

(** The address-of assignments — always read, counted as loaded. *)
val statics : t -> Objfile.prim_rec array

(** Decode the dynamic block of a variable (the assignments in which it is
    the source).  Each call re-reads the underlying bytes; repeat calls
    count as re-loads (the load-and-throw-away strategy). *)
val block : t -> int -> Objfile.prim_rec list

(** Record that [n] decoded assignments of the block of [src] are being
    kept in memory (complex assignments are retained; [x = y] and
    [x = &y] are discarded after use, Section 6).  May evict
    least-recently-used blocks — never [src] itself — to honor the
    budget. *)
val retain : t -> src:int -> int -> unit

type stats = {
  s_in_core : int;  (** assignments retained in memory *)
  s_loaded : int;  (** assignments decoded from the file *)
  s_in_file : int;  (** total assignments in the database *)
  s_reloads : int;  (** blocks decoded again after a discard *)
  s_evictions : int;  (** blocks discarded to stay within the budget *)
}

val stats : t -> stats

(** Publish a stats record into the metrics registry (default
    {!Cla_obs.Metrics.default}) under [load.blocks.*] — Table 3's
    block-residency accounting — plus [load.evictions]. *)
val publish_stats : ?reg:Cla_obs.Metrics.t -> stats -> unit

(** Like {!Objfile.load_result} through a process-wide path-keyed cache.
    Every probe revalidates the cached view against the file's current
    (size, mtime): an untouched file is served from memory and counted
    in [load.revalidations]; a rewritten file is reloaded and the entry
    replaced.  Thread-safe.  This is the object-file side of the watch /
    incremental path ([cla serve --watch]). *)
val load_file_cached : string -> (Objfile.view, Diag.t) result

(** Operations through which points-to information survives ([+], [-],
    casts, [?:]); everything else is skipped by the points-to loader
    ("non-pointer arithmetic assignments are usually ignored"). *)
val pointer_relevant_op : string -> bool

val relevant_to_points_to : Objfile.prim_rec -> bool
