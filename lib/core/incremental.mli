(** The incremental compile–link–analyze driver: persistent pipeline
    state that absorbs source edits.

    {!create} compiles, links and solves a source set from scratch while
    keeping the three pieces of reusable state: the per-unit compile
    cache, the delta linker ({!Linkp.state}) and the solver's iteration
    state ({!Andersen.t}).  The compile cache is keyed in direct mode:
    per file, the raw source of its last compile, that source's
    {!Compilep.direct_key} and the include manifest the compile
    recorded.  Each {!update} probes a unit by comparing its source with
    the cached one (digesting it only when the text differs) and
    replaying the manifest's lookups ({!Compilep.manifest_holds}) — no
    preprocessor run — and skips it on a match ([compile.cache.hits]); a
    miss compiles it once.  It then
    patches the linked view ({!Linkp.relink}) and — on a pure-add
    constraint delta — resumes the solver ({!Andersen.resume}) instead
    of re-solving.  Any delta the resume cannot handle soundly falls
    back to a from-scratch solve behind [pretrans.delta.fallbacks].  An
    update in which nothing missed and the unit set is unchanged
    returns early, before the relink.

    Soundness invariant: after every {!update}, {!solution} is
    {!Solution.equal} to a from-scratch solve of the same sources —
    incrementality changes the wall-clock, never the answer. *)

type t

(** Per-{!update} accounting, for callers that report or gate on the
    incremental path being taken. *)
type stats = {
  sources : int;  (** units in the set *)
  cache_hits : int;  (** units reused via the direct-mode probe *)
  cache_misses : int;  (** units recompiled *)
  relinked : bool;
      (** [false] when nothing changed: the update returned before the
          relink, and the solution is the one already held *)
  resumed : bool;  (** solver resumed (vs from-scratch fallback) *)
  delta_pure : bool;  (** link delta was pure-add with stable ids *)
  delta_added : int;  (** added constraints across sections *)
  delta_removed : int;
  wall_compile_s : float;
      (** the probe of every unit {e and} the compile of each unit that
          missed (on a one-file edit the compile is most of it); the
          span [incr.probe] *)
  wall_link_s : float;  (** the delta relink; the span [incr.relink] *)
  wall_solve_s : float;
      (** the resume, or the from-scratch solve it fell back to; the span
          [incr.resume] *)
}

(** [create ?options ?units sources] — full build of
    [(file, source)] pairs (file names unique; they key the compile
    cache and the delta linker's unit matching).  [units] are pre-compiled unit views
    (e.g. [.clo] files the caller loads and revalidates itself —
    {!Loader.load_file_cached}) linked after the compiled sources; they
    bypass the compile cache and its hit/miss counters.  With a
    non-default [drop_bodies] the compile cache disables itself (the
    predicate cannot be content-hashed). *)
val create :
  ?options:Compilep.options ->
  ?units:(string * Objfile.view) list ->
  (string * string) list ->
  t * stats

(** Re-sync to an edited source set.  Files absent from [sources] (and
    [units]) are unlinked (a removal — the solver falls back to
    scratch); new files are compiled and linked in; everything else is
    probed in direct mode.  Records the spans [incr.probe],
    [incr.relink] and [incr.resume] under [incremental.update] (the
    last two only when the update relinks).  [units] follow {!create}'s contract; one
    counts as unchanged when it is the same view as last time or
    carries the same TU hash. *)
val update : t -> ?units:(string * Objfile.view) list -> (string * string) list -> stats

(** The current points-to solution, indexed by the current linked
    view's variable ids. *)
val solution : t -> Solution.t

(** The full solver result behind {!solution}. *)
val result : t -> Andersen.result

(** The current linked view. *)
val view : t -> Objfile.view
