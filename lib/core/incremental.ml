(** The incremental compile–link–analyze driver.

    Holds the three persistent states of the pipeline — the per-unit
    compile cache (file -> direct-mode key, include manifest and
    compiled unit view), the delta linker ({!Linkp.state}), and the
    solver's iteration state ({!Andersen.t}) — and threads an edited
    source set through all three:

    - unchanged units are detected in direct mode — the raw source
      compared with the one last compiled (digested to its
      {!Compilep.direct_key} only when it differs) plus a replay of the
      unit's include manifest ({!Compilep.manifest_holds}), one digest
      per include, no preprocessor run — and reused,
      counted in [compile.cache.hits]/[compile.cache.misses]; a miss
      compiles once, recording the new manifest;
    - an update in which no unit missed and the unit set is unchanged
      returns early: no relink, no solve;
    - the delta linker patches the linked view in place of a full
      re-merge when it can ({!Linkp.relink});
    - a pure-add constraint delta is absorbed by {!Andersen.resume} —
      surviving reachability memos and difference-propagation state do
      most of the work — and anything else falls back to a from-scratch
      solve behind the [pretrans.delta.fallbacks] counter.

    The invariant the whole chain maintains: after every {!update}, the
    held solution equals a from-scratch
    compile-link-{!Andersen.solve} of the same sources
    ({!Solution.equal}); the incremental path only changes how fast it
    is computed. *)

let now = Cla_resilience.Deadline.now_s

(* A compiled unit as the cache holds it. *)
type entry = {
  source : string;  (* the raw source it was built from ... *)
  key : string;  (* ... and its Compilep.direct_key *)
  manifest : Cla_cfront.Cpp.manifest;  (* that build's include lookups *)
  uview : Objfile.view;
}

type t = {
  options : Compilep.options;
  units : (string, entry) Hashtbl.t;  (* file -> entry *)
  lstate : Linkp.state;
  mutable linked : (string * Objfile.view) list;  (* last linked unit set *)
  mutable solver : Andersen.t;
  mutable result : Andersen.result;
}

type stats = {
  sources : int;
  cache_hits : int;
  cache_misses : int;
  relinked : bool;
  resumed : bool;
  delta_pure : bool;
  delta_added : int;
  delta_removed : int;
  wall_compile_s : float;
  wall_link_s : float;
  wall_solve_s : float;
}

(* [drop_bodies] is a function and cannot be part of the key (see
   {!Compilep.direct_key}); a non-default one disables unit reuse. *)
let cacheable options =
  options.Compilep.drop_bodies == Compilep.default_options.Compilep.drop_bodies

let compile_unit ~options file src =
  let db, manifest = Compilep.compile_recorded ~options ~file src in
  {
    source = src;
    key = Compilep.direct_key ~options ~file src;
    manifest;
    uview = Objfile.encode db;
  }

(* The unit set is the one last linked: same names in the same order,
   each view the same or carrying the same TU hash — exactly the units
   {!Linkp.relink} would skip. *)
let same_units a b =
  List.equal
    (fun (f, (v : Objfile.view)) (f', (v' : Objfile.view)) ->
      String.equal f f'
      && (v == v'
         || Option.is_some v.Objfile.rtuhash
            && Option.equal String.equal v.Objfile.rtuhash
                 v'.Objfile.rtuhash))
    a b

let solution t = t.result.Andersen.solution
let result t = t.result
let view t = Linkp.state_view t.lstate

let create ?(options = Compilep.default_options) ?(units = []) sources =
  let t0 = now () in
  let tbl = Hashtbl.create 64 in
  let compiled =
    List.map
      (fun (file, src) ->
        Cla_obs.Metrics.incr "compile.cache.misses";
        let e = compile_unit ~options file src in
        Hashtbl.replace tbl file e;
        (file, e.uview))
      sources
  in
  let t1 = now () in
  let linked = compiled @ units in
  let lstate, delta = Linkp.state_create linked in
  let lview = Linkp.state_view lstate in
  let t2 = now () in
  let solver, result = Andersen.solve_state lview in
  let t3 = now () in
  ( { options; units = tbl; lstate; linked; solver; result },
    {
      sources = List.length sources + List.length units;
      cache_hits = 0;
      cache_misses = List.length sources;
      relinked = true;
      resumed = false;
      delta_pure = Linkp.delta_is_pure_add delta;
      delta_added = Linkp.delta_size_added delta;
      delta_removed = Linkp.delta_size_removed delta;
      wall_compile_s = t1 -. t0;
      wall_link_s = t2 -. t1;
      wall_solve_s = t3 -. t2;
    } )

(* Relink [linked] and bring the solution up to date: resume on the
   delta, or re-solve from scratch when the resume declines.  Returns
   the delta, whether it resumed, and the link and solve walls. *)
let relink_and_solve t linked =
  let t0 = now () in
  let delta =
    Cla_obs.Span.with_span "incr.relink" (fun () -> Linkp.relink t.lstate linked)
  in
  t.linked <- linked;
  let lview = Linkp.state_view t.lstate in
  let t1 = now () in
  let resumed, result =
    Cla_obs.Span.with_span "incr.resume" @@ fun () ->
    match Andersen.resume t.solver ~view:lview ~delta with
    | Some r -> (true, r)
    | None ->
        (* resume declined (removal, full relink, ...) and bumped
           [pretrans.delta.fallbacks]; re-solve from scratch over the
           relinked view *)
        let solver, r = Andersen.solve_state lview in
        t.solver <- solver;
        (false, r)
  in
  t.result <- result;
  (delta, resumed, t1 -. t0, now () -. t1)

let update t ?(units = []) sources =
  Cla_obs.Span.with_span "incremental.update" @@ fun () ->
  Cla_obs.Metrics.incr "incremental.updates";
  let t0 = now () in
  let hits = ref 0 and misses = ref 0 in
  (* the source compiled last time, or failing that its digest *)
  let same_source e file src =
    String.equal e.source src
    || String.equal e.key (Compilep.direct_key ~options:t.options ~file src)
  in
  let compiled =
    Cla_obs.Span.with_span "incr.probe" @@ fun () ->
    List.map
      (fun (file, src) ->
        let reuse =
          if not (cacheable t.options) then None
          else
            match Hashtbl.find_opt t.units file with
            | Some e
              when same_source e file src
                   && Compilep.manifest_holds ~options:t.options e.manifest ->
                Some e.uview
            | _ -> None
        in
        match reuse with
        | Some uview ->
            incr hits;
            Cla_obs.Metrics.incr "compile.cache.hits";
            (file, uview)
        | None ->
            incr misses;
            Cla_obs.Metrics.incr "compile.cache.misses";
            let e = compile_unit ~options:t.options file src in
            Hashtbl.replace t.units file e;
            (file, e.uview))
      sources
  in
  (* forget cache entries for files no longer in the source set *)
  let present = Hashtbl.create 64 in
  List.iter (fun (file, _) -> Hashtbl.replace present file ()) compiled;
  let stale =
    Hashtbl.fold
      (fun file _ acc -> if Hashtbl.mem present file then acc else file :: acc)
      t.units []
  in
  List.iter (Hashtbl.remove t.units) stale;
  let linked = compiled @ units in
  let unchanged =
    {
      sources = List.length linked;
      cache_hits = !hits;
      cache_misses = !misses;
      relinked = false;
      resumed = false;
      delta_pure = true;
      delta_added = 0;
      delta_removed = 0;
      wall_compile_s = now () -. t0;
      wall_link_s = 0.;
      wall_solve_s = 0.;
    }
  in
  if !misses = 0 && same_units linked t.linked then unchanged
  else
    let delta, resumed, wall_link_s, wall_solve_s =
      relink_and_solve t linked
    in
    {
      unchanged with
      relinked = true;
      resumed;
      delta_pure = Linkp.delta_is_pure_add delta;
      delta_added = Linkp.delta_size_added delta;
      delta_removed = Linkp.delta_size_removed delta;
      wall_link_s;
      wall_solve_s;
    }
