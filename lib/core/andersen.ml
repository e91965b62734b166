(** Andersen's analysis over the pre-transitive graph, with demand-driven
    loading from the CLA database — the paper's headline configuration
    (Sections 4 and 5).

    The driver implements Figure 5's Iteration Algorithm.  Blocks of the
    dynamic section are loaded when their owner's points-to set may become
    non-empty ("the points-to set for [q] is now non-empty, and so we must
    load all primitive assignments where [q] is the source"); [x = y] and
    [x = &y] records are discarded after their edge is inserted, complex
    assignments are kept in core (Section 6's discard strategy).  Indirect
    calls are linked at analysis time: when a function [g] enters the
    points-to set of a called pointer [f], we add [g@i = f@i] and
    [f@ret = g@ret]. *)

(** A retained complex assignment.  [Store]: for each [&z] in
    [getLvals(cptr)] add edge [z -> cother]; [Load]: for each [&z] add
    edge [cother -> z] ([cother] is the deref node [n_*y]).  [cseen]
    remembers the set processed last pass — sets grow monotonically, so
    only the delta needs new edges.  [corigin] is the block the record
    was decoded from: when the loader evicts that block to stay within
    its budget, the complex is dropped from core and re-created when the
    block is re-loaded. *)
type ckind = Kstore | Kload

type complex = {
  ckind : ckind;
  cptr : int;
  cother : int;
  corigin : int;
  mutable cseen : Lvalset.t;
}

type t = {
  g : Pretrans.t;
  mutable loader : Loader.t;  (* replaced wholesale by [resume] *)
  mutable view : Objfile.view;
  demand : bool;
  mutable active : Bytes.t;  (* per var: block requested *)
  mutable complexes : complex list;
  mutable n_complex : int;
  deref_nodes : (int, int) Hashtbl.t;  (* y -> n_*y *)
  deref2_tnodes : (int * int, int) Hashtbl.t;
      (* (dst, src) -> the split node of *dst = *src; memoized so a
         re-load of the block reuses the node instead of growing the
         graph *)
  fundef_by_var : (int, Objfile.fund_rec) Hashtbl.t;
  linked : Edgeset.t;  (* indirect idx -> func vars linked through it *)
  mutable passes : int;
  retained_by_block : (int, Objfile.prim_rec list) Hashtbl.t;
      (* the complex assignments kept in core (Section 6's discard
         strategy), grouped by origin block so eviction can drop a
         block's records — flattened into [result.retained] for the
         dependence analysis *)
  mutable linked_copies : (int * int * Cla_ir.Loc.t) list;
      (* analysis-time copies (dst, src) from indirect-call linking *)
  mutable iseen : Lvalset.t array;
      (* per indirect record: lvals already linked; [resume] extends it —
         the delta linker keeps the old indirect list as an exact prefix,
         so the positions stay meaningful *)
  mutable var_node : int array;
      (* var id -> graph node.  [[||]] means identity — the common case,
         where node ids [0 .. nvars-1] ARE the variable ids.  After a
         [resume] grows the variable space, new vars would collide with
         the deref/split nodes allocated past the old [nvars], so they
         are mapped through fresh nodes here instead.  Locations (base
         elements, lval-set members, [active] indices, [Solution]
         indices) always stay raw var ids — only node positions map. *)
  mutable seed_log : int list ref option;
      (* when set (through a whole resume: delta application and every
         resumed pass), every structural change — a fresh edge's origin,
         a base addition's node — is logged as a seed for
         [Pretrans.invalidate_reaching], and [pass] keeps the memos *)
  mutable pass_log : pass_stats list;
      (* per-pass convergence counters, reverse order *)
  mutable pending_evict : int list;
      (* blocks the loader evicted since the last pass boundary; their
         complexes are dropped at the end of the pass (after the pass's
         iteration snapshot has processed them) and re-loaded at the
         start of the next one *)
  evicted : (int, unit) Hashtbl.t;
      (* blocks whose complexes are currently out of core *)
  deadline : Cla_resilience.Deadline.t;
  cancel : Cla_resilience.Cancel.t option;
  t_start : float;  (* monotonic start, for abort progress reports *)
}

(* Convergence counters for one pass of Figure 5's loop — the visible
   shape of the fixpoint iteration. *)
and pass_stats = {
  ps_pass : int;  (* 1-based pass number *)
  ps_edges_added : int;
  ps_lvals_discovered : int;  (* new lvals fed to difference propagation *)
  ps_unified : int;
  ps_queries : int;
  ps_changed : bool;
  ps_wall_s : float;  (* wall-clock time of the pass *)
}

let loader st = st.loader
let block_active st v = Bytes.get st.active v = '\001'

(* Progress carried by a typed abort: the pass we were in plus the last
   completed pass's convergence line from [pass_log]. *)
let progress st () =
  let detail =
    match st.pass_log with
    | [] -> "before first pass"
    | p :: _ ->
        Fmt.str "pass %d: +%d edges, %d lvals discovered" p.ps_pass
          p.ps_edges_added p.ps_lvals_discovered
  in
  Cla_resilience.Progress.make ~at_pass:st.passes
    ~elapsed_s:(Cla_resilience.Deadline.now_s () -. st.t_start)
    detail

(* Deadline and cancel are polled here at every pass boundary, and — via
   the [Pretrans.set_interrupt] hook installed in [init] — inside the
   [get_lvals] traversal loops.  Both abort points sit where no
   invariant is in flight: the graph, the loader, and the retained
   complexes stay internally consistent, they are simply discarded with
   the state. *)
let check_tokens st =
  let progress = progress st in
  Cla_resilience.Deadline.check ~progress st.deadline;
  Option.iter (Cla_resilience.Cancel.check ~progress) st.cancel

let node_of st v =
  if Array.length st.var_node = 0 then v else st.var_node.(v)

(* Every structural mutation of the graph goes through these funnels so
   that, while a resume runs ([seed_log] set), the affected positions are
   collected as invalidation seeds: a fresh edge [a -> b] grows [pts(a)],
   a new base element grows [pts(x)] — those nodes, and transitively
   everything that can reach them, must drop their reachability memos
   before the next resumed pass may trust the rest.  Outside a resume
   ([seed_log = None]) the funnels are free. *)
let add_edge st a b =
  let fresh = Pretrans.add_edge st.g a b in
  (match st.seed_log with
  | Some l when fresh -> l := a :: !l
  | _ -> ());
  fresh

let add_base st x z =
  Pretrans.add_base st.g x z;
  match st.seed_log with Some l -> l := x :: !l | None -> ()

let deref_node st y =
  match Hashtbl.find_opt st.deref_nodes y with
  | Some d -> d
  | None ->
      let d = Pretrans.fresh_node st.g in
      Hashtbl.replace st.deref_nodes y d;
      d

(* The split node of [*dst = *src] (Section 5 rewrites it into
   [*dst = t; t = *src]).  Memoized per (dst, src) so that re-loading an
   evicted block reuses the node — a re-load must reconstruct exactly
   the constraints of the first load, not grow the graph. *)
let deref2_tnode st dst src =
  match Hashtbl.find_opt st.deref2_tnodes (dst, src) with
  | Some n -> n
  | None ->
      let n = Pretrans.fresh_node st.g in
      Hashtbl.replace st.deref2_tnodes (dst, src) n;
      n

let new_complex st ckind ~ptr ~other ~origin =
  st.complexes <-
    { ckind; cptr = ptr; cother = other; corigin = origin; cseen = Lvalset.empty }
    :: st.complexes;
  st.n_complex <- st.n_complex + 1

(* [load_block] translates block [v] whole; [add_record] is its
   per-record rule, which the delta path also applies to a record added
   to a block that is already resident. *)
let rec activate st v =
  if Bytes.get st.active v = '\000' then begin
    Bytes.set st.active v '\001';
    load_block st v
  end

and load_block st v =
  let kept = List.filter (add_record st) (Loader.block st.loader v) in
  if kept <> [] then Hashtbl.replace st.retained_by_block v kept

(* Turn one dynamic-section record [p] (source [v = p.psrc]) into graph
   constraints.  Returns [true] iff the record is a complex assignment
   kept in core (Section 6's discard strategy); [x = v] is discarded
   once its edge is in. *)
and add_record st (p : Objfile.prim_rec) =
  let v = p.Objfile.psrc and x = p.Objfile.pdst in
  Loader.relevant_to_points_to p
  &&
  match p.Objfile.pkind with
  | Objfile.Paddr -> false (* lives in the static section *)
  | Objfile.Pcopy ->
      (* x = v: edge x -> v, then x's consumers matter too *)
      ignore (add_edge st (node_of st x) (node_of st v));
      activate st x;
      false
  | Objfile.Pload ->
      (* x = *v *)
      let d = deref_node st v in
      ignore (add_edge st (node_of st x) d);
      new_complex st Kload ~ptr:(node_of st v) ~other:d ~origin:v;
      Loader.retain st.loader ~src:v 1;
      activate st x;
      true
  | Objfile.Pstore ->
      (* *x = v *)
      new_complex st Kstore ~ptr:(node_of st x) ~other:(node_of st v) ~origin:v;
      Loader.retain st.loader ~src:v 1;
      true
  | Objfile.Pderef2 ->
      (* *x = *v, split through node t: [*x = t; t = *v] *)
      let tnode = deref2_tnode st x v in
      let d = deref_node st v in
      ignore (add_edge st tnode d);
      new_complex st Kstore ~ptr:(node_of st x) ~other:tnode ~origin:v;
      new_complex st Kload ~ptr:(node_of st v) ~other:d ~origin:v;
      Loader.retain st.loader ~src:v 2;
      true

(* Apply evictions the loader signalled since the last pass boundary:
   drop the evicted blocks' complexes and retained records from core and
   remember to re-load them.  Deferred to pass boundaries so that the
   pass's iteration snapshot — which already contains those complexes —
   stays the authority on what was processed; a block that was retained
   again after its eviction (evict-then-reload inside one boundary) is
   left alone. *)
let apply_evictions st =
  match st.pending_evict with
  | [] -> ()
  | pending ->
      st.pending_evict <- [];
      let dead = Hashtbl.create 16 in
      List.iter
        (fun v ->
          if not (Loader.is_retained st.loader v) then begin
            Hashtbl.replace dead v ();
            Hashtbl.remove st.retained_by_block v;
            Hashtbl.replace st.evicted v ()
          end)
        pending;
      if Hashtbl.length dead > 0 then begin
        st.complexes <-
          List.filter (fun c -> not (Hashtbl.mem dead c.corigin)) st.complexes;
        st.n_complex <- List.length st.complexes
      end

(* Re-load every evicted block before a pass iterates, so the pass again
   sees the complete constraint set — the re-load re-creates the same
   complexes (with a cleared [cseen], so they are re-checked against the
   full current points-to sets) and counts in the loader's re-load and
   eviction accounting.  Returns [true] iff a block came back. *)
let reload_evicted st =
  let vs = Hashtbl.fold (fun v () acc -> v :: acc) st.evicted [] in
  Hashtbl.reset st.evicted;
  List.iter (fun v -> load_block st v) vs;
  vs <> []

(* A record added to a block that was resident before the delta: the
   block will not be re-read, so the record is translated on its own and
   appended to the block's retained list. *)
let inject st (p : Objfile.prim_rec) =
  let v = p.Objfile.psrc in
  if add_record st p then
    Hashtbl.replace st.retained_by_block v
      (Option.value ~default:[] (Hashtbl.find_opt st.retained_by_block v)
      @ [ p ])

(* The steps [init] and [resume] share: register the FUNDEFs that
   indirect-call linking binds through, seed the static section's base
   elements (in demand mode each activates its owner's block), and
   without demand loading read every block from [first_var] on. *)
let add_sections st ~fundefs ~statics ~first_var =
  Objfile.add_fundefs st.fundef_by_var fundefs;
  Seq.iter
    (fun (p : Objfile.prim_rec) ->
      add_base st (node_of st p.Objfile.pdst) p.Objfile.psrc;
      if st.demand then activate st p.Objfile.pdst)
    statics;
  if not st.demand then
    for v = first_var to Objfile.n_vars st.view - 1 do
      Bytes.set st.active v '\001';
      load_block st v
    done

let init ?(config = Pretrans.default_config) ?(demand = true) ?budget
    ?(deadline = Cla_resilience.Deadline.never) ?cancel view =
  let nvars = Objfile.n_vars view in
  let st =
    {
      g = Pretrans.create ~config ~nodes:nvars ();
      loader = Loader.create ?budget view;
      view;
      demand;
      active = Bytes.make (max 1 nvars) '\000';
      complexes = [];
      n_complex = 0;
      deref_nodes = Hashtbl.create 256;
      deref2_tnodes = Hashtbl.create 64;
      fundef_by_var = Hashtbl.create 256;
      linked = Edgeset.create ();
      passes = 0;
      retained_by_block = Hashtbl.create 256;
      linked_copies = [];
      iseen =
        Array.make
          (max 1 (Array.length view.Objfile.rindirects))
          Lvalset.empty;
      var_node = [||];
      seed_log = None;
      pass_log = [];
      pending_evict = [];
      evicted = Hashtbl.create 16;
      deadline;
      cancel;
      t_start = Cla_resilience.Deadline.now_s ();
    }
  in
  if not (Cla_resilience.Deadline.is_never deadline) || cancel <> None then
    Pretrans.set_interrupt st.g (Some (fun () -> check_tokens st));
  Loader.set_on_evict st.loader (fun v ->
      st.pending_evict <- v :: st.pending_evict);
  (* the static section is always loaded *)
  add_sections st
    ~fundefs:(Array.to_seq view.Objfile.rfundefs)
    ~statics:(Array.to_seq (Loader.statics st.loader))
    ~first_var:0;
  apply_evictions st;
  st

(* One pass of Figure 5's iteration algorithm; returns [true] if the graph
   changed.

   A batch pass starts by flushing the reachability memos
   ([Pretrans.new_pass]).  A resumed pass ([seed_log] set) keeps them:
   [resume] has already dropped, with [Pretrans.invalidate_reaching],
   every memo the delta or an earlier resumed pass could have made
   stale, so each surviving memo is exact and the fixpoint test ("a
   pass with no change") stays exact too. *)
let pass st =
  check_tokens st;
  let t0 = Cla_resilience.Deadline.now_s () in
  st.passes <- st.passes + 1;
  Cla_obs.Span.with_span "analyze.pass" ~label:(string_of_int st.passes)
  @@ fun () ->
  (* bounded-memory mode: blocks evicted since the last boundary come
     back first, so every pass checks the complete constraint set — the
     no-change pass that ends the iteration has therefore verified every
     constraint, resident or re-loaded *)
  ignore (reload_evicted st);
  let before = Pretrans.stats st.g in
  if st.seed_log = None then Pretrans.new_pass st.g;
  let changed = ref false in
  let discovered = ref 0 in
  List.iter
    (fun c ->
      let lv = Pretrans.get_lvals st.g c.cptr in
      (* difference propagation: sets grow monotonically, so only the
         lvals not seen by this complex assignment need processing *)
      if Lvalset.cardinal lv > Lvalset.cardinal c.cseen then begin
        (match c.ckind with
        | Kstore ->
            (* for each new &z in getLvals(n_x): add edge n_z -> n_y *)
            Lvalset.iter_diff ~prev:c.cseen lv (fun z ->
                incr discovered;
                if add_edge st (node_of st z) c.cother then begin
                  changed := true;
                  if st.demand then activate st z
                end)
        | Kload ->
            (* for each new &z in getLvals(n_y): add edge n_*y -> n_z *)
            Lvalset.iter_diff ~prev:c.cseen lv (fun z ->
                incr discovered;
                if add_edge st c.cother (node_of st z) then changed := true));
        c.cseen <- lv
      end)
    st.complexes;
  (* analysis-time linking of indirect calls *)
  Array.iteri
    (fun idx (r : Objfile.indir_rec) ->
      let lv = Pretrans.get_lvals st.g (node_of st r.Objfile.iptr) in
      if Lvalset.cardinal lv > Lvalset.cardinal st.iseen.(idx) then begin
      Lvalset.iter_diff ~prev:st.iseen.(idx) lv
        (fun gv ->
          incr discovered;
          match Hashtbl.find_opt st.fundef_by_var gv with
          | None -> ()
          | Some fd ->
              if Edgeset.add st.linked idx gv then begin
                changed := true;
                Objfile.iter_call_copies fd r (fun ~dst ~src ->
                    ignore (add_edge st (node_of st dst) (node_of st src));
                    st.linked_copies <-
                      (dst, src, r.Objfile.iiloc) :: st.linked_copies;
                    if st.demand then activate st dst)
              end);
      st.iseen.(idx) <- lv
      end)
    st.view.Objfile.rindirects;
  apply_evictions st;
  let after = Pretrans.stats st.g in
  st.pass_log <-
    {
      ps_pass = st.passes;
      ps_edges_added = after.Pretrans.edges - before.Pretrans.edges;
      ps_lvals_discovered = !discovered;
      ps_unified = after.Pretrans.unified - before.Pretrans.unified;
      ps_queries = after.Pretrans.queries - before.Pretrans.queries;
      ps_changed = !changed;
      ps_wall_s = Cla_resilience.Deadline.now_s () -. t0;
    }
    :: st.pass_log;
  !changed

type result = {
  solution : Solution.t;
  passes : int;
  loader_stats : Loader.stats;
  graph_stats : Pretrans.stats;
  pass_log : pass_stats list;
      (** per-pass convergence counters, first pass first *)
  retained : Objfile.prim_rec list;
      (** complex assignments kept in core; input to {!Cla_depend} *)
  linked_copies : (int * int * Cla_ir.Loc.t) list;
      (** analysis-time copies added while linking indirect calls *)
  alloc_bytes : float;
      (** bytes allocated on the OCaml heap over the whole solve
          ([Gc.allocated_bytes] delta) — the allocation-rate metric the
          solver bench divides by query count *)
  extract_recomputed : int;
      (** extraction-sweep queries no memo answered *)
}

(* Publish a result into the metrics registry: [analyze.passes], the
   [analyze.pretrans.*] graph counters, the [load.blocks.*] residency
   counters, and the per-pass convergence series [analyze.pass.*]
   (Figure 5's loop, one entry per pass). *)
let publish_result (r : result) =
  Cla_obs.Metrics.set "analyze.passes" r.passes;
  Cla_obs.Metrics.setf "analyze.alloc_bytes" r.alloc_bytes;
  Cla_obs.Metrics.set "analyze.complex.retained"
    (List.length r.retained);
  Cla_obs.Metrics.set "analyze.indirect.linked_copies"
    (List.length r.linked_copies);
  Cla_obs.Metrics.set "analyze.extract.recomputed" r.extract_recomputed;
  Pretrans.publish_stats r.graph_stats;
  Loader.publish_stats r.loader_stats;
  let series f name =
    Cla_obs.Metrics.set_series ("analyze.pass." ^ name)
      (List.map f r.pass_log)
  in
  series (fun p -> p.ps_edges_added) "edges_added";
  series (fun p -> p.ps_lvals_discovered) "lvals_discovered";
  series (fun p -> p.ps_unified) "unified";
  series (fun p -> p.ps_queries) "queries"

(* Extraction sweep shared by [solve] and [resume]: one [get_lvals] per
   variable of the current view (cheap at the end thanks to cycle
   elimination and caching — the paper's observation in Section 5).  The
   final pass changed nothing, so every memo it leaves is exact and the
   sweep reads them as they stand; only blocks re-loaded here (a
   budgeted loader's evictions) make it start from flushed memos. *)
let extract st a0 : result =
  Cla_obs.Span.with_span "analyze.extract" @@ fun () ->
  (* the extraction sweep below issues one [get_lvals] per variable;
     the interrupt hook keeps it abortable too *)
  check_tokens st;
  (* blocks evicted during the final pass come back so [retained] is
     the complete complex-assignment set (the dependence analysis
     consumes it); blocks this displaces stay in [retained_by_block],
     so the flattened list below misses nothing *)
  if reload_evicted st then Pretrans.new_pass st.g;
  let misses (s : Pretrans.stats) = s.Pretrans.queries - s.Pretrans.cache_hits in
  let before = misses (Pretrans.stats st.g) in
  let nvars = Objfile.n_vars st.view in
  let pts = Array.init nvars (fun v -> Pretrans.get_lvals st.g (node_of st v)) in
  let graph_stats = Pretrans.stats st.g in
  {
    solution = Solution.create st.view pts;
    passes = st.passes;
    loader_stats = Loader.stats st.loader;
    graph_stats;
    pass_log = List.rev st.pass_log;
    retained =
      Hashtbl.fold
        (fun _ prims acc -> List.rev_append prims acc)
        st.retained_by_block [];
    linked_copies = st.linked_copies;
    alloc_bytes = Gc.allocated_bytes () -. a0;
    extract_recomputed = misses graph_stats - before;
  }

(** Run the analysis to fixpoint and extract points-to sets for every
    program variable; also return the iteration state, so a later
    constraint delta can be solved incrementally with {!resume}. *)
let solve_state ?config ?demand ?budget ?deadline ?cancel view :
    t * result =
  Cla_obs.Span.with_span "analyze" @@ fun () ->
  let a0 = Gc.allocated_bytes () in
  let st =
    Cla_obs.Span.with_span "analyze.init" (fun () ->
        init ?config ?demand ?budget ?deadline ?cancel view)
  in
  while pass st do
    ()
  done;
  let r = extract st a0 in
  publish_result r;
  (st, r)

let solve ?config ?demand ?budget ?deadline ?cancel view : result =
  snd (solve_state ?config ?demand ?budget ?deadline ?cancel view)

(* Resume an already-solved state over a pure-add constraint delta —
   the delta-solve path.  The previous fixpoint's graph, complexes,
   [cseen]/[iseen] difference-propagation sets, and (crucially) the
   reachability memos from the final extraction sweep all survive, and
   no resumed pass or extraction flushes them: seed logging stays on for
   the whole resume, and after the delta application and after every
   pass that changed the graph, [Pretrans.invalidate_reaching] drops
   exactly the memos those changes could have made stale.  Only the
   lval-set sharing pool is flushed, once at the start, so a long-lived
   state's pool holds one resume's sets.  Anything the resume cannot
   handle soundly returns [None] — the caller re-solves from scratch —
   behind the [pretrans.delta.fallbacks] counter:

   - a removal or full relink (old memos/edges would over-approximate);
   - a state/view mismatch (the delta was not computed against us);
   - a budgeted loader (evicted blocks would re-load from the OLD view's
     block layout mid-delta);
   - an added FUNDEF for a pre-existing variable: an indirect call's
     [iseen] may already contain that function variable (processed back
     when it had no definition), and difference propagation would never
     look at it again. *)
let resume st ~(view : Objfile.view) ~(delta : Linkp.delta) :
    result option =
  let fallback reason =
    Cla_obs.Metrics.incr "pretrans.delta.fallbacks";
    Cla_obs.Metrics.set_str "pretrans.delta.fallback_reason" reason;
    None
  in
  let old_nvars = delta.Linkp.d_old_nvars in
  if not (Linkp.delta_is_pure_add delta) then
    fallback "removal"
  else if old_nvars <> Objfile.n_vars st.view then fallback "state_mismatch"
  else if Loader.budget st.loader <> None then fallback "budgeted"
  else if
    List.exists
      (fun (f : Objfile.fund_rec) -> f.Objfile.ffvar < old_nvars)
      delta.Linkp.d_added_fundefs
  then fallback "fundef_existing_var"
  else begin
    Cla_obs.Span.with_span "analyze.resume" @@ fun () ->
    let a0 = Gc.allocated_bytes () in
    let new_nvars = delta.Linkp.d_new_nvars in
    (* reverse adjacency must cover the pre-delta edges; from here on
       [add_edge] keeps it current *)
    Pretrans.enable_pred_tracking st.g;
    (* swap in the new view and a loader over it (unbudgeted — checked
       above); the old loader is dropped wholesale *)
    st.view <- view;
    st.loader <- Loader.create view;
    let was_active = st.active in
    let active = Bytes.make (max 1 new_nvars) '\000' in
    Bytes.blit was_active 0 active 0
      (min (Bytes.length was_active) (Bytes.length active));
    st.active <- active;
    (* new vars get fresh graph nodes — their raw ids are already taken
       by the deref/split nodes allocated past the old [nvars] *)
    if Array.length st.var_node = 0 then
      st.var_node <- Array.init old_nvars Fun.id;
    if new_nvars > Array.length st.var_node then begin
      let vn = Array.make new_nvars 0 in
      let n0 = Array.length st.var_node in
      Array.blit st.var_node 0 vn 0 n0;
      for v = n0 to new_nvars - 1 do
        vn.(v) <- Pretrans.fresh_node st.g
      done;
      st.var_node <- vn
    end;
    (* the delta linker appends indirect records, keeping the old list
       as an exact prefix — so [iseen] extends positionally *)
    let n_ind = Array.length view.Objfile.rindirects in
    if n_ind > Array.length st.iseen then begin
      let ni = Array.make (max 1 n_ind) Lvalset.empty in
      Array.blit st.iseen 0 ni 0 (Array.length st.iseen);
      st.iseen <- ni
    end;
    (* the result reports this resume's passes only *)
    st.passes <- 0;
    st.pass_log <- [];
    Pretrans.flush_pool st.g;
    (* seed logging stays on through the delta application and every
       resumed pass: each fresh edge origin and base addition is an
       invalidation seed *)
    let seeds = ref [] and n_seeds = ref 0 and n_inv = ref 0 in
    let invalidate () =
      if !seeds <> [] then begin
        n_seeds := !n_seeds + List.length !seeds;
        n_inv := !n_inv + Pretrans.invalidate_reaching st.g !seeds;
        seeds := []
      end
    in
    st.seed_log <- Some seeds;
    add_sections st
      ~fundefs:(List.to_seq delta.Linkp.d_added_fundefs)
      ~statics:(List.to_seq delta.Linkp.d_added_statics)
      ~first_var:old_nvars;
    (* added dynamic records: a block resident BEFORE the delta will not
       be re-read, so its additions are injected one by one; a block
       activated during this application (or later) is read whole from
       the new view, additions included — the frozen [was_active]
       snapshot is what keeps the two cases disjoint *)
    let was_active v =
      v < old_nvars
      && v < Bytes.length was_active
      && Bytes.get was_active v = '\001'
    in
    List.iter
      (fun (p : Objfile.prim_rec) ->
        if was_active p.Objfile.psrc then inject st p)
      delta.Linkp.d_added_prims;
    invalidate ();
    (* every pass keeps the surviving memos; what it changed is
       invalidated before the next one reads them *)
    while
      let changed = pass st in
      invalidate ();
      changed
    do
      ()
    done;
    st.seed_log <- None;
    Cla_obs.Metrics.incr "pretrans.delta.resumes";
    Cla_obs.Metrics.set "pretrans.delta.seeds" !n_seeds;
    Cla_obs.Metrics.set "pretrans.delta.invalidated" !n_inv;
    let r = extract st a0 in
    publish_result r;
    Some r
  end
