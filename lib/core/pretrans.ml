(** The pre-transitive graph engine — the paper's second contribution
    (Section 5, Figure 5).

    The constraint graph [G] is *never* transitively closed.  An edge
    [a -> b] means "everything derivable from [b] is derivable from [a]"
    (i.e. [pts(a) ⊇ pts(b)]); each node carries its [baseElements] (the
    [y]s of [x = &y] assignments).  The points-to set of a node is computed
    on demand by graph reachability ([get_lvals]), made fast by:

    - {b caching}: a reachability result is memoized and reused for the
      rest of the current pass over the complex assignments; stale reads
      are sound because the driver's [nochange] flag forces another pass;
    - {b cycle elimination}: every cycle met during reachability is
      collapsed by unifying its nodes ([skip] pointers with incremental
      de-skipping).  Detection is free: we find exactly the cycles in the
      parts of the graph we traverse — "the costly cycles".

    Reachability runs an iterative Tarjan SCC walk (recursion would
    overflow the OCaml stack on ~100k-node graphs), which detects each
    traversed cycle once and lets us unify whole strongly-connected
    components at a time; this realizes the paper's
    [foreach n' in path, unifyNode(n', n)] without re-scanning paths.

    The walk itself is allocation-free in steady state: the frame stacks,
    the SCC accumulator, and the distinct-successor-result buffer are all
    per-solver scratch reused across queries; distinct-set dedup is an
    O(1) stamp on the hash-consed set ({!Lvalset.try_stamp}) instead of a
    [List.memq] scan; and the successor edge lists are path-compressed in
    place as the walk de-skips them. *)

type config = {
  cache : bool;  (** reuse reachability results within a pass *)
  cycle_elim : bool;  (** unify the nodes of traversed cycles *)
}

let default_config = { cache = true; cycle_elim = true }

type t = {
  cfg : config;
  pool : Lvalset.pool;
  mutable n : int;  (* nodes allocated *)
  mutable skip : int array;  (* skip.(n) >= 0: n was unified into skip.(n) *)
  mutable succ : Dynarr.t array;
  mutable base : Dynarr.t array;  (* baseElements (location ids, deduped) *)
  mutable mark : int array;  (* memo validity stamp per node *)
  mutable result : Lvalset.t array;  (* memoized reachability result *)
  (* per-query Tarjan state, versioned by [query] *)
  mutable disc : int array;
  mutable low : int array;
  mutable qid : int array;
  mutable onstk : int array;  (* = query when the node is on the SCC stack *)
  edges : Edgeset.t;  (* dedup of [succ]: the de-skipped pairs added *)
  bases : Edgeset.t;  (* dedup of [base] *)
  (* reverse adjacency for targeted invalidation (delta solving).  Off by
     default; [enable_pred_tracking] builds it from the live edges and
     [add_edge]/[unify_into] maintain it from then on.  Entries may be
     stale (pre-unification node ids) — consumers de-skip on read, and
     unification merges a victim's predecessor list into its
     representative, a sound over-approximation. *)
  mutable preds : Dynarr.t array;  (* [||] while tracking is off *)
  mutable track_preds : bool;
  mutable stamp : int;
  mutable query : int;
  (* reusable traversal scratch — one of each per solver, never per query *)
  fnode : Dynarr.t;  (* Tarjan frame stack: node per frame *)
  fidx : Dynarr.t;  (* Tarjan frame stack: next successor index *)
  tstack : Dynarr.t;  (* Tarjan SCC stack *)
  scc_buf : Dynarr.t;  (* members of cycles awaiting unification ... *)
  scc_ends : Dynarr.t;  (* ... flattened; end offset per cycle *)
  base_scratch : Dynarr.t;  (* base elements gathered per SCC *)
  mutable set_buf : Lvalset.t array;  (* distinct successor results *)
  mutable set_len : int;
  mutable accum : int;  (* fresh stamp per SCC-result accumulation *)
  (* cooperative interruption: called every [interrupt_mask+1] visits of
     the reachability walk so a deadline or cancel token can abort a long
     [get_lvals] traversal, not just a pass boundary *)
  mutable interrupt : (unit -> unit) option;
  mutable ticks : int;
  (* statistics *)
  mutable n_edges : int;
  mutable n_unified : int;
  mutable n_queries : int;
  mutable n_visits : int;
  mutable n_cache_hits : int;
}

let create ?(config = default_config) ?dense_threshold ~nodes () =
  let cap = max 16 nodes in
  {
    cfg = config;
    pool = Lvalset.create_pool ?dense_threshold ();
    n = nodes;
    skip = Array.make cap (-1);
    succ = Array.make cap Dynarr.empty;
    base = Array.make cap Dynarr.empty;
    mark = Array.make cap (-1);
    result = Array.make cap Lvalset.empty;
    disc = Array.make cap 0;
    low = Array.make cap 0;
    qid = Array.make cap (-1);
    onstk = Array.make cap (-1);
    edges = Edgeset.create ();
    bases = Edgeset.create ~inline:1 ();
    preds = [||];
    track_preds = false;
    stamp = 0;
    query = 0;
    fnode = Dynarr.create ~capacity:64 ();
    fidx = Dynarr.create ~capacity:64 ();
    tstack = Dynarr.create ~capacity:64 ();
    scc_buf = Dynarr.create ~capacity:16 ();
    scc_ends = Dynarr.create ~capacity:8 ();
    base_scratch = Dynarr.create ~capacity:64 ();
    set_buf = Array.make 64 Lvalset.empty;
    set_len = 0;
    accum = 0;
    interrupt = None;
    ticks = 0;
    n_edges = 0;
    n_unified = 0;
    n_queries = 0;
    n_visits = 0;
    n_cache_hits = 0;
  }

let n_nodes t = t.n

(* Poll the interrupt this often inside the Tarjan walk.  Aborting
   mid-walk is safe: unification is deferred to the end of the walk,
   memo entries are only written for completed SCCs (whose results are
   complete for the current stamp), and the per-query versioning of the
   Tarjan arrays invalidates everything else on the next query. *)
let interrupt_mask = 1023

let set_interrupt t f = t.interrupt <- f

let tick t =
  t.ticks <- t.ticks + 1;
  if t.ticks land interrupt_mask = 0 then
    match t.interrupt with Some f -> f () | None -> ()

let grow t needed =
  let cap = Array.length t.skip in
  if needed > cap then begin
    let cap' = max needed (2 * cap) in
    let extend a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    t.skip <- extend t.skip (-1);
    t.succ <- extend t.succ Dynarr.empty;
    t.base <- extend t.base Dynarr.empty;
    t.mark <- extend t.mark (-1);
    t.result <- extend t.result Lvalset.empty;
    t.disc <- extend t.disc 0;
    t.low <- extend t.low 0;
    t.qid <- extend t.qid (-1);
    t.onstk <- extend t.onstk (-1);
    if t.track_preds then t.preds <- extend t.preds Dynarr.empty
  end

(** Allocate a fresh node (used for [*x = *y] splitting and [n_*y] deref
    nodes). *)
let fresh_node t =
  let id = t.n in
  grow t (id + 1);
  t.n <- id + 1;
  id

(** Follow skip pointers with path compression ("an incremental algorithm
    for updating graph edges to skip-nodes to their de-skipped
    counterparts"). *)
let rec deskip t n =
  let s = t.skip.(n) in
  if s < 0 then n
  else begin
    let r = deskip t s in
    if r <> s then t.skip.(n) <- r;
    r
  end

(** Add edge [a -> b] ([pts(a) ⊇ pts(b)]).  Returns [true] if the edge is
    new — the driver's [nochange] flag.  The dedup is keyed by the pair
    de-skipped at insertion, never by the path-compressed [succ] lists,
    which the walk rewrites. *)
let add_edge t a b =
  let a = deskip t a and b = deskip t b in
  if a = b || not (Edgeset.add t.edges a b) then false
  else begin
    Dynarr.push_at t.succ a b;
    if t.track_preds then Dynarr.push_at t.preds b a;
    t.n_edges <- t.n_edges + 1;
    true
  end

(** Record [x = &z]: [z] joins [baseElements(x)]. *)
let add_base t x z =
  let x = deskip t x in
  if Edgeset.add t.bases x z then Dynarr.push_at t.base x z

(** Flush the lval-set sharing pool alone; the memos stay valid. *)
let flush_pool t = Lvalset.flush_pool t.pool

(** Start a new pass over the complex assignments: flush the reachability
    cache and the lval-set sharing pool. *)
let new_pass t =
  t.stamp <- t.stamp + 1;
  flush_pool t

(* Merge [m]'s edges and base elements into representative [rep] and
   install the skip pointer. *)
let unify_into t m rep =
  t.skip.(m) <- rep;
  t.n_unified <- t.n_unified + 1;
  Dynarr.iter
    (fun s ->
      let s = deskip t s in
      ignore (add_edge t rep s))
    t.succ.(m);
  Dynarr.iter (fun z -> add_base t rep z) t.base.(m);
  if t.track_preds then begin
    (* edges into [m] now semantically target [rep]; keeping the merged
       list (stale ids and all) over-approximates, which is sound for
       invalidation *)
    Dynarr.iter (fun p -> Dynarr.push_at t.preds rep p) t.preds.(m);
    t.preds.(m) <- Dynarr.empty
  end;
  (* free the merged node's storage: [m] is never a de-skipped source
     again, so its dedup sets go too *)
  t.succ.(m) <- Dynarr.empty;
  t.base.(m) <- Dynarr.empty;
  Edgeset.clear t.edges m;
  Edgeset.clear t.bases m

(* ------------------------------------------------------------------ *)
(* Delta invalidation                                                  *)
(* ------------------------------------------------------------------ *)

(** Turn on reverse-adjacency tracking, building the predecessor lists
    from the edges already in the graph (so it can be enabled on a
    solved graph, not just an empty one).  Idempotent. *)
let enable_pred_tracking t =
  if not t.track_preds then begin
    let cap = Array.length t.skip in
    t.preds <- Array.make cap Dynarr.empty;
    t.track_preds <- true;
    for a = 0 to t.n - 1 do
      Dynarr.iter (fun raw -> Dynarr.push_at t.preds (deskip t raw) a) t.succ.(a)
    done
  end

(** Invalidate the reachability memo of every node that can reach one of
    [seeds] — i.e. every node whose points-to set may grow because
    [seeds]' sets grew (a new base element or a new out-edge).  This is
    the soundness core of delta solving: a resumed pass may keep every
    memo EXCEPT those, because a stale surviving memo could otherwise
    report "no change" and let the driver converge on a fixpoint that
    never saw the delta.  Requires {!enable_pred_tracking}; the walk is
    a reverse BFS over the (over-approximate) predecessor lists.
    Returns the number of memos invalidated. *)
let invalidate_reaching t seeds =
  if not t.track_preds then
    invalid_arg "Pretrans.invalidate_reaching: pred tracking is off";
  let visited = Bytes.make (Array.length t.skip) '\000' in
  let stack = Dynarr.create ~capacity:64 () in
  let count = ref 0 in
  let push x =
    let x = deskip t x in
    if Bytes.unsafe_get visited x = '\000' then begin
      Bytes.unsafe_set visited x '\001';
      t.mark.(x) <- -1;
      incr count;
      Dynarr.push stack x
    end
  in
  List.iter push seeds;
  while Dynarr.length stack > 0 do
    let x = Dynarr.get stack (Dynarr.length stack - 1) in
    stack.Dynarr.len <- Dynarr.length stack - 1;
    Dynarr.iter (fun p -> push p) t.preds.(x)
  done;
  !count

(* ------------------------------------------------------------------ *)
(* Reachability (getLvals)                                             *)
(* ------------------------------------------------------------------ *)

let push_set t s =
  if t.set_len = Array.length t.set_buf then begin
    let b = Array.make (2 * t.set_len) Lvalset.empty in
    Array.blit t.set_buf 0 b 0 t.set_len;
    t.set_buf <- b
  end;
  t.set_buf.(t.set_len) <- s;
  t.set_len <- t.set_len + 1

(* Iterative Tarjan over the per-solver scratch stacks.  Zero allocation
   in steady state: frames live in [t.fnode]/[t.fidx], the SCC stack in
   [t.tstack], cycles awaiting unification in [t.scc_buf]/[t.scc_ends],
   and each SCC's result is built by one [Lvalset.union_many] over the
   stamped-distinct successor results plus the members' base elements. *)
let tarjan t root =
  t.query <- t.query + 1;
  let q = t.query in
  let counter = ref 0 in
  let fnode = t.fnode and fidx = t.fidx and tstack = t.tstack in
  Dynarr.clear fnode;
  Dynarr.clear fidx;
  Dynarr.clear tstack;
  Dynarr.clear t.scc_buf;
  Dynarr.clear t.scc_ends;
  let push_frame n =
    t.qid.(n) <- q;
    t.disc.(n) <- !counter;
    t.low.(n) <- !counter;
    incr counter;
    t.onstk.(n) <- q;
    Dynarr.push tstack n;
    Dynarr.push fnode n;
    Dynarr.push fidx 0;
    t.n_visits <- t.n_visits + 1
  in
  push_frame root;
  while Dynarr.length fnode > 0 do
    tick t;
    let top = Dynarr.length fnode - 1 in
    let n = Dynarr.get fnode top in
    let i = Dynarr.get fidx top in
    let sn = t.succ.(n) in
    if i < Dynarr.length sn then begin
      fidx.Dynarr.data.(top) <- i + 1;
      (* de-skip the edge and compress it in place — the paper's
         incremental updating of edges to skip-nodes, hoisted out of
         future traversals of this edge *)
      let raw = Dynarr.unsafe_get sn i in
      let s =
        if t.skip.(raw) < 0 then raw
        else begin
          let r = deskip t raw in
          sn.Dynarr.data.(i) <- r;
          r
        end
      in
      if s = n then () (* self loop after de-skip *)
      else if t.mark.(s) = t.stamp then
        (* finished this pass/query: treat as leaf with known result *)
        ()
      else if t.qid.(s) = q then begin
        if t.onstk.(s) = q && t.disc.(s) < t.low.(n) then
          t.low.(n) <- t.disc.(s)
      end
      else push_frame s
    end
    else begin
      (* node finished: pop frame *)
      fnode.Dynarr.len <- top;
      fidx.Dynarr.len <- top;
      (* propagate lowlink to parent *)
      if top > 0 then begin
        let p = Dynarr.get fnode (top - 1) in
        if t.low.(n) < t.low.(p) then t.low.(p) <- t.low.(n)
      end;
      if t.low.(n) = t.disc.(n) then begin
        (* [n] roots an SCC whose members sit contiguously at the top of
           [tstack]: locate the root, process the slice in place. *)
        let tlen = Dynarr.length tstack in
        let mstart = ref (tlen - 1) in
        while Dynarr.get tstack !mstart <> n do decr mstart done;
        let mstart = !mstart in
        for k = mstart to tlen - 1 do
          t.onstk.(Dynarr.unsafe_get tstack k) <- -1
        done;
        (* result = base elements of members ∪ results of out-of-SCC
           succs.  Successor results are hash-consed, so most of a node's
           (possibly thousands of) successors carry the *same physical*
           set — dedup by an O(1) stamp before paying for any union (the
           paper's set-sharing enhancement is what makes this possible). *)
        t.accum <- t.accum + 1;
        let aid = t.accum in
        t.set_len <- 0;
        Dynarr.clear t.base_scratch;
        for k = mstart to tlen - 1 do
          let m = Dynarr.unsafe_get tstack k in
          Dynarr.iter (fun z -> Dynarr.push t.base_scratch z) t.base.(m);
          let sm = t.succ.(m) in
          for j = 0 to Dynarr.length sm - 1 do
            let raw = Dynarr.unsafe_get sm j in
            let s =
              if t.skip.(raw) < 0 then raw
              else begin
                let r = deskip t raw in
                sm.Dynarr.data.(j) <- r;
                r
              end
            in
            if t.mark.(s) = t.stamp && t.onstk.(s) <> q then begin
              let rs = t.result.(s) in
              if Lvalset.try_stamp rs aid then push_set t rs
            end
          done
        done;
        let set =
          Lvalset.union_many t.pool t.set_buf t.set_len
            t.base_scratch.Dynarr.data
            (Dynarr.length t.base_scratch)
        in
        for k = mstart to tlen - 1 do
          let m = Dynarr.unsafe_get tstack k in
          t.mark.(m) <- t.stamp;
          t.result.(m) <- set
        done;
        if tlen - mstart > 1 && t.cfg.cycle_elim then begin
          for k = mstart to tlen - 1 do
            Dynarr.push t.scc_buf (Dynarr.unsafe_get tstack k)
          done;
          Dynarr.push t.scc_ends (Dynarr.length t.scc_buf)
        end;
        tstack.Dynarr.len <- mstart
      end
    end
  done;
  (* unify the traversed cycles (safe now that the walk is complete) *)
  let start = ref 0 in
  for c = 0 to Dynarr.length t.scc_ends - 1 do
    let stop = Dynarr.get t.scc_ends c in
    let rep = deskip t (Dynarr.get t.scc_buf !start) in
    for k = !start + 1 to stop - 1 do
      let m = deskip t (Dynarr.get t.scc_buf k) in
      if m <> rep then unify_into t m rep
    done;
    start := stop
  done

(** [get_lvals t n] — the set of locations [&z] derivable from [n]
    (Figure 5's [getLvals]).  With [config.cache] the result is memoized
    for the rest of the current pass. *)
let get_lvals t node =
  let node = deskip t node in
  t.n_queries <- t.n_queries + 1;
  if t.cfg.cache && t.mark.(node) = t.stamp then begin
    t.n_cache_hits <- t.n_cache_hits + 1;
    t.result.(node)
  end
  else begin
    (* with caching off every top-level query recomputes from scratch; the
       stamp bump invalidates the previous query's memo *)
    if not t.cfg.cache then t.stamp <- t.stamp + 1;
    tarjan t node;
    t.result.(deskip t node)
  end

(* ------------------------------------------------------------------ *)
(* Statistics                                                          *)
(* ------------------------------------------------------------------ *)

type stats = {
  nodes : int;
  edges : int;
  unified : int;
  queries : int;
  visits : int;
  cache_hits : int;
  pool_hits : int;
  pool_misses : int;
  pool_small : int;
  pool_dense : int;
}

(* The structural counters ([nodes], [edges], [unified]) mirror the live
   graph and are monotonic over its lifetime; the query-side counters
   ([queries], [visits], [cache_hits]) are monotonic between calls to
   [reset_stats].  Invariants (see the .mli): cache_hits <= queries,
   unified <= nodes, and visits >= queries - cache_hits. *)
let stats t =
  let p = Lvalset.pool_stats t.pool in
  {
    nodes = t.n;
    edges = t.n_edges;
    unified = t.n_unified;
    queries = t.n_queries;
    visits = t.n_visits;
    cache_hits = t.n_cache_hits;
    pool_hits = p.Lvalset.p_hits;
    pool_misses = p.Lvalset.p_misses;
    pool_small = p.Lvalset.p_small_sets;
    pool_dense = p.Lvalset.p_dense_sets;
  }

(** Zero the query-side counters ([queries], [visits], [cache_hits]).
    The structural counters describe the graph itself and are not
    resettable. *)
let reset_stats t =
  t.n_queries <- 0;
  t.n_visits <- 0;
  t.n_cache_hits <- 0

(** Publish a stats record into the metrics registry under
    [analyze.pretrans.*] (graph/query counters) and [analyze.pool.*]
    (lval-set sharing-pool counters). *)
let publish_stats ?reg (s : stats) =
  let set k v = Cla_obs.Metrics.set ?reg ("analyze.pretrans." ^ k) v in
  set "nodes" s.nodes;
  set "edges" s.edges;
  set "unified" s.unified;
  set "queries" s.queries;
  set "visits" s.visits;
  set "cache_hits" s.cache_hits;
  let setp k v = Cla_obs.Metrics.set ?reg ("analyze.pool." ^ k) v in
  setp "hits" s.pool_hits;
  setp "misses" s.pool_misses;
  setp "small_sets" s.pool_small;
  setp "dense_sets" s.pool_dense
