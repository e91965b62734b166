(** Demand loader over a linked object-file view (the "analyze" phase's
    I/O layer, Section 4).

    The static section is always loaded; dynamic blocks are decoded only
    when the analysis asks for them, and the caller may discard decoded
    records and re-read them later ("once we have read information from the
    object file we can simply discard it and re-load it later if
    necessary").  The loader keeps the Table 3 accounting: assignments
    loaded, assignments retained in core, assignments in the file.

    With [~budget], retention is {e bounded}: the loader tracks which
    blocks hold retained assignments in LRU order, and when a [retain]
    would push the in-core total past the budget it discards
    least-recently-used blocks — notifying the analysis through
    [on_evict] so it can drop the decoded records and re-load them later.
    This makes the paper's discard-and-re-load strategy real rather than
    an accounting fiction. *)

open Cla_ir

type t = {
  view : Objfile.view;
  loaded_flag : Bytes.t;  (* per var: block loaded at least once *)
  mutable loaded : int;  (* primitive assignments decoded *)
  mutable in_core : int;  (* primitive assignments retained in memory *)
  mutable reloads : int;  (* blocks decoded again after a discard *)
  budget : int option;  (* max retained assignments, if bounded *)
  mutable evictions : int;  (* blocks discarded to stay within budget *)
  retained_n : int array;  (* per var: assignments currently retained *)
  (* LRU doubly-linked list over blocks with retained assignments;
     index [sentinel] (= n_vars) is the list head/tail anchor, [-1]
     marks "not in list". *)
  lru_prev : int array;
  lru_next : int array;
  sentinel : int;
  mutable on_evict : int -> unit;
}

let create ?budget (view : Objfile.view) =
  let n = Objfile.n_vars view in
  let s = n in
  let prev = Array.make (n + 1) (-1) and next = Array.make (n + 1) (-1) in
  prev.(s) <- s;
  next.(s) <- s;
  {
    view;
    loaded_flag = Bytes.make (max 1 n) '\000';
    loaded = 0;
    in_core = 0;
    reloads = 0;
    budget;
    evictions = 0;
    retained_n = Array.make (max 1 n) 0;
    lru_prev = prev;
    lru_next = next;
    sentinel = s;
    on_evict = ignore;
  }

(** Install the callback invoked with a block's object id when its
    retained assignments are discarded to stay within the budget. *)
let set_on_evict t f = t.on_evict <- f

let budget t = t.budget

(** [true] while the block of [src] still holds retained assignments
    (i.e. it has been retained and not evicted since). *)
let is_retained t src = t.retained_n.(src) > 0

(* ---------------- LRU bookkeeping ---------------- *)

let in_lru t v = t.lru_next.(v) >= 0

let lru_remove t v =
  if in_lru t v then begin
    let p = t.lru_prev.(v) and n = t.lru_next.(v) in
    t.lru_next.(p) <- n;
    t.lru_prev.(n) <- p;
    t.lru_next.(v) <- -1;
    t.lru_prev.(v) <- -1
  end

(* Most-recently-used position is right after the sentinel. *)
let lru_touch t v =
  lru_remove t v;
  let s = t.sentinel in
  let n = t.lru_next.(s) in
  t.lru_next.(s) <- v;
  t.lru_prev.(v) <- s;
  t.lru_next.(v) <- n;
  t.lru_prev.(n) <- v

let evict t v =
  t.in_core <- t.in_core - t.retained_n.(v);
  t.retained_n.(v) <- 0;
  lru_remove t v;
  t.evictions <- t.evictions + 1;
  t.on_evict v

(* Discard LRU blocks (never [keep], the block being retained right now)
   until the budget holds again.  If [keep] alone exceeds the budget
   there is nothing left to evict and the overshoot stands — a budget
   smaller than one block cannot be honored. *)
let enforce_budget t ~keep limit =
  let continue_ = ref true in
  while t.in_core > limit && !continue_ do
    let v = ref (t.lru_prev.(t.sentinel)) in
    while !v <> t.sentinel && !v = keep do
      v := t.lru_prev.(!v)
    done;
    if !v = t.sentinel then continue_ := false else evict t !v
  done

(* ---------------- loading & accounting ---------------- *)

(** The address-of assignments; counted as loaded (they are always read,
    then discarded per the Section 6 strategy). *)
let statics t =
  t.loaded <- t.loaded + Array.length t.view.Objfile.rstatics;
  t.view.Objfile.rstatics

(** Decode the block of [src].  Every call reads from the file bytes; the
    second and later calls on the same block count as re-loads. *)
let block t src : Objfile.prim_rec list =
  let prims = Objfile.read_block t.view src in
  let n = List.length prims in
  if n > 0 then begin
    t.loaded <- t.loaded + n;
    if Bytes.get t.loaded_flag src <> '\000' then t.reloads <- t.reloads + 1
    else Bytes.set t.loaded_flag src '\001';
    if is_retained t src then lru_touch t src
  end;
  prims

(** Record that [n] decoded assignments of the block of [src] are being
    kept in memory (complex assignments are retained; [x = y] and
    [x = &y] are discarded).  May evict other blocks to honor the
    budget. *)
let retain t ~src n =
  if n > 0 then begin
    t.in_core <- t.in_core + n;
    t.retained_n.(src) <- t.retained_n.(src) + n;
    lru_touch t src;
    match t.budget with
    | None -> ()
    | Some limit -> enforce_budget t ~keep:src limit
  end

type stats = {
  s_in_core : int;
  s_loaded : int;
  s_in_file : int;
  s_reloads : int;
  s_evictions : int;
}

let stats t =
  {
    s_in_core = t.in_core;
    s_loaded = t.loaded;
    s_in_file = Prim.total t.view.Objfile.rmeta.Objfile.mcounts;
    s_reloads = t.reloads;
    s_evictions = t.evictions;
  }

(** Publish a stats record into the metrics registry under
    [load.blocks.*] — Table 3's block-residency accounting — plus the
    eviction counter [load.evictions]. *)
let publish_stats ?reg (s : stats) =
  let set k v = Cla_obs.Metrics.set ?reg ("load.blocks." ^ k) v in
  set "in_core" s.s_in_core;
  set "loaded" s.s_loaded;
  set "in_file" s.s_in_file;
  set "reloads" s.s_reloads;
  Cla_obs.Metrics.set ?reg "load.evictions" s.s_evictions

(* ------------------------------------------------------------------ *)
(* Cached file loads (the watch / incremental path)                     *)
(* ------------------------------------------------------------------ *)

(* Process-wide cache of loaded object files keyed by path.  Every probe
   revalidates the entry against the file's current (size, mtime) — a
   rewritten file is reloaded, an untouched one is served from memory
   and counted in [load.revalidations].  The watcher polls by stat, so
   this is the natural freshness granularity; a same-size same-mtime
   rewrite is indistinguishable by stat and treated as unchanged. *)
let file_cache : (string, int * float * Objfile.view) Hashtbl.t =
  Hashtbl.create 16

let file_cache_m = Mutex.create ()

let load_file_cached path : (Objfile.view, Diag.t) result =
  match Unix.stat path with
  | exception Unix.Unix_error (e, _, _) ->
      Error
        (Diag.error ~file:path ~phase:Diag.Load
           ("cannot stat: " ^ Unix.error_message e))
  | st when st.Unix.st_kind <> Unix.S_REG ->
      Error (Diag.error ~file:path ~phase:Diag.Load "not a regular file")
  | st -> (
      let size = st.Unix.st_size and mtime = st.Unix.st_mtime in
      Mutex.lock file_cache_m;
      let hit =
        match Hashtbl.find_opt file_cache path with
        | Some (sz, mt, v) when sz = size && Float.equal mt mtime -> Some v
        | _ -> None
      in
      Mutex.unlock file_cache_m;
      match hit with
      | Some v ->
          Cla_obs.Metrics.incr "load.revalidations";
          Ok v
      | None -> (
          match Objfile.load_result path with
          | Error _ as e -> e
          | Ok v ->
              Mutex.lock file_cache_m;
              Hashtbl.replace file_cache path (size, mtime, v);
              Mutex.unlock file_cache_m;
              Ok v))

(** Operations through which points-to information survives: only these
    copies are relevant to aliasing, and the loader skips the rest
    ("non-pointer arithmetic assignments are usually ignored", Section 6). *)
let pointer_relevant_op = function
  | "+" | "-" | "u+" | "u-" | "cast" | "?:" -> true
  | _ -> false

let relevant_to_points_to (p : Objfile.prim_rec) =
  match (p.Objfile.pkind, p.Objfile.pop) with
  | Objfile.Pcopy, Some (op, _) -> pointer_relevant_op op
  | _ -> true
