(** Load generator for [cla serve-bench]: a deterministic mixed stream
    of good, poisoned, and slow queries.  Good queries must be answered,
    poisoned ones must come back as clean ["error"] responses, slow ones
    must time out or force shedding — and the server must survive the
    whole stream, answering every line exactly once. *)

type kind =
  | Good  (** well-formed points-to/alias/ping/stats over known vars *)
  | Poison  (** malformed json, unknown ops, unknown variables *)
  | Slow  (** [sleep] ops that outlive their deadline or hog a slot *)

val kind_name : kind -> string

type query = { q_id : int; q_kind : kind; q_line : string }

type mix = { m_good : int; m_poison : int; m_slow : int }
(** Relative weights; they need not sum to anything in particular. *)

(** The first 32 named, non-temporary program variables of [view], in
    variable order: the targets of good queries when the caller names
    none. *)
val sample_vars : Cla_core.Objfile.view -> string array

(** [generate ~seed ~n ~vars ~deadline_ms ~slow_ms ()] builds [n]
    request lines: good queries draw variables from [vars] and carry
    [deadline_ms]; slow queries sleep [slow_ms] (half with a deadline
    they will blow, half with room to spare so they hog a slot).
    [fresh_frac] (default 0) makes that fraction of good points-to /
    alias queries carry ["fresh":true] — they bypass every cache and
    snapshot, forcing real shard solves, which is how the chaos stream
    keeps the worker domains exercised on a snapshot-backed server.
    Deterministic in [seed].  Raises [Invalid_argument] when [vars] is
    empty. *)
val generate :
  ?mix:mix ->
  ?fresh_frac:float ->
  seed:int64 ->
  n:int ->
  vars:string array ->
  deadline_ms:int ->
  slow_ms:int ->
  unit ->
  query list

(** Fault injections for the chaos harness ([bench chaos]): the driver
    fires each through {!Cla_serve.Server.chaos_kill_shard} /
    [chaos_wedge_shard] when its offset from stream start comes up. *)
type fault =
  | Kill_shard of int  (** make the shard's worker domain die *)
  | Wedge_shard of int * int  (** shard, wedge duration in ms *)

type fault_event = { f_at_ms : int; f_fault : fault }

val fault_name : fault -> string

(** A deterministic schedule of [kills] (default 2) kill events and
    [wedges] (default 1) wedge events over the middle 80% of a
    [span_ms] run, shards drawn from the rng.  Sorted by offset.
    Raises [Invalid_argument] when [shards <= 0]. *)
val fault_schedule :
  ?kills:int ->
  ?wedges:int ->
  seed:int64 ->
  shards:int ->
  span_ms:int ->
  wedge_ms:int ->
  unit ->
  fault_event list
