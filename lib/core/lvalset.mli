(** Shared sets of lvals in a hybrid representation, with hash-consing.

    "Since many lval sets are identical, a mechanism is implemented to
    share common lvals sets ... linked into a hash table, based on set
    size" (Section 5).  Sharing is what makes the dense benchmarks cheap:
    identical sets are physically equal, so unions short-circuit and a
    whole benchmark's millions of points-to relations may live in a few
    hundred distinct sets.

    Small sets are sorted, duplicate-free int arrays.  Sets that are both
    large (cardinality above the pool's dense threshold) and dense (at
    least one element per 32-bit word of their bitmap extent) switch to
    word-packed bitmaps: unions become word-ORs, difference propagation
    becomes word-ANDNOTs.  The representation is {e canonical} — a pure
    function of contents and threshold — so hash-cons sharing and the
    physical-identity fast paths hold across both forms. *)

type t

val empty : t
val cardinal : t -> int

(** True when the set is in the word-packed bitmap representation (the
    bench's set-representation histograms). *)
val is_bitmap : t -> bool

(** Membership: binary search on array sets, one bit probe on bitmaps. *)
val mem : int -> t -> bool

(** Iteration is in ascending element order for both representations. *)
val iter : (int -> unit) -> t -> unit

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
val to_list : t -> int list

(** Structural equality (physically shared sets compare in O(1)).  Works
    across representations, so solutions built with different pool
    thresholds — e.g. the bench's sorted-array baseline vs a hybrid run —
    still compare content-wise. *)
val equal : t -> t -> bool

(** A hash of the contents, bounded like [Hashtbl.hash]: it reads the
    size and a prefix of the representation.  Physically equal sets hash
    equal, so it keys tables that look sets up by physical identity. *)
val hash : t -> int

(** [iter_diff ~prev cur f] visits the elements of [cur] not in [prev].
    Points-to sets grow monotonically, so drivers remember the set they
    last processed and visit just the delta — difference propagation.
    Bitmap/bitmap pairs take a per-word ANDNOT fast path. *)
val iter_diff : prev:t -> t -> (int -> unit) -> unit

(** [try_stamp s q] returns [true] iff [s] is non-empty and was not
    already stamped with [q], marking it as it answers.  This is the O(1)
    replacement for [List.memq]-style distinct-set scans during
    reachability accumulation: stamp with a fresh id per accumulation and
    only sets answering [true] need be unioned in.  [q] must be
    non-negative and monotonically fresh per traversal.  The shared
    {!empty} always answers [false] (adding it is a no-op anyway), so the
    global is never mutated. *)
val try_stamp : t -> int -> bool

(** {2 The sharing pool}

    One per solver; flushed at the start of each pass over the complex
    assignments, as in the paper (after unifications, stale sets would
    otherwise pin memory). *)

type pool

(** [create_pool ?dense_threshold ()] — sets with cardinality above
    [dense_threshold] (default: {!default_dense_threshold}) become
    bitmaps when dense enough.  Pass [max_int] for a pure sorted-array
    pool (the bench baseline). *)
val create_pool : ?dense_threshold:int -> unit -> pool

val flush_pool : pool -> unit

(** Global default for [create_pool]'s threshold.  Set once at startup
    (e.g. from a CLI flag), before solver domains spawn. *)
val set_default_dense_threshold : int -> unit

val default_dense_threshold : unit -> int

(** Cumulative pool counters; they survive {!flush_pool}. [p_small_sets]
    / [p_dense_sets] count distinct interned sets per representation. *)
type pool_stats = {
  p_hits : int;
  p_misses : int;
  p_small_sets : int;
  p_dense_sets : int;
}

val pool_stats : pool -> pool_stats

(** Return the pooled physical representative of a sorted, duplicate-free
    array.  On a pool miss the array may be retained as the set's backing
    store — do not mutate it afterwards. *)
val share : pool -> int array -> t

(** Sort + dedup the first [len] elements of a scratch buffer into a
    shared set.  The first [len] cells of the buffer are clobbered
    (sorted in place), but the buffer is never retained — callers may
    pass a reusable scratch array. *)
val of_dyn : pool -> int array -> int -> t

val of_list : pool -> int list -> t

(** Merge-union; returns one of its arguments physically when the other
    is a subset.  Bitmap pairs are unioned by word-OR. *)
val union : pool -> t -> t -> t

(** [union_many pool sets n buf len] unions the first [n] sets of [sets]
    with the first [len] raw elements of [buf] (the reachability walk's
    SCC-result construction).  [buf] may be unsorted and contain
    duplicates; its first [len] cells are clobbered.

    A small union (total input cardinality at most the threshold) is
    gathered, sorted and interned like {!of_dyn}.  A larger one takes
    one of two paths:
    - {b merge}: the sorted, deduplicated raw elements are merged with
      the inputs one at a time.  Taken when every input is a sorted
      array and the merges' bounded cost (the growing prefix, summed
      over the inputs) stays within a constant factor of the
      accumulator's;
    - {b accumulator}: the union is OR-ed into a word bitmap sized to
      the largest element, popcounted, and unpacked by walking only the
      set bits when the result is not dense.  Taken when some input is
      a bitmap, or when many inputs over a small element range would
      make the merges quadratic.
    Both return an input physically when its cardinality equals the
    union's; otherwise the result is interned under the canonical rule,
    so it is the same object {!of_list} would give.

    The merges run in two scratch buffers owned by [pool] and reused by
    every call.  A result never aliases them: it is copied out before it
    is interned.  The pool must therefore not be shared between domains
    (it never is: one pool per solver). *)
val union_many : pool -> t array -> int -> int array -> int -> t
