(** Fixed-size log-bucketed (HDR-style) histograms for latency
    recording on serving paths.

    A histogram is a constant-size array of buckets whose widths grow
    geometrically: values below {!linear_limit} get exact unit buckets,
    larger values land in one of [2^sub_bits] sub-buckets per power of
    two, bounding the relative quantile error by {!relative_error}
    (~3.1%).  Values are unit-agnostic non-negative integers; the
    serving stack records monotonic nanoseconds.

    Recording is lock-free ([Atomic] bucket counters), so histograms may
    be recorded into concurrently from several domains without loss and
    merged at snapshot time — the cheap-record / merge-on-read shape the
    per-shard server registries rely on. *)

type t

(** Values below this are counted exactly (bucket width 1). *)
val linear_limit : int

(** Upper bound on the relative error of {!quantile} for values at or
    above {!linear_limit} (bucket width / bucket lower bound). *)
val relative_error : float

val create : unit -> t

(** Record one value.  Negative values clamp to 0.  Lock-free and
    domain-safe: concurrent records never lose counts. *)
val record : t -> int -> unit

val count : t -> int

(** Sum of every recorded value (useful for means over raw ns). *)
val total : t -> int

(** Smallest / largest recorded value; 0 when the histogram is empty. *)
val min_value : t -> int

val max_value : t -> int

(** Mean of the recorded values; 0 when empty. *)
val mean : t -> float

(** [quantile t q] estimates the [q]-quantile (0 <= q <= 1) using the
    nearest-rank method: the bucket holding the [ceil (q*n) - 1]-th
    smallest recorded value, reported as that bucket's midpoint — so the
    estimate is exact below {!linear_limit} and within
    {!relative_error} of the true sample quantile above it.  0 when
    empty. *)
val quantile : t -> float -> int

(** Bucket index of a value (monotone in the value) — exposed so tests
    can assert a quantile estimate lands in the same bucket as the exact
    sample quantile. *)
val index : int -> int

(** [bounds i] is the half-open value range [\[lo, hi)] of bucket [i]. *)
val bounds : int -> int * int

(** Non-empty buckets as [(index, count)] pairs, ascending by index. *)
val buckets : t -> (int * int) list

(** A new histogram holding both inputs' observations. *)
val merge : t -> t -> t

(** Fold [src] into [into] (commutative and associative over the
    recorded multiset). *)
val merge_into : into:t -> t -> unit

(** Structural equality of the recorded multisets (bucket-resolution). *)
val equal : t -> t -> bool

(** Summary export: count, min/max/mean, p50/p90/p99/p99.9, and the
    non-empty buckets.  All values in the recording unit. *)
val to_json : t -> Json.t

(** One-line summary ([count=… p50=… p99=… max=…]) for stat tables. *)
val pp : Format.formatter -> t -> unit
