(** Exact per-node sets of target ids: the solvers' edge dedup.

    A graph solver asks "is [a -> b] new?" once per candidate edge —
    millions of times on field-independent programs.  The question is
    answered in the source node's own set, so consecutive probes from one
    node stay in one small region of memory.  Each node's set moves
    through three tiers as it grows:

    - {b inline}: up to [inline] targets in fixed words of an array
      shared by 4096 nodes — a node with a few targets allocates
      nothing;
    - {b table}: an open-addressing table of that node's targets, carved
      from a shared arena;
    - {b bitmap}: one bit per target id up to the largest target added
      to any set, taken once that is no larger than the node's table
      would be.

    Membership is exact in every tier: [add] returns [true] iff the pair
    was never added before (or since {!clear} of its source).  Sources
    and targets are non-negative ints (a negative source raises
    [Invalid_argument]); a source gets its words at the first add to
    its chunk, and a bitmap grows to cover a target beyond the ids it
    was sized for. *)

type t

(** [create ?inline ()] makes empty sets, each holding up to [inline]
    (default 3, at least 1) targets in place before it takes a table or
    bitmap. *)
val create : ?inline:int -> unit -> t

(** [add t a b] inserts [b] into [a]'s set; [true] iff it was absent. *)
val add : t -> int -> int -> bool

val mem : t -> int -> int -> bool

(** Number of targets in [a]'s set. *)
val cardinal : t -> int -> int

(** [clear t a] empties [a]'s set and frees its table or bitmap. *)
val clear : t -> int -> unit

type tier = Inline | Table | Bitmap

(** The tier [a]'s set is in (a node with no targets is [Inline]). *)
val tier : t -> int -> tier
