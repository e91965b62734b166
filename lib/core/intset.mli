(** Open-addressing hash set of non-negative ints.

    One cache miss per operation — the pre-transitive solver performs
    millions of edge-dedup probes, where the stdlib [Hashtbl]'s chained
    buckets and per-insert allocation dominate solver time. *)

type t

(** [create capacity] sizes the table for about [capacity] elements. *)
val create : int -> t

val length : t -> int

(** [add t key] inserts; returns [true] iff the key was not present. *)
val add : t -> int -> bool

val mem : t -> int -> bool

(** Length of the longest run of consecutive occupied slots (wrapping
    around the end of the table): the worst-case probe count of a
    lookup.  A diagnostic for the hash's spread; O(capacity). *)
val longest_run : t -> int

(** {2 Packed pair keys}

    The solvers dedup graph edges by probing this set with a single int
    encoding the pair [(a, b)].  The packing is [(a lsl 31) lor b]: [b]
    occupies the low 31 bits, [a] the next 31, and the whole key fits an
    OCaml 63-bit immediate int with a bit to spare.

    {b Invariant}: both components must lie in [0, max_node_id].  Above
    that, [b] would bleed into [a]'s bits (silent collisions) and a large
    [a] would overflow the 63-bit int.  [pair_key] itself is unchecked —
    it sits on the hot path — so every graph enforces the bound once, at
    node-allocation time, via {!check_node_bound}. *)

(** Largest packable component: [2^31 - 1]. *)
val max_node_id : int

(** [pair_key a b] packs the pair into one int.  Collision-free iff both
    components are in [0, max_node_id] (unchecked here; see
    {!check_node_bound}). *)
val pair_key : int -> int -> int

(** [check_node_bound n] validates an id about to be allocated.
    @raise Invalid_argument if [n] is outside [0, max_node_id]. *)
val check_node_bound : int -> unit
