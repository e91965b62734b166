(** Growable int arrays (OCaml 5.1 predates the stdlib [Dynarray]); the
    solver's adjacency lists and scratch buffers. *)

type t = { mutable data : int array; mutable len : int }

val create : ?capacity:int -> unit -> t
val length : t -> int
val get : t -> int -> int
val push : t -> int -> unit
val clear : t -> unit
val iter : (int -> unit) -> t -> unit
val unsafe_get : t -> int -> int
val to_array : t -> int array

(** The list of every node that has none yet, in an adjacency array: one
    shared list that is never pushed, so set-up allocates nothing per
    node.  Give it to {!push_at}, never to {!push}. *)
val empty : t

(** [push_at lists i x] pushes [x] onto [lists.(i)], first giving node
    [i] its own list if it still has {!empty}. *)
val push_at : t array -> int -> int -> unit
