(** Fault injection for CLA object files and snapshots.

    Mutates serialized {!Cla_core.Sectioned} bytes (CLA2 or CSN1) the
    way real corruption does — truncation, bit flips, reordered section
    tables — and checks the object-file reader's contract: every mutant
    either loads and analyzes to the identical solution, or is rejected
    with a structured [Binio.Corrupt] / [Diag.Fail].  Deterministic via
    {!Rng}. *)

open Cla_core

type mutation =
  | Truncate of int  (** keep only the first [n] bytes *)
  | Byte_flip of int * int  (** xor the byte at [offset] with [mask] *)
  | Table_swap of int * int
      (** swap section-table entries [i mod nsec] and [j mod nsec] *)

val describe : mutation -> string

(** Apply a mutation to serialized bytes.  Out-of-range offsets and
    unlocatable section tables make the mutation a no-op. *)
val apply : string -> mutation -> string

(** Recompute the section-table checksum of CLA2 or CSN1 bytes
    (identity on unrecognizable bytes).  {!mutate} reseals after
    {!Table_swap} so the swap tests reader order-independence, not just
    the checksum. *)
val reseal : string -> string

(** {!apply}, then {!reseal} after a {!Table_swap}: the bytes {!check}
    feeds the reader. *)
val mutate : string -> mutation -> string

(** Draw a random mutation sized to the given bytes. *)
val random : Rng.t -> string -> mutation

type outcome =
  | Accepted of Solution.t  (** parsed and analyzed *)
  | Rejected of string  (** rejected with a structured diagnostic *)

(** The reader's contract was broken: a mutation escaped as something
    other than [Binio.Corrupt] / [Diag.Fail] — or, in {!sweep} with a
    baseline, was accepted with a different solution. *)
exception Invariant_violation of mutation * exn

(** Load + analyze ([demand:false], so every block is decoded) the
    mutant of [data] under the given mutation. *)
val check : string -> mutation -> outcome

type stats = {
  n_total : int;
  n_accepted : int;  (** loaded and analyzed (identical solution) *)
  n_rejected : int;  (** rejected with a structured diagnostic *)
}

(** Run [n] seeded random mutations of [data] through load + analyze.
    With [baseline], accepted mutants must match it exactly. *)
val sweep : ?baseline:Solution.t -> seed:int64 -> n:int -> string -> stats
