(** Baseline: subset-based points-to analysis over bit vectors — the
    paper mentions "an implementation based on bit-vectors" among the
    analyses built on the CLA substrate (Section 4).

    The location space is compressed to the address-taken objects; the
    solver iterates all constraints to a fixpoint.  Simple and a useful
    differential oracle for the pre-transitive solver. *)

(** [deadline]/[cancel] are polled at every fixpoint round and every few
    hundred constraint applications, aborting with a typed
    {!Cla_resilience.Deadline.Timed_out} / {!Cla_resilience.Cancel.Cancelled}.
    One sequential round loop applies every constraint and indirect call
    until no row changes. *)
val solve :
  ?deadline:Cla_resilience.Deadline.t ->
  ?cancel:Cla_resilience.Cancel.t ->
  Objfile.view ->
  Solution.t
