(** Random constraint-program generator (database level, no C involved).

    Used by the property-based tests — on any generated program the
    pre-transitive, worklist and bit-vector solvers must agree exactly and
    Steensgaard's must over-approximate — and by the ablation benchmarks,
    which need dense pure-solver workloads without parse cost. *)

type params = {
  n_vars : int;
  n_addr : int;
  n_copy : int;
  n_store : int;
  n_load : int;
  n_deref2 : int;
  n_funcs : int;  (** functions with standardized arg/ret variables *)
  n_indirect : int;  (** indirect call sites *)
}

val default_params : params

(** Generate a database deterministically from the seed. *)
val generate : ?params:params -> int64 -> Cla_core.Objfile.db

(** Generate and encode ({!Cla_core.Objfile.encode}: the view solvers consume). *)
val view : ?params:params -> int64 -> Cla_core.Objfile.view

(** {2 Shaped solver workloads}

    Deterministic pure-solver profiles for the solver micro-benchmark:
    - [Sparse]: many variables, few constraints each — points-to sets
      stay small (sorted-array regime);
    - [Dense]: a layered DAG with wide fan-in over a compact base-location
      pool — upper layers accumulate large dense sets (bitmap regime);
    - [Cyclic]: rings of copy edges with cross-ring chords — every
      reachability walk meets cycles (Tarjan/unification stress). *)
type shape = Sparse | Dense | Cyclic

val all_shapes : shape list
val shape_name : shape -> string

(** [shaped ?scale shape seed] generates a view of the given profile.
    [scale] (default 1.0) multiplies every size knob; small fractions make
    smoke-test workloads. *)
val shaped : ?scale:float -> shape -> int64 -> Cla_core.Objfile.view
