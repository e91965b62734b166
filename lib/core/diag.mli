(** Structured diagnostics for the compile-link-analyze pipeline.

    Each phase records what went wrong — severity, phase, offending
    file, source location, message — instead of aborting the run with a
    raw exception, so keep-going compilation and corrupt-database
    recovery are possible.  Errors are mirrored into the metrics
    registry ([compile.errors], [link.errors], [load.corrupt],
    [analyze.errors]). *)

open Cla_ir

type severity = Error | Warning

type phase = Compile | Link | Load | Analyze

type t = {
  severity : severity;
  phase : phase;
  file : string option;  (** offending source or object file *)
  loc : Loc.t option;
  message : string;
}

(** Raised by entry points that cannot return a [result]; the CLI guard
    renders it as a one-line diagnostic with a distinct exit code. *)
exception Fail of t

(** The metrics-registry counter bumped when an error in this phase is
    recorded ([Load] errors are corruption: [load.corrupt]). *)
val metric_of_phase : phase -> string

val error : ?file:string -> ?loc:Loc.t -> phase:phase -> string -> t
val warning : ?file:string -> ?loc:Loc.t -> phase:phase -> string -> t

(** Raise {!Fail} with a fresh error diagnostic. *)
val fail : ?file:string -> ?loc:Loc.t -> phase:phase -> string -> 'a

(** One-line rendering: [FILE:LINE:COL: PHASE error: MESSAGE]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

(** {1 Collector (keep-going mode)} *)

(** Accumulates diagnostics across a multi-input run. *)
type collector

val collector : unit -> collector

(** Record a diagnostic; errors bump the phase counter in the default
    metrics registry. *)
val add : collector -> t -> unit

(** Diagnostics in recording order. *)
val to_list : collector -> t list

val error_count : collector -> int

(** {1 Exception capture} *)

(** Run [f], turning input-level exceptions into [Error d]; internal
    errors still escape. *)
val capture : ?file:string -> phase:phase -> (unit -> 'a) -> ('a, t) result

(** {1 CLI exit codes} *)

val exit_ok : int  (** 0 *)

val exit_input : int  (** 2 — malformed source or corrupt database *)

val exit_internal : int
(** 3 — unexpected internal failure.  Also the strict-link policy's
    verdict on an incomplete program: `cla link` without [--open-world]
    raises a [Link]-phase {!Fail} naming the undefined functions, so a
    build that silently lost a translation unit stops the pipeline
    instead of producing a database whose analysis would be unsound.
    Re-link with [--open-world] to accept the incompleteness and havoc
    the missing code (exit 0). *)

val exit_deadline : int
(** 4 — the analysis deadline expired (or a served query was refused
    for capacity) and no fallback was allowed to answer *)
