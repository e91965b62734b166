(** Structured diagnostics for the compile-link-analyze pipeline.

    Instead of aborting the whole run with an uncaught exception, each
    phase can record a diagnostic — severity, phase, offending file,
    source location, message — and keep going past the failing input
    (PIP-style graceful degradation: one malformed translation unit or
    one corrupt object file must not kill a million-line run).

    Errors are mirrored into the {!Cla_obs.Metrics} registry under
    per-phase counters ([compile.errors], [link.errors], [load.corrupt],
    [analyze.errors]) so the [--stats]/[--stats-json] exports account
    for skipped inputs. *)

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

(** Raised by pipeline entry points that cannot return a [result]; the
    CLI guard turns it into a one-line diagnostic and a distinct exit
    code. *)
exception Fail of t

let phase_name = function
  | Compile -> "compile"
  | Link -> "link"
  | Load -> "load"
  | Analyze -> "analyze"

(** Metric bumped when an error in this phase is recorded.  [Load]
    failures are corruption by construction ([load.corrupt]). *)
let metric_of_phase = function
  | Compile -> "compile.errors"
  | Link -> "link.errors"
  | Load -> "load.corrupt"
  | Analyze -> "analyze.errors"

let error ?file ?loc ~phase message =
  { severity = Error; phase; file; loc; message }

let warning ?file ?loc ~phase message =
  { severity = Warning; phase; file; loc; message }

let fail ?file ?loc ~phase message =
  raise (Fail (error ?file ?loc ~phase message))

let pp ppf d =
  let sev = match d.severity with Error -> "error" | Warning -> "warning" in
  (match (d.file, d.loc) with
  | _, Some loc -> Fmt.pf ppf "%a: " Loc.pp loc
  | Some file, None -> Fmt.pf ppf "%s: " file
  | None, None -> ());
  Fmt.pf ppf "%s %s: %s" (phase_name d.phase) sev d.message

let to_string d = Fmt.str "%a" pp d

(* ------------------------------------------------------------------ *)
(* Collector (keep-going mode)                                         *)
(* ------------------------------------------------------------------ *)

(** Accumulates diagnostics across a multi-input run; recording an error
    bumps the matching phase counter in the metrics registry. *)
type collector = { mutable diags : t list (* reversed *) }

let collector () = { diags = [] }

let add c d =
  c.diags <- d :: c.diags;
  if d.severity = Error then Cla_obs.Metrics.incr (metric_of_phase d.phase)

let to_list c = List.rev c.diags

let error_count c =
  List.length (List.filter (fun d -> d.severity = Error) c.diags)

(* ------------------------------------------------------------------ *)
(* Exception capture                                                   *)
(* ------------------------------------------------------------------ *)

(** Exceptions a phase is allowed to fail with — everything the C front
    end and the object-file reader raise on bad {e input}, as opposed to
    internal invariant violations. *)
let diag_of_exn ?file ~phase = function
  | Cla_cfront.Cparser.Parse_error (msg, loc) ->
      Some (error ?file ~loc ~phase ("parse error: " ^ msg))
  | Cla_cfront.Cpp.Cpp_error (msg, f, line) ->
      Some
        (error ?file
           ~loc:(Loc.make ~file:f ~line ~col:0)
           ~phase ("cpp error: " ^ msg))
  | Cla_cfront.Clexer.Error (msg, loc) ->
      (* the column is exact here (unlike a token's), so say it: the
         printed location keeps the paper's <file:line> form *)
      Some
        (error ?file ~loc ~phase
           (Fmt.str "lex error: %s at column %d" msg loc.Loc.col))
  | Binio.Corrupt msg -> Some (error ?file ~phase ("corrupt object file: " ^ msg))
  | Fail d -> Some d
  | Sys_error msg -> Some (error ?file ~phase msg)
  | _ -> None

(** Run [f], turning input-level exceptions into [Error d].  Internal
    errors (anything {!diag_of_exn} does not recognize) still escape. *)
let capture ?file ~phase f =
  match f () with
  | v -> Ok v
  | exception e -> (
      match diag_of_exn ?file ~phase e with
      | Some d -> Error d
      | None -> raise e)

(* ------------------------------------------------------------------ *)
(* Exit codes                                                          *)
(* ------------------------------------------------------------------ *)

(* The CLI contract: usage errors keep cmdliner's 124; bad input (parse
   errors, corrupt databases) and internal failures are separated so
   scripts can retry or alert appropriately. *)
let exit_ok = 0
let exit_input = 2
let exit_internal = 3
let exit_deadline = 4
