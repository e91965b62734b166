(** The `cla serve` wire protocol: one JSON object per request line,
    exactly one JSON response line each.  See {!parse} for the request
    shapes and the response constructors for the answer shapes; the
    numeric [code] fields (200/400/404/429/503/504) are advisory labels
    for client backoff logic, not an HTTP implementation. *)

open Cla_obs

type op =
  | Points_to of string
  | Alias of string * string
  | Ping
  | Stats
  | Sleep of int  (** milliseconds; gated by the server's [allow_sleep] *)
  | Reanalyze
      (** rescan the watched directory now and swap in the fresh
          solution; rejected on servers not started with [--watch] *)

type request = {
  r_id : Json.t;  (** echoed verbatim; [Null] when absent *)
  r_op : op;
  r_deadline_ms : int option;
  r_fresh : bool;  (** bypass the cached solution and re-solve *)
}

(** Parse one request line.  The error carries whatever ["id"] the line
    managed to include (else [Null]) so the error response can still be
    correlated. *)
val parse : string -> (request, Json.t * string) result

(** Per-query server-side timing, attached to ok responses under a
    ["server"] field.  Additive — old clients ignore it. *)
type telemetry = {
  t_shard : int;  (** -1 when answered without a shard (single mode) *)
  t_queue_ms : float;
  t_solve_ms : float;
  t_server_ms : float;
  t_cache_hit : bool;
}

val ok_points_to :
  id:Json.t ->
  ?telemetry:telemetry ->
  rung:string ->
  degraded:bool ->
  var:string ->
  targets:string list ->
  unit ->
  string

val ok_alias :
  id:Json.t ->
  ?telemetry:telemetry ->
  rung:string ->
  degraded:bool ->
  var:string ->
  var2:string ->
  aliased:bool ->
  unit ->
  string

val ok_ping : id:Json.t -> string
val ok_sleep : id:Json.t -> ms:int -> string

(** The reanalyze answer: the post-rescan [epoch] (swaps since boot),
    how many watched files changed (or, when no stat moved, how many
    units recompiled; [0] = no-op, nothing swapped), and
    the incremental-update accounting for the swap. *)
val ok_reanalyze :
  id:Json.t ->
  epoch:int ->
  changed:int ->
  sources:int ->
  cache_hits:int ->
  cache_misses:int ->
  resumed:bool ->
  wall_ms:float ->
  unit ->
  string

(** [extra] rides next to the flat [counters] object (kept for old
    clients): uptime, inflight, per-shard percentile blocks. *)
val ok_stats :
  id:Json.t -> ?extra:(string * Json.t) list -> (string * int) list -> string

val timeout :
  id:Json.t -> at_pass:int -> elapsed_ms:float -> detail:string -> string

val shed : id:Json.t -> retry_after_ms:int -> string
val error : id:Json.t -> ?code:int -> string -> string
val bye : id:Json.t -> string

(** Classification of a response line, for retry logic and tallying. *)
type status = S_ok | S_shed | S_timeout | S_error | S_bye | S_malformed

val status_of_line : string -> status
val status_name : status -> string
val retry_after_ms_of_line : string -> int option
