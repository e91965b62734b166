(** Export: the metrics registry plus the span tree, as a human-readable
    table ([--stats]) or a machine-readable JSON document
    ([--stats-json]). *)

val span_json : Span.t -> Json.t

(** The full export: [{"metrics": {...}, "spans": [...]}], metrics sorted
    by name, spans in execution order.  [reg] defaults to
    {!Metrics.default}. *)
val to_json : ?reg:Metrics.t -> unit -> Json.t

(** Write {!to_json} (plus trailing newline) to [path]. *)
val write_json : ?reg:Metrics.t -> string -> unit

(** Render the span tree and the registry as an indented text table. *)
val pp_table : ?reg:Metrics.t -> Format.formatter -> unit -> unit
