(** The `cla serve` wire protocol: one JSON object per line, each
    request answered by exactly one JSON response line on the same
    connection.

    Requests:
    {v
    {"id":7,"op":"points-to","var":"p","deadline_ms":100,"fresh":false}
    {"id":8,"op":"alias","var":"p","var2":"q"}
    {"id":9,"op":"ping"}          {"id":10,"op":"stats"}
    {"id":11,"op":"sleep","ms":50}   (debug; gated by --allow-sleep)
    {"id":12,"op":"reanalyze"}       (servers started with --watch)
    v}

    Responses always carry ["status"] and echo ["id"] (null when the
    request was too malformed to have one):
    - ["ok"] — the answer, with the ladder rung that produced it;
    - ["timeout"] (code 504) — the deadline passed or the watchdog
      cancelled the query; carries the abort progress;
    - ["shed"] (code 429) — admission control refused the query because
      the in-flight queue is full; carries [retry_after_ms];
    - ["error"] (code 400/404) — malformed request or unknown variable;
      (code 503) — the query needs a solve and no solver shard is left;
    - ["bye"] (code 503) — the server is draining; reconnect later.

    The HTTP-flavored codes are advisory labels for client backoff
    logic, not an HTTP implementation. *)

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

(* Parse errors keep whatever "id" the line managed to carry so the
   error response can still be correlated by the client. *)
let parse line : (request, Json.t * string) result =
  match Json.of_string line with
  | exception Json.Parse_error m -> Error (Json.Null, "bad json: " ^ m)
  | Json.Obj _ as j -> (
      let id = Option.value ~default:Json.Null (Json.member "id" j) in
      let str k =
        match Json.member k j with Some (Json.Str s) -> Some s | _ -> None
      in
      let int k = Option.bind (Json.member k j) Json.to_int in
      let mk r_op =
        Ok
          {
            r_id = id;
            r_op;
            r_deadline_ms = int "deadline_ms";
            r_fresh =
              (match Json.member "fresh" j with
              | Some (Json.Bool b) -> b
              | _ -> false);
          }
      in
      match str "op" with
      | None -> Error (id, "missing or non-string \"op\"")
      | Some "points-to" -> (
          match str "var" with
          | Some v -> mk (Points_to v)
          | None -> Error (id, "points-to: missing \"var\""))
      | Some "alias" -> (
          match (str "var", str "var2") with
          | Some a, Some b -> mk (Alias (a, b))
          | _ -> Error (id, "alias: missing \"var\" or \"var2\""))
      | Some "ping" -> mk Ping
      | Some "stats" -> mk Stats
      | Some "reanalyze" -> mk Reanalyze
      | Some "sleep" -> (
          match int "ms" with
          | Some ms when ms >= 0 -> mk (Sleep ms)
          | _ -> Error (id, "sleep: missing or negative \"ms\""))
      | Some o -> Error (id, Printf.sprintf "unknown op %S" o))
  | _ -> Error (Json.Null, "request must be a json object")

(* ------------------------------------------------------------------ *)
(* Responses                                                           *)
(* ------------------------------------------------------------------ *)

let line j = Json.to_string ~indent:false j

let resp id status code extra =
  line
    (Json.Obj
       (("id", id)
       :: ("status", Json.Str status)
       :: ("code", Json.Int code)
       :: extra))

(* Per-query server-side telemetry, attached to ok responses under a
   "server" field.  Additive: clients that predate it ignore unknown
   fields, so old clients keep working against new servers. *)
type telemetry = {
  t_shard : int;  (** -1 when answered without a shard (single mode) *)
  t_queue_ms : float;
  t_solve_ms : float;
  t_server_ms : float;
  t_cache_hit : bool;
}

let telemetry_json t =
  Json.Obj
    [
      ("shard", Json.Int t.t_shard);
      ("queue_ms", Json.Float t.t_queue_ms);
      ("solve_ms", Json.Float t.t_solve_ms);
      ("server_ms", Json.Float t.t_server_ms);
      ("cache_hit", Json.Bool t.t_cache_hit);
    ]

let telemetry_field = function
  | None -> []
  | Some t -> [ ("server", telemetry_json t) ]

let ok_points_to ~id ?telemetry ~rung ~degraded ~var ~targets () =
  resp id "ok" 200
    ([
       ("op", Json.Str "points-to");
       ("var", Json.Str var);
       ("rung", Json.Str rung);
       ("degraded", Json.Bool degraded);
       ("targets", Json.Arr (List.map (fun s -> Json.Str s) targets));
     ]
    @ telemetry_field telemetry)

let ok_alias ~id ?telemetry ~rung ~degraded ~var ~var2 ~aliased () =
  resp id "ok" 200
    ([
       ("op", Json.Str "alias");
       ("var", Json.Str var);
       ("var2", Json.Str var2);
       ("rung", Json.Str rung);
       ("degraded", Json.Bool degraded);
       ("aliased", Json.Bool aliased);
     ]
    @ telemetry_field telemetry)

let ok_ping ~id = resp id "ok" 200 [ ("op", Json.Str "ping") ]

(* [changed = 0] means the rescan found every unit unchanged and left
   the solution alone. *)
let ok_reanalyze ~id ~epoch ~changed ~sources ~cache_hits ~cache_misses
    ~resumed ~wall_ms () =
  resp id "ok" 200
    [
      ("op", Json.Str "reanalyze");
      ("epoch", Json.Int epoch);
      ("changed", Json.Int changed);
      ("sources", Json.Int sources);
      ("cache_hits", Json.Int cache_hits);
      ("cache_misses", Json.Int cache_misses);
      ("resumed", Json.Bool resumed);
      ("wall_ms", Json.Float wall_ms);
    ]

let ok_sleep ~id ~ms =
  resp id "ok" 200 [ ("op", Json.Str "sleep"); ("ms", Json.Int ms) ]

(* [extra] carries the live-introspection payload (uptime, inflight,
   per-shard percentiles) next to the flat counters kept for old
   clients. *)
let ok_stats ~id ?(extra = []) counters =
  resp id "ok" 200
    (( "op", Json.Str "stats")
    :: ( "counters",
         Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) counters) )
    :: extra)

let timeout ~id ~at_pass ~elapsed_ms ~detail =
  resp id "timeout" 504
    [
      ("at_pass", Json.Int at_pass);
      ("elapsed_ms", Json.Int (int_of_float elapsed_ms));
      ("detail", Json.Str detail);
    ]

let shed ~id ~retry_after_ms =
  resp id "shed" 429 [ ("retry_after_ms", Json.Int retry_after_ms) ]

let error ~id ?(code = 400) msg = resp id "error" code [ ("message", Json.Str msg) ]

let bye ~id = resp id "bye" 503 [ ("message", Json.Str "server draining") ]

(* ------------------------------------------------------------------ *)
(* Response classification (clients, retry logic, serve-bench)         *)
(* ------------------------------------------------------------------ *)

type status = S_ok | S_shed | S_timeout | S_error | S_bye | S_malformed

let status_of_line l =
  match Json.of_string l with
  | exception Json.Parse_error _ -> S_malformed
  | j -> (
      match Json.member "status" j with
      | Some (Json.Str "ok") -> S_ok
      | Some (Json.Str "shed") -> S_shed
      | Some (Json.Str "timeout") -> S_timeout
      | Some (Json.Str "error") -> S_error
      | Some (Json.Str "bye") -> S_bye
      | _ -> S_malformed)

let status_name = function
  | S_ok -> "ok"
  | S_shed -> "shed"
  | S_timeout -> "timeout"
  | S_error -> "error"
  | S_bye -> "bye"
  | S_malformed -> "malformed"

let retry_after_ms_of_line l =
  match Json.of_string l with
  | exception Json.Parse_error _ -> None
  | j -> Option.bind (Json.member "retry_after_ms" j) Json.to_int
