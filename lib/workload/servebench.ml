(** Load generator for [cla serve-bench]: a deterministic mixed stream
    of good, poisoned, and slow queries.

    The stream is the server's resilience exam in miniature: good
    queries must be answered, poisoned ones must come back as clean
    ["error"] responses (never a dead connection), and slow ones must
    either time out within their deadline or, by hogging execution
    slots, force admission control to shed the queries behind them.  The
    bench driver tallies the responses; the invariant it checks is that
    {e every} query gets exactly one classified answer and the server
    survives the whole stream. *)

open Cla_obs

type kind =
  | Good  (** well-formed points-to/alias/ping/stats over known vars *)
  | Poison  (** malformed json, unknown ops, unknown variables *)
  | Slow  (** [sleep] ops that outlive their deadline or hog a slot *)

let kind_name = function Good -> "good" | Poison -> "poison" | Slow -> "slow"

type query = { q_id : int; q_kind : kind; q_line : string }

type mix = { m_good : int; m_poison : int; m_slow : int }
(** Relative weights; they need not sum to anything in particular. *)

let default_mix = { m_good = 6; m_poison = 2; m_slow = 2 }

let obj fields = Json.to_string ~indent:false (Json.Obj fields)

let base id op = [ ("id", Json.Int id); ("op", Json.Str op) ]

let with_deadline ms fields = fields @ [ ("deadline_ms", Json.Int ms) ]

let with_fresh fresh fields =
  if fresh then fields @ [ ("fresh", Json.Bool true) ] else fields

let good rng ~id ~vars ~deadline_ms ~fresh_frac =
  let fresh () = fresh_frac > 0. && Rng.flip rng fresh_frac in
  match Rng.int rng 10 with
  | 0 -> obj (base id "ping")
  | 1 -> obj (base id "stats")
  | 2 | 3 | 4 ->
      let a = Rng.choose rng vars and b = Rng.choose rng vars in
      obj
        (with_fresh (fresh ())
           (with_deadline deadline_ms
              (base id "alias" @ [ ("var", Json.Str a); ("var2", Json.Str b) ])))
  | _ ->
      obj
        (with_fresh (fresh ())
           (with_deadline deadline_ms
              (base id "points-to" @ [ ("var", Json.Str (Rng.choose rng vars)) ])))

let poison rng ~id ~vars =
  match Rng.int rng 6 with
  | 0 -> "{\"id\":" ^ string_of_int id ^ ",\"op\":\"points-to\""  (* truncated *)
  | 1 -> "not json at all"
  | 2 -> obj (base id "frobnicate")
  | 3 -> obj (base id "points-to")  (* missing "var" *)
  | 4 -> obj (base id "sleep" @ [ ("ms", Json.Int (-5)) ])
  | _ ->
      (* well-formed but naming a variable the program does not have *)
      let ghost = "no_such_var_" ^ string_of_int (Rng.int rng 1000) in
      ignore vars;
      obj (base id "points-to" @ [ ("var", Json.Str ghost) ])

let slow rng ~id ~slow_ms =
  if Rng.flip rng 0.5 then
    (* sleeps past its own deadline: must come back as a timeout *)
    obj
      (with_deadline (max 1 (slow_ms / 4))
         (base id "sleep" @ [ ("ms", Json.Int slow_ms) ]))
  else
    (* sleeps within its deadline: hogs a slot so queries behind it
       queue up and, past the queue bound, get shed *)
    obj
      (with_deadline (slow_ms * 4)
         (base id "sleep" @ [ ("ms", Json.Int slow_ms) ]))

let sample_vars (view : Cla_core.Objfile.view) =
  let named (vi : Cla_core.Objfile.varinfo) =
    vi.vname <> ""
    && (not (String.contains vi.vname '$'))
    && vi.vkind <> Cla_ir.Var.Temp
  in
  Array.to_seq view.rvars |> Seq.filter named |> Seq.take 32
  |> Seq.map (fun (vi : Cla_core.Objfile.varinfo) -> vi.vname)
  |> Array.of_seq

let generate ?(mix = default_mix) ?(fresh_frac = 0.) ~seed ~n ~vars
    ~deadline_ms ~slow_ms () =
  if Array.length vars = 0 then invalid_arg "Servebench.generate: no variables";
  let rng = Rng.create seed in
  let total = max 1 (mix.m_good + mix.m_poison + mix.m_slow) in
  List.init n (fun id ->
      let roll = Rng.int rng total in
      let q_kind =
        if roll < mix.m_good then Good
        else if roll < mix.m_good + mix.m_poison then Poison
        else Slow
      in
      let q_line =
        match q_kind with
        | Good -> good rng ~id ~vars ~deadline_ms ~fresh_frac
        | Poison -> poison rng ~id ~vars
        | Slow -> slow rng ~id ~slow_ms
      in
      { q_id = id; q_kind; q_line })

(* ------------------------------------------------------------------ *)
(* Fault schedule (the chaos harness)                                  *)
(* ------------------------------------------------------------------ *)

type fault =
  | Kill_shard of int  (** make the shard's worker domain die *)
  | Wedge_shard of int * int  (** shard, wedge duration in ms *)

type fault_event = { f_at_ms : int; f_fault : fault }

let fault_name = function
  | Kill_shard i -> Printf.sprintf "kill:%d" i
  | Wedge_shard (i, ms) -> Printf.sprintf "wedge:%d/%dms" i ms

(* A deterministic schedule of [kills] kill events and [wedges] wedge
   events, spread over the middle of a [span_ms] run (never in the first
   or last tenth, so every fault lands while the query stream is
   actually flowing and recovery is observable before the stream ends).
   Shards are picked round-robin-ish from the rng so multi-shard servers
   see faults on different replicas. *)
let fault_schedule ?(kills = 2) ?(wedges = 1) ~seed ~shards ~span_ms ~wedge_ms
    () =
  if shards <= 0 then invalid_arg "Servebench.fault_schedule: no shards";
  let rng = Rng.create seed in
  let lo = span_ms / 10 and hi = span_ms - (span_ms / 10) in
  let at () = lo + Rng.int rng (max 1 (hi - lo)) in
  let evs =
    List.init kills (fun _ ->
        { f_at_ms = at (); f_fault = Kill_shard (Rng.int rng shards) })
    @ List.init wedges (fun _ ->
          { f_at_ms = at (); f_fault = Wedge_shard (Rng.int rng shards, wedge_ms) })
  in
  List.sort (fun a b -> compare a.f_at_ms b.f_at_ms) evs
