(* Tests for the resilience layer: deadline sweeps over the solvers (a
   solve either returns the exact solution or unwinds with a typed
   timeout — never a crash, never a partial answer), the degradation
   ladder's always-answers + soundness contract, cooperative
   cancellation, and the query server surviving a mixed
   good/poisoned/slow stream. *)

open Cla_core
open Cla_resilience

let view_of src =
  Objfile.view_of_string (Objfile.write (Compilep.compile_string ~file:"t.c" src))

(* A workload big enough that tight deadlines actually interrupt it. *)
let big_files =
  lazy
    (let p =
       Cla_workload.Profile.scaled 0.08
         (Option.get (Cla_workload.Profile.find "burlap"))
     in
     Cla_workload.Genc.generate ~seed:7L p)

let big_view = lazy (Pipeline.compile_link (Lazy.force big_files))

(* The same workload linked open-world, plus one call into code that is
   not there. *)
let big_open_view =
  lazy
    (Pipeline.compile_link ~undefined:Linkp.Open_world
       (( "ext.c",
          "int *ext_p;\nvoid missing(int **q);\n\
           void ext_start(void) { missing(&ext_p); }\n" )
       :: Lazy.force big_files))

let baseline = lazy (Andersen.solve ~demand:false (Lazy.force big_view))

(* For every program variable, the candidate's answer must contain the
   exact (Andersen) points-to set: subset rungs are exact and the
   unification rung over-approximates, so a missing target would be a
   soundness bug, not a precision loss. *)
let check_sound_superset base (sol : Solution.t) =
  let ok = ref true in
  for v = 0 to Array.length base.Solution.pts - 1 do
    if Solution.is_program_var base v then
      Lvalset.iter
        (fun tgt -> if not (Lvalset.mem tgt (Solution.points_to sol v)) then ok := false)
        (Solution.points_to base v)
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Deadline sweep                                                      *)
(* ------------------------------------------------------------------ *)

(* Sweep deadlines from "instantly expired" to "effectively infinite":
   every solve must either agree with the unhurried baseline (exactly
   for the subset-based solvers, as a sound superset for unification) or
   unwind with [Timed_out] carrying sane progress.  Catching anything
   else (or a partial solution) fails the test. *)
let sweep_one ?(exact = true) solve =
  let view = Lazy.force big_view in
  let base = (Lazy.force baseline).Andersen.solution in
  let timeouts = ref 0 and completions = ref 0 in
  List.iter
    (fun seconds ->
      let deadline =
        if seconds = infinity then Deadline.never else Deadline.after ~seconds
      in
      match solve ~deadline view with
      | (sol : Solution.t) ->
          incr completions;
          if exact then
            Alcotest.(check bool)
              (Fmt.str "deadline %g: completed solve is exact" seconds)
              true (Solution.equal base sol)
          else
            Alcotest.(check bool)
              (Fmt.str "deadline %g: completed solve is a sound superset"
                 seconds)
              true
              (check_sound_superset base sol)
      | exception Deadline.Timed_out p ->
          incr timeouts;
          Alcotest.(check bool)
            (Fmt.str "deadline %g: progress is sane" seconds)
            true
            (p.Progress.at_pass >= 0 && p.Progress.elapsed_s >= 0.))
    [ 0.; 1e-5; 1e-4; 1e-3; 5e-3; 0.05; infinity ];
  (* the extremes must behave: 0 always times out, infinity never *)
  Alcotest.(check bool) "zero deadline timed out" true (!timeouts >= 1);
  Alcotest.(check bool) "unbounded solve completed" true (!completions >= 1)

let test_sweep_pretransitive () =
  sweep_one (fun ~deadline view ->
      (Andersen.solve ~demand:false ~deadline view).Andersen.solution)

let test_sweep_worklist () =
  sweep_one (fun ~deadline view ->
      Pipeline.points_to ~algorithm:Pipeline.Worklist ~deadline view)

let test_sweep_bitvector () =
  sweep_one (fun ~deadline view ->
      Pipeline.points_to ~algorithm:Pipeline.Bitvector ~deadline view)

let test_sweep_steensgaard () =
  sweep_one ~exact:false (fun ~deadline view ->
      Pipeline.points_to ~algorithm:Pipeline.Steensgaard ~deadline view)

(* ------------------------------------------------------------------ *)
(* Degradation ladder                                                  *)
(* ------------------------------------------------------------------ *)

let test_ladder_always_answers () =
  let view = Lazy.force big_view in
  let base = (Lazy.force baseline).Andersen.solution in
  let saw_degraded = ref false in
  List.iter
    (fun seconds ->
      let deadline =
        if seconds = infinity then Deadline.never else Deadline.after ~seconds
      in
      let o = Pipeline.points_to_ladder ~deadline view in
      if o.Pipeline.lo_degraded then saw_degraded := true;
      Alcotest.(check bool)
        (Fmt.str "deadline %g: ladder answer is a sound superset" seconds)
        true
        (check_sound_superset base o.Pipeline.lo_solution);
      (* the answer is labeled with the rung that produced it *)
      match Solution.provenance o.Pipeline.lo_solution with
      | None -> Alcotest.fail "ladder solution has no provenance"
      | Some p ->
          Alcotest.(check string)
            (Fmt.str "deadline %g: provenance rung" seconds)
            (Pipeline.algorithm_name o.Pipeline.lo_algorithm)
            p.Solution.p_rung;
          Alcotest.(check bool)
            (Fmt.str "deadline %g: degraded flags agree" seconds)
            o.Pipeline.lo_degraded p.Solution.p_degraded)
    [ 0.; 1e-4; 1e-3; infinity ];
  (* the zero deadline must actually exercise the fallback path *)
  Alcotest.(check bool) "some deadline degraded" true !saw_degraded

let test_ladder_zero_deadline_lands_on_final_rung () =
  let view = Lazy.force big_view in
  let o = Pipeline.points_to_ladder ~deadline:(Deadline.of_ms 0) view in
  Alcotest.(check bool) "degraded" true o.Pipeline.lo_degraded;
  Alcotest.(check string) "answered by the final rung" "steensgaard"
    (Pipeline.algorithm_name o.Pipeline.lo_algorithm);
  (* the paper's rung reported its timeout with its progress *)
  Alcotest.(check (list string)) "one timeout, the paper's rung"
    [ "pretransitive" ]
    (List.map (fun (a, _) -> Pipeline.algorithm_name a) o.Pipeline.lo_timeouts)

let test_ladder_generous_deadline_stays_exact () =
  let view = Lazy.force big_view in
  let base = (Lazy.force baseline).Andersen.solution in
  let o =
    Pipeline.points_to_ladder ~deadline:(Deadline.after ~seconds:120.) view
  in
  Alcotest.(check bool) "not degraded" false o.Pipeline.lo_degraded;
  Alcotest.(check string) "answered by the paper's rung" "pretransitive"
    (Pipeline.algorithm_name o.Pipeline.lo_algorithm);
  Alcotest.(check bool) "exact answer" true
    (Solution.equal base o.Pipeline.lo_solution)

(* Steensgaard cannot analyze an open world, so the paper's solver is
   the final rung there: it runs past an expired deadline and its exact
   answer is not labeled degraded. *)
let test_ladder_open_world_runs_to_completion () =
  let view = Lazy.force big_open_view in
  Alcotest.(check bool) "open-world view" true
    (view.Objfile.ropenworld <> None);
  let o = Pipeline.points_to_ladder ~deadline:(Deadline.of_ms 0) view in
  Alcotest.(check string) "answered by the paper's rung" "pretransitive"
    (Pipeline.algorithm_name o.Pipeline.lo_algorithm);
  Alcotest.(check bool) "not degraded" false o.Pipeline.lo_degraded;
  Alcotest.(check int) "no timeouts" 0 (List.length o.Pipeline.lo_timeouts);
  Alcotest.(check bool) "exact answer" true
    (Solution.equal (Pipeline.points_to view) o.Pipeline.lo_solution)

let test_ladder_cancel_preset () =
  List.iter
    (fun (world, view) ->
      List.iter
        (fun (label, deadline) ->
          let cancel = Cancel.create () in
          Cancel.set cancel;
          match Pipeline.points_to_ladder ~deadline ~cancel view with
          | _ ->
              Alcotest.failf "%s, %s: pre-set cancel token should abort the \
                              ladder" world label
          | exception Cancel.Cancelled _ -> ())
        [ ("no deadline", Deadline.never); ("zero deadline", Deadline.of_ms 0) ])
    [
      ("closed world", Lazy.force big_view);
      ("open world", Lazy.force big_open_view);
    ]

let test_ladder_strict_can_time_out () =
  let view = Lazy.force big_view in
  match
    Pipeline.points_to_ladder ~strict:true ~deadline:(Deadline.of_ms 0) view
  with
  | _ -> Alcotest.fail "strict ladder with zero deadline should time out"
  | exception Deadline.Timed_out _ -> ()

(* ------------------------------------------------------------------ *)
(* Cancellation                                                        *)
(* ------------------------------------------------------------------ *)

let test_cancel_preset () =
  let view = Lazy.force big_view in
  let cancel = Cancel.create () in
  Cancel.set cancel;
  match Andersen.solve ~demand:false ~cancel view with
  | _ -> Alcotest.fail "pre-set cancel token should abort the solve"
  | exception Cancel.Cancelled p ->
      (* checked at solve entry: no pass may run after cancellation *)
      Alcotest.(check int) "aborted before the first pass" 0
        p.Progress.at_pass

let test_cancel_from_another_thread () =
  let view = Lazy.force big_view in
  let cancel = Cancel.create () in
  let killer = Thread.create (fun () -> Thread.delay 0.005; Cancel.set cancel) () in
  let outcome =
    match Andersen.solve ~demand:false ~cancel view with
    | r -> `Finished r.Andersen.passes
    | exception Cancel.Cancelled p -> `Cancelled p.Progress.at_pass
  in
  Thread.join killer;
  match outcome with
  | `Finished _ -> () (* small machine won the race: fine, solve was exact *)
  | `Cancelled at_pass ->
      (* the token is polled inside every pass, so the abort lands
         during the pass in flight when it was set — it never runs the
         solve to completion first *)
      Alcotest.(check bool) "aborted at a real pass" true (at_pass >= 0)

let test_algorithm_of_string_case_insensitive () =
  List.iter
    (fun (s, want) ->
      Alcotest.(check bool)
        s true
        (Pipeline.algorithm_of_string s = want))
    [
      ("Pretransitive", Some Pipeline.Pretransitive);
      ("BITVECTOR", Some Pipeline.Bitvector);
      ("Steensgaard", Some Pipeline.Steensgaard);
      ("WorkList", Some Pipeline.Worklist);
      ("bitvec", Some Pipeline.Bitvector);
      ("nope", None);
    ]

(* ------------------------------------------------------------------ *)
(* Server under a hostile stream                                       *)
(* ------------------------------------------------------------------ *)

(* Boot an in-process server over a small database, drive the Servebench
   mixed good/poison/slow stream through real sockets from several
   client threads, then drain.  The server must answer every line with
   a well-formed classified response and survive to return its stats. *)
let test_server_survives_mixed_stream () =
  let view =
    view_of
      "int x, y; int *p, *q;\n\
       void f(void) { p = &x; q = p; }\n\
       void g(void) { q = &y; }"
  in
  let dir = Filename.temp_file "cla_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  let config =
    {
      Cla_serve.Server.default_config with
      socket_path = socket;
      max_inflight = 1;
      max_queue = 1;
      default_deadline_ms = 500;
      watchdog_grace_ms = 50;
      allow_sleep = true;
    }
  in
  let handle = ref None in
  let ready_m = Mutex.create () and ready_c = Condition.create () in
  let server =
    Thread.create
      (fun () ->
        Cla_serve.Server.run ~config
          ~on_ready:(fun t ->
            Mutex.lock ready_m;
            handle := Some t;
            Condition.signal ready_c;
            Mutex.unlock ready_m)
          view)
      ()
  in
  Mutex.lock ready_m;
  while !handle = None do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  let queries =
    Cla_workload.Servebench.generate ~seed:11L ~n:40
      ~vars:[| "p"; "q"; "x" |] ~deadline_ms:400 ~slow_ms:60 ()
  in
  let qs = Array.of_list queries in
  let replies = Array.make (Array.length qs) None in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length qs then begin
        replies.(i) <-
          Some
            (Cla_serve.Client.with_retry
               ~policy:{ Cla_serve.Client.default_policy with seed = i }
               ~socket qs.(i).Cla_workload.Servebench.q_line);
        loop ()
      end
    in
    loop ()
  in
  let clients = List.init 4 (fun _ -> Thread.create worker ()) in
  List.iter Thread.join clients;
  (match !handle with
  | Some t -> Cla_serve.Server.request_shutdown t
  | None -> ());
  Thread.join server;
  (* every query got exactly one well-formed, classified response *)
  Array.iteri
    (fun i r ->
      match r with
      | None -> Alcotest.fail (Fmt.str "query %d never ran" i)
      | Some o -> (
          match o.Cla_serve.Client.reply with
          | Error e ->
              Alcotest.fail
                (Fmt.str "query %d: transport error: %s" i
                   (Cla_serve.Client.describe e))
          | Ok line -> (
              match Cla_serve.Protocol.status_of_line line with
              | Cla_serve.Protocol.S_malformed ->
                  Alcotest.fail (Fmt.str "query %d: malformed reply %s" i line)
              | _ -> ())))
    replies;
  (* poisoned queries must have come back as clean errors *)
  let poison_errors = ref 0 and n_poison = ref 0 in
  Array.iteri
    (fun i q ->
      if q.Cla_workload.Servebench.q_kind = Cla_workload.Servebench.Poison then begin
        incr n_poison;
        match replies.(i) with
        | Some { Cla_serve.Client.reply = Ok line; _ }
          when Cla_serve.Protocol.status_of_line line = Cla_serve.Protocol.S_error
          ->
            incr poison_errors
        | _ -> ()
      end)
    qs;
  Alcotest.(check int) "every poisoned query rejected cleanly" !n_poison
    !poison_errors;
  (* the server unlinks its socket during drain; tolerate either order *)
  (try Sys.remove socket with Sys_error _ -> ());
  Unix.rmdir dir

(* A server with no waiting room sheds immediately while its only slot
   is busy — and the shed response names a retry delay. *)
let test_server_sheds_when_full () =
  let view = view_of "int x; int *p;\nvoid f(void) { p = &x; }" in
  let dir = Filename.temp_file "cla_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  let config =
    {
      Cla_serve.Server.default_config with
      socket_path = socket;
      max_inflight = 1;
      max_queue = 0;
      allow_sleep = true;
    }
  in
  let handle = ref None in
  let ready_m = Mutex.create () and ready_c = Condition.create () in
  let server =
    Thread.create
      (fun () ->
        Cla_serve.Server.run ~config
          ~on_ready:(fun t ->
            Mutex.lock ready_m;
            handle := Some t;
            Condition.signal ready_c;
            Mutex.unlock ready_m)
          view)
      ()
  in
  Mutex.lock ready_m;
  while !handle = None do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  (* occupy the slot with an in-deadline sleep... *)
  let slow =
    Thread.create
      (fun () ->
        Cla_serve.Client.round_trip ~socket
          "{\"id\":0,\"op\":\"sleep\",\"ms\":300,\"deadline_ms\":2000}")
      ()
  in
  Thread.delay 0.05;
  (* ...and the next query must be shed, not queued or dropped *)
  (match Cla_serve.Client.round_trip ~socket "{\"id\":1,\"op\":\"ping\"}" with
  | Error e -> Alcotest.fail (Cla_serve.Client.describe e)
  | Ok line ->
      Alcotest.(check bool) "shed" true
        (Cla_serve.Protocol.status_of_line line = Cla_serve.Protocol.S_shed);
      Alcotest.(check bool) "carries retry_after_ms" true
        (Cla_serve.Protocol.retry_after_ms_of_line line <> None));
  Thread.join slow;
  (match !handle with
  | Some t -> Cla_serve.Server.request_shutdown t
  | None -> ());
  Thread.join server;
  (try Sys.remove socket with Sys_error _ -> ());
  Unix.rmdir dir

(* A sharded server answers a live Stats query mid-flight: after a
   hostile Servebench stream, the snapshot must carry the query
   counters, an uptime, one percentile block per shard, and quantiles
   that are internally consistent (p50 <= p99) — all without restarting
   or draining the server. *)
let test_server_stats_introspection () =
  let module Json = Cla_obs.Json in
  let view =
    view_of
      "int x, y; int *p, *q;\n\
       void f(void) { p = &x; q = p; }\n\
       void g(void) { q = &y; }"
  in
  let dir = Filename.temp_file "cla_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  let config =
    {
      Cla_serve.Server.default_config with
      socket_path = socket;
      shards = 2;
      default_deadline_ms = 1000;
      allow_sleep = true;
    }
  in
  let handle = ref None in
  let ready_m = Mutex.create () and ready_c = Condition.create () in
  let server =
    Thread.create
      (fun () ->
        Cla_serve.Server.run ~config
          ~on_ready:(fun t ->
            Mutex.lock ready_m;
            handle := Some t;
            Condition.signal ready_c;
            Mutex.unlock ready_m)
          view)
      ()
  in
  Mutex.lock ready_m;
  while !handle = None do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  let queries =
    Cla_workload.Servebench.generate ~seed:23L ~n:40
      ~vars:[| "p"; "q"; "x" |] ~deadline_ms:800 ~slow_ms:20 ()
  in
  let qs = Array.of_list queries in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < Array.length qs then begin
        ignore
          (Cla_serve.Client.with_retry
             ~policy:{ Cla_serve.Client.default_policy with seed = i }
             ~socket qs.(i).Cla_workload.Servebench.q_line);
        loop ()
      end
    in
    loop ()
  in
  let clients = List.init 4 (fun _ -> Thread.create worker ()) in
  List.iter Thread.join clients;
  (* the server is still live: snapshot it *)
  let reply =
    match
      Cla_serve.Client.round_trip ~socket "{\"id\":99,\"op\":\"stats\"}"
    with
    | Error e -> Alcotest.fail (Cla_serve.Client.describe e)
    | Ok line ->
        Alcotest.(check bool) "stats is ok" true
          (Cla_serve.Protocol.status_of_line line = Cla_serve.Protocol.S_ok);
        Json.of_string line
  in
  (* the flat counters saw the stream *)
  let counters = Option.get (Json.member "counters" reply) in
  (match Option.bind (Json.member "serve.queries" counters) Json.to_int with
  | Some n ->
      Alcotest.(check bool) "serve.queries counted the stream" true (n >= 40)
  | None -> Alcotest.fail "serve.queries missing from counters");
  (* live introspection: uptime, per-shard percentile blocks *)
  (match Option.bind (Json.member "uptime_s" reply) Json.to_float with
  | Some u -> Alcotest.(check bool) "uptime_s >= 0" true (u >= 0.)
  | None -> Alcotest.fail "uptime_s missing");
  let pcts block =
    let f name =
      match Option.bind (Json.member name block) Json.to_float with
      | Some v -> v
      | None -> Alcotest.fail (Fmt.str "%s missing from latency block" name)
    in
    (f "p50_ms", f "p99_ms")
  in
  (match Json.member "shards" reply with
  | Some (Json.Arr blocks) ->
      Alcotest.(check int) "one block per shard" 2 (List.length blocks);
      List.iter
        (fun b ->
          let lat = Option.get (Json.member "latency" b) in
          let p50, p99 = pcts lat in
          Alcotest.(check bool) "shard p50 <= p99" true (p50 <= p99))
        blocks
  | _ -> Alcotest.fail "shards array missing");
  (* the merged cross-shard block is consistent and saw every query *)
  (match Json.member "latency" reply with
  | Some merged ->
      let p50, p99 = pcts merged in
      Alcotest.(check bool) "merged p50 <= p99" true (p50 <= p99);
      (match Option.bind (Json.member "count" merged) Json.to_int with
      | Some n ->
          Alcotest.(check bool) "merged count covers the stream" true (n >= 40)
      | None -> Alcotest.fail "merged latency count missing")
  | None -> Alcotest.fail "merged latency block missing");
  (match !handle with
  | Some t -> Cla_serve.Server.request_shutdown t
  | None -> ());
  Thread.join server;
  (try Sys.remove socket with Sys_error _ -> ());
  Unix.rmdir dir

(* Kill a solver shard's worker domain mid-stream: the supervisor must
   notice the death, respawn the worker over the shard's surviving
   queue, and the query stream must never see a failure — the restart
   is invisible except in the serve.shard_restarts counter.  Fresh
   queries force real shard solves so the stream actually exercises the
   killed worker. *)
let test_server_shard_kill_recovers () =
  let view =
    view_of "int x, y; int *p, *q;\nvoid f(void) { p = &x; q = &y; }"
  in
  let dir = Filename.temp_file "cla_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  let config =
    {
      Cla_serve.Server.default_config with
      socket_path = socket;
      shards = 2;
      default_deadline_ms = 4000;
    }
  in
  let handle = ref None in
  let ready_m = Mutex.create () and ready_c = Condition.create () in
  let server =
    Thread.create
      (fun () ->
        Cla_serve.Server.run ~config
          ~on_ready:(fun t ->
            Mutex.lock ready_m;
            handle := Some t;
            Condition.signal ready_c;
            Mutex.unlock ready_m)
          view)
      ()
  in
  Mutex.lock ready_m;
  while !handle = None do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  let h = Option.get !handle in
  let fresh_q id =
    Fmt.str
      "{\"id\":%d,\"op\":\"points-to\",\"var\":\"p\",\"fresh\":true,\"deadline_ms\":4000}"
      id
  in
  (* injection is bounds-checked, and impossible on a shard that is not
     there *)
  Alcotest.(check bool) "kill of shard 0 accepted" true
    (Cla_serve.Server.chaos_kill_shard h 0);
  Alcotest.(check bool) "kill of bogus shard refused" false
    (Cla_serve.Server.chaos_kill_shard h 99);
  (* the stream across the death + restart: every query must answer ok *)
  let ok = ref 0 in
  let n = 20 in
  for i = 1 to n do
    let o =
      Cla_serve.Client.with_retry
        ~policy:{ Cla_serve.Client.default_policy with seed = i }
        ~socket (fresh_q i)
    in
    match o.Cla_serve.Client.reply with
    | Ok line
      when Cla_serve.Protocol.status_of_line line = Cla_serve.Protocol.S_ok ->
        incr ok
    | Ok line -> Alcotest.fail (Fmt.str "query %d: unexpected reply %s" i line)
    | Error e ->
        Alcotest.fail
          (Fmt.str "query %d: transport error: %s" i
             (Cla_serve.Client.describe e))
  done;
  Alcotest.(check int) "every query across the kill answered ok" n !ok;
  (* the restart must land in the counters (the supervisor polls every
     10ms; give it a bounded moment) *)
  let module Json = Cla_obs.Json in
  let restarts () =
    match
      Cla_serve.Client.round_trip ~socket "{\"id\":999,\"op\":\"stats\"}"
    with
    | Error _ -> 0
    | Ok line -> (
        match Json.of_string line with
        | exception Json.Parse_error _ -> 0
        | j ->
            Option.value ~default:0
              (Option.bind
                 (Option.bind (Json.member "counters" j)
                    (Json.member "serve.shard_restarts"))
                 Json.to_int))
  in
  let deadline = Deadline.after ~seconds:3. in
  let rec wait () =
    if restarts () >= 1 then ()
    else if Deadline.expired deadline then
      Alcotest.fail "supervisor never logged the restart"
    else begin
      Thread.delay 0.02;
      wait ()
    end
  in
  wait ();
  Cla_serve.Server.request_shutdown h;
  Thread.join server;
  (try Sys.remove socket with Sys_error _ -> ());
  Unix.rmdir dir

(* A stale socket file (a previous server crashed before unlinking) must
   not block a restart: the new server probes it, finds no listener,
   takes the path over — and removes it again on its own way out. *)
let test_server_stale_socket_takeover () =
  let view = view_of "int x; int *p;\nvoid f(void) { p = &x; }" in
  let dir = Filename.temp_file "cla_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  (* fake the crash residue: bind, listen, close without unlinking *)
  let s = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind s (Unix.ADDR_UNIX socket);
  Unix.listen s 1;
  Unix.close s;
  Alcotest.(check bool) "stale socket file left behind" true
    (Sys.file_exists socket);
  let config =
    { Cla_serve.Server.default_config with socket_path = socket }
  in
  let handle = ref None in
  let ready_m = Mutex.create () and ready_c = Condition.create () in
  let server =
    Thread.create
      (fun () ->
        Cla_serve.Server.run ~config
          ~on_ready:(fun t ->
            Mutex.lock ready_m;
            handle := Some t;
            Condition.signal ready_c;
            Mutex.unlock ready_m)
          view)
      ()
  in
  Mutex.lock ready_m;
  while !handle = None do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  (match Cla_serve.Client.round_trip ~socket "{\"id\":1,\"op\":\"ping\"}" with
  | Error e -> Alcotest.fail (Cla_serve.Client.describe e)
  | Ok line ->
      Alcotest.(check bool) "takeover server answers" true
        (Cla_serve.Protocol.status_of_line line = Cla_serve.Protocol.S_ok));
  (match !handle with
  | Some t -> Cla_serve.Server.request_shutdown t
  | None -> ());
  Thread.join server;
  Alcotest.(check bool) "socket removed at exit" false (Sys.file_exists socket);
  Unix.rmdir dir

(* Boot an in-process server over [view] with [config] (its socket in a
   fresh directory), run [f handle socket], then drain. *)
let with_server config view f =
  let dir = Filename.temp_file "cla_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  let config = { config with Cla_serve.Server.socket_path = socket } in
  let handle = ref None in
  let ready_m = Mutex.create () and ready_c = Condition.create () in
  let server =
    Thread.create
      (fun () ->
        Cla_serve.Server.run ~config
          ~on_ready:(fun t ->
            Mutex.lock ready_m;
            handle := Some t;
            Condition.signal ready_c;
            Mutex.unlock ready_m)
          view)
      ()
  in
  Mutex.lock ready_m;
  while !handle = None do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  let h = Option.get !handle in
  Fun.protect
    ~finally:(fun () ->
      Cla_serve.Server.request_shutdown h;
      Thread.join server;
      (try Sys.remove socket with Sys_error _ -> ());
      Unix.rmdir dir)
    (fun () -> f h socket)

let ask socket line =
  match Cla_serve.Client.round_trip ~socket line with
  | Ok reply -> reply
  | Error e -> Alcotest.fail (Cla_serve.Client.describe e)

let stats_json socket =
  Cla_obs.Json.of_string (ask socket "{\"id\":99,\"op\":\"stats\"}")

let counter j name =
  let module Json = Cla_obs.Json in
  Option.value ~default:0
    (Option.bind
       (Option.bind (Json.member "counters" j) (Json.member name))
       Json.to_int)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Poll the live stats until [ready] holds (bounded; fails the test
   when it never does). *)
let await_stats socket what ready =
  let deadline = Deadline.after ~seconds:5. in
  let rec go () =
    if ready (stats_json socket) then ()
    else if Deadline.expired deadline then Alcotest.fail ("never saw " ^ what)
    else begin
      Thread.delay 0.02;
      go ()
    end
  in
  go ()

(* A start refused at the socket path — a non-socket file there, or a
   live listener — must not leak the query log's descriptor. *)
let test_server_refused_start_closes_log () =
  let view = view_of "int x; int *p;\nvoid f(void) { p = &x; }" in
  let dir = Filename.temp_file "cla_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let file = Filename.concat dir "not-a-socket" in
  let oc = open_out file in
  close_out oc;
  let live = Filename.concat dir "live.sock" in
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listener (Unix.ADDR_UNIX live);
  Unix.listen listener 64;
  let log = Filename.concat dir "queries.jsonl" in
  let open_fds () = Array.length (Sys.readdir "/proc/self/fd") in
  let before = open_fds () in
  for i = 1 to 20 do
    let path = if i mod 2 = 0 then file else live in
    let config =
      {
        Cla_serve.Server.default_config with
        socket_path = path;
        query_log = Some log;
      }
    in
    match Cla_serve.Server.run ~config view with
    | _ -> Alcotest.fail "a start over an occupied path was not refused"
    | exception Sys_error _ -> ()
  done;
  Alcotest.(check int) "no descriptor leaked" before (open_fds ());
  Unix.close listener;
  List.iter
    (fun f -> if Sys.file_exists f then Sys.remove f)
    [ file; live; log ];
  Unix.rmdir dir

(* Single flight: a cold two-shard server hit by eight concurrent
   non-fresh queries solves once — the first query leads, the rest wait
   for its outcome — and every query answers the same. *)
let test_server_single_flight () =
  let module Json = Cla_obs.Json in
  let view =
    view_of
      "int x, y; int *p, *q;\n\
       void f(void) { p = &x; q = p; }\n\
       void g(void) { q = &y; }"
  in
  let config =
    { Cla_serve.Server.default_config with shards = 2; max_inflight = 8 }
  in
  with_server config view @@ fun _ socket ->
  let replies = Array.make 8 "" in
  let threads =
    List.init 8 (fun i ->
        Thread.create
          (fun () ->
            replies.(i) <-
              ask socket
                (Fmt.str "{\"id\":%d,\"op\":\"points-to\",\"var\":\"q\"}" i))
          ())
  in
  List.iter Thread.join threads;
  Array.iter
    (fun r ->
      Alcotest.(check bool) "answered ok" true
        (Cla_serve.Protocol.status_of_line r = Cla_serve.Protocol.S_ok);
      Alcotest.(check bool) "q -> x" true (contains r "\"x\"");
      Alcotest.(check bool) "q -> y" true (contains r "\"y\""))
    replies;
  let solves =
    match Json.member "shards" (stats_json socket) with
    | Some (Json.Arr blocks) ->
        List.fold_left
          (fun acc b ->
            acc
            + Option.value ~default:0
                (Option.bind (Json.member "solves" b) Json.to_int))
          0 blocks
    | _ -> Alcotest.fail "stats carry no shard blocks"
  in
  Alcotest.(check int) "one solve for eight queries" 1 solves

(* Blocking waits keep their answers.  Admission: with the only slot
   held by a sleep, a queued ping whose deadline passes gets the
   admission timeout, and a queued ping with time left is admitted when
   the slot frees.  Dispatch: once the breaker leaves no shard, the
   answer cell still serves, and a query that needs a solve gets the
   typed 503. *)
let test_server_blocking_waits () =
  let view = view_of "int x; int *p;\nvoid f(void) { p = &x; }" in
  let config =
    {
      Cla_serve.Server.default_config with
      max_inflight = 1;
      max_queue = 2;
      allow_sleep = true;
    }
  in
  (with_server config view @@ fun _ socket ->
   let slow =
     Thread.create
       (fun () ->
         ask socket "{\"id\":0,\"op\":\"sleep\",\"ms\":2000,\"deadline_ms\":5000}")
       ()
   in
   (* give the sleep time to take the slot *)
   Thread.delay 0.3;
   let patient = ref "" in
   let waiter =
     Thread.create
       (fun () ->
         patient := ask socket "{\"id\":1,\"op\":\"ping\",\"deadline_ms\":5000}")
       ()
   in
   let hurried = ask socket "{\"id\":2,\"op\":\"ping\",\"deadline_ms\":50}" in
   Alcotest.(check bool) "hurried ping times out" true
     (Cla_serve.Protocol.status_of_line hurried = Cla_serve.Protocol.S_timeout);
   Alcotest.(check bool) "timed out in the admission queue" true
     (contains hurried "deadline passed while queued for admission");
   Thread.join waiter;
   Thread.join slow;
   Alcotest.(check bool) "patient ping answered" true
     (Cla_serve.Protocol.status_of_line !patient = Cla_serve.Protocol.S_ok));
  let config =
    { Cla_serve.Server.default_config with shards = 1; restart_budget = 1 }
  in
  with_server config view @@ fun h socket ->
  let query ?(fresh = false) () =
    ask socket
      (Fmt.str "{\"id\":3,\"op\":\"points-to\",\"var\":\"p\"%s}"
         (if fresh then ",\"fresh\":true" else ""))
  in
  Alcotest.(check bool) "cell filled" true
    (Cla_serve.Protocol.status_of_line (query ()) = Cla_serve.Protocol.S_ok);
  (* one restart fits the budget; the second death trips the breaker *)
  Alcotest.(check bool) "kill accepted" true (Cla_serve.Server.chaos_kill_shard h 0);
  await_stats socket "the restart" (fun j -> counter j "serve.shard_restarts" >= 1);
  Alcotest.(check bool) "kill accepted" true (Cla_serve.Server.chaos_kill_shard h 0);
  await_stats socket "the shard down" (fun j -> counter j "serve.shards_down" = 1);
  let cached = query () in
  Alcotest.(check bool) "the cell still answers" true
    (Cla_serve.Protocol.status_of_line cached = Cla_serve.Protocol.S_ok);
  Alcotest.(check bool) "with the solved targets" true (contains cached "\"x\"");
  let fresh = query ~fresh:true () in
  Alcotest.(check bool) "fresh query refused" true
    (Cla_serve.Protocol.status_of_line fresh = Cla_serve.Protocol.S_error);
  Alcotest.(check bool) "as a 503" true (contains fresh "\"code\": 503");
  Alcotest.(check bool) "no solver shard left" true
    (contains fresh "no solver shard left")

let () =
  Alcotest.run "resilience"
    [
      ( "deadline-sweep",
        [
          Alcotest.test_case "pretransitive" `Quick test_sweep_pretransitive;
          Alcotest.test_case "worklist" `Quick test_sweep_worklist;
          Alcotest.test_case "bitvector" `Quick test_sweep_bitvector;
          Alcotest.test_case "steensgaard" `Quick test_sweep_steensgaard;
        ] );
      ( "ladder",
        [
          Alcotest.test_case "always answers soundly" `Quick
            test_ladder_always_answers;
          Alcotest.test_case "zero deadline lands on final rung" `Quick
            test_ladder_zero_deadline_lands_on_final_rung;
          Alcotest.test_case "strict ladder can time out" `Quick
            test_ladder_strict_can_time_out;
          Alcotest.test_case "generous deadline stays exact" `Quick
            test_ladder_generous_deadline_stays_exact;
          Alcotest.test_case "open world runs to completion" `Quick
            test_ladder_open_world_runs_to_completion;
          Alcotest.test_case "pre-set cancel aborts the ladder" `Quick
            test_ladder_cancel_preset;
          Alcotest.test_case "algorithm_of_string case-insensitive" `Quick
            test_algorithm_of_string_case_insensitive;
        ] );
      ( "cancel",
        [
          Alcotest.test_case "pre-set token aborts before pass 1" `Quick
            test_cancel_preset;
          Alcotest.test_case "cross-thread cancel aborts mid-solve" `Quick
            test_cancel_from_another_thread;
        ] );
      ( "server",
        [
          Alcotest.test_case "survives mixed good/poison/slow stream" `Quick
            test_server_survives_mixed_stream;
          Alcotest.test_case "sheds when full" `Quick test_server_sheds_when_full;
          Alcotest.test_case "live stats introspection" `Quick
            test_server_stats_introspection;
          Alcotest.test_case "shard kill recovers under supervision" `Quick
            test_server_shard_kill_recovers;
          Alcotest.test_case "stale socket takeover" `Quick
            test_server_stale_socket_takeover;
          Alcotest.test_case "refused start closes the query log" `Quick
            test_server_refused_start_closes_log;
          Alcotest.test_case "single-flight solve" `Quick
            test_server_single_flight;
          Alcotest.test_case "blocking waits keep their answers" `Quick
            test_server_blocking_waits;
        ] );
    ]
