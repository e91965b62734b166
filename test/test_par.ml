(* Tests for the multicore layer: the Cla_par domain pool's ordering
   and first-error contracts; byte-identical parallel compilation; and
   domain-sharded serving answering exactly like the single-solver
   path. *)

open Cla_core
module Pool = Cla_par.Pool

(* ------------------------------------------------------------------ *)
(* Pool contracts                                                      *)
(* ------------------------------------------------------------------ *)

let test_resolve_jobs () =
  let cores = Domain.recommended_domain_count () in
  Alcotest.(check int) "positive is capped at the core count" (min 7 cores)
    (Pool.resolve_jobs 7);
  Alcotest.(check int) "one stays one" 1 (Pool.resolve_jobs 1);
  (* a pure call: resolving a huge request starts no domain *)
  Alcotest.(check bool) "4096 is at most the core count" true
    (Pool.resolve_jobs 4096 <= cores);
  Alcotest.(check bool) "auto is at least 1" true (Pool.resolve_jobs 0 >= 1);
  match Pool.resolve_jobs (-3) with
  | _ -> Alcotest.fail "negative job count should be rejected"
  | exception Invalid_argument _ -> ()

let test_map_preserves_order () =
  let xs = List.init 100 Fun.id in
  let ys =
    Pool.map ~jobs:4
      (fun i ->
        (* jitter the schedule so order preservation is earned *)
        if i mod 7 = 0 then Unix.sleepf 0.001;
        i * i)
      xs
  in
  Alcotest.(check (list int))
    "results in input order"
    (List.map (fun i -> i * i) xs)
    ys

(* Batches narrower than the pool: fewer items than lanes (one lane
   claims each item, the rest find the cursor exhausted) still return
   every result in order. *)
let test_fewer_items_than_lanes () =
  List.iter
    (fun n ->
      let xs = List.init n (fun i -> i + 10) in
      Alcotest.(check (list int))
        (Fmt.str "%d items at j8" n)
        (List.map (fun i -> i * 3) xs)
        (Pool.map ~jobs:8 (fun i -> i * 3) xs))
    [ 1; 2; 3; 7 ]

(* Two items fail; index 5 finishes *after* index 12 (it sleeps first),
   yet the batch must re-raise the lowest-index error — error choice
   depends on input position, never on scheduling. *)
let test_first_error_is_lowest_index () =
  match
    Pool.map ~jobs:4
      (fun i ->
        if i = 12 then failwith "12";
        if i = 5 then begin
          Unix.sleepf 0.01;
          failwith "5"
        end;
        i)
      (List.init 20 Fun.id)
  with
  | _ -> Alcotest.fail "batch with failing items should raise"
  | exception Failure msg ->
      Alcotest.(check string) "lowest failing index wins" "5" msg

(* The lanes the pool has published: 1 (the submitter) plus every
   worker spawned so far. *)
let lanes () =
  match Cla_obs.Metrics.get_series "par.lane.busy_us" with
  | Some l -> List.length l
  | None -> 0

(* The distinct domains that ran the items of one batch. *)
let domains_of ~jobs n =
  Pool.map ~jobs
    (fun _ ->
      Unix.sleepf 0.002;
      (Domain.self () :> int))
    (List.init n Fun.id)
  |> List.sort_uniq compare

let test_jobs1_spawns_no_domain () =
  let before = lanes () in
  let self = (Domain.self () :> int) in
  Alcotest.(check (list int)) "every item ran on the caller" [ self ]
    (domains_of ~jobs:1 8);
  Alcotest.(check int) "no worker spawned" (max 1 before) (lanes ())

(* Workers are spawned once and kept: a narrower batch neither shuts
   them down nor respawns them, so every [~jobs:3] / [~jobs:2] batch
   draws from the same three domains (submitter + workers 1 and 2). *)
let test_workers_reused_not_narrowed () =
  let seen =
    List.concat_map
      (fun jobs -> domains_of ~jobs 24)
      [ 3; 3; 2; 3; 2; 3 ]
    |> List.sort_uniq compare
  in
  Alcotest.(check bool)
    (Fmt.str "at most 3 domains across the batches (saw %d)" (List.length seen))
    true
    (List.length seen <= 3);
  Alcotest.(check bool) "width kept after a narrower batch" true (lanes () >= 3)

(* A failing item 0 skips every item above it that has not started:
   exactly one item runs at [~jobs:1], and at [~jobs:2] the other lane
   stops after its current item, so most of the batch never runs. *)
let test_failing_item0_skips_rest () =
  List.iter
    (fun (jobs, bound) ->
      let ran = Atomic.make 0 in
      let n = 64 in
      (match
         Pool.map ~jobs
           (fun i ->
             Atomic.incr ran;
             if i = 0 then failwith "0";
             Unix.sleepf 0.001;
             i)
           (List.init n Fun.id)
       with
      | _ -> Alcotest.fail "a failing item should raise"
      | exception Failure msg -> Alcotest.(check string) "item 0's error" "0" msg);
      Alcotest.(check bool)
        (Fmt.str "j%d: %d of %d items ran (bound %d)" jobs (Atomic.get ran) n bound)
        true
        (Atomic.get ran <= bound))
    [ (1, 1); (2, 3 * 64 / 4) ]

(* Two systhreads submit at once; batches queue and both see
   [List.map]'s answer. *)
let test_concurrent_submitters () =
  let xs = List.init 40 Fun.id in
  let f i = (i * 7) + 1 in
  let ok = Array.make 2 false in
  let submitter k =
    Thread.create
      (fun () ->
        ok.(k) <-
          List.for_all
            (fun _ -> Pool.map ~jobs:2 f xs = List.map f xs)
            (List.init 20 Fun.id))
      ()
  in
  List.iter Thread.join [ submitter 0; submitter 1 ];
  Alcotest.(check (array bool)) "both submitters" [| true; true |] ok

(* Back-to-back batches across widths, sizes (0 included) and failing
   items, each checked against [List.map]: a lost wakeup or a dead
   worker shows up here as a hang. *)
let test_stress_batches () =
  let rng = Random.State.make [| 21 |] in
  for b = 0 to 499 do
    let jobs = [| 1; 2; 4 |].(b mod 3) in
    let n = Random.State.int rng 51 in
    let bad = if n > 0 && b mod 7 = 0 then Random.State.int rng n else -1 in
    let f i = if i = bad then failwith (string_of_int i) else (i * i) - b in
    let xs = List.init n Fun.id in
    match Pool.map ~jobs f xs with
    | ys ->
        if bad >= 0 then Alcotest.failf "batch %d: item %d should fail" b bad;
        if ys <> List.map f xs then Alcotest.failf "batch %d: wrong results" b
    | exception Failure msg ->
        Alcotest.(check string) (Fmt.str "batch %d error" b) (string_of_int bad) msg
  done

let test_pool_telemetry_published () =
  ignore (Pool.map ~jobs:1000 (fun i -> i + 1) [ 1; 2 ]);
  Alcotest.(check (option int)) "par.jobs is the clamped width" (Some 64)
    (Cla_obs.Metrics.get_int "par.jobs");
  ignore (Pool.map ~jobs:3 (fun i -> i + 1) (List.init 64 Fun.id));
  let has name = Cla_obs.Metrics.find name <> None in
  Alcotest.(check bool) "par.lane.busy_us exported" true (has "par.lane.busy_us");
  Alcotest.(check bool) "par.lane.idle_us exported" true (has "par.lane.idle_us");
  Alcotest.(check bool) "par.queue_wait_us exported" true (has "par.queue_wait_us");
  Alcotest.(check bool) "par.batches counted" true
    (Option.value ~default:0 (Cla_obs.Metrics.get_int "par.batches") >= 2)

(* ------------------------------------------------------------------ *)
(* Byte-identical parallel compilation                                 *)
(* ------------------------------------------------------------------ *)

let corpus =
  lazy
    (Cla_workload.Genc.generate ~seed:3L
       (Cla_workload.Profile.scaled 0.05
          (Option.get (Cla_workload.Profile.find "nethack"))))

let compile_bytes ~jobs files =
  let compile (file, src) = Objfile.write (Compilep.compile_string ~file src) in
  if jobs <= 1 then List.map compile files else Pool.map ~jobs compile files

let link_bytes objs =
  let views = List.map Objfile.view_of_string objs in
  let db, _stats = Linkp.link_views views in
  Objfile.write db

let test_parallel_compile_is_byte_identical () =
  let files = Lazy.force corpus in
  let seq = compile_bytes ~jobs:1 files in
  let par = compile_bytes ~jobs:4 files in
  Alcotest.(check bool) "object bytes identical" true
    (List.equal String.equal seq par);
  Alcotest.(check bool) "linked database identical" true
    (String.equal (link_bytes seq) (link_bytes par))

(* ------------------------------------------------------------------ *)
(* Domain-sharded serving                                              *)
(* ------------------------------------------------------------------ *)

let view_of src =
  Objfile.view_of_string
    (Objfile.write (Compilep.compile_string ~file:"t.c" src))

(* Boot an in-process server with [shards] replicas over [view], run
   [f socket], then drain. *)
let with_server ~shards view f =
  let dir = Filename.temp_file "cla_par_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  let config =
    {
      Cla_serve.Server.default_config with
      socket_path = socket;
      default_deadline_ms = 5000;
      shards;
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
  let r = f socket in
  (match !handle with
  | Some t -> Cla_serve.Server.request_shutdown t
  | None -> ());
  Thread.join server;
  (try Sys.remove socket with Sys_error _ -> ());
  Unix.rmdir dir;
  r

(* The same query stream against a 1-shard and a 2-shard server must
   produce identical reply lines — sharding changes who solves, never
   the answer.  The fresh:true repeats force every replica to actually
   run its own solve (round-robin) rather than serve one shard's
   cache.  The per-query "server" telemetry object is the one part of
   a reply that legitimately differs (timings, shard id), so it is
   stripped before comparing. *)
let strip_telemetry line =
  let module Json = Cla_obs.Json in
  match Json.of_string line with
  | Json.Obj fields ->
      Json.to_string (Json.Obj (List.filter (fun (k, _) -> k <> "server") fields))
  | j -> Json.to_string j
let test_sharded_serve_matches_single () =
  let view =
    view_of
      "int x, y; int *p, *q;\n\
       void f(void) { p = &x; q = p; }\n\
       void g(void) { q = &y; }"
  in
  let lines =
    [
      {|{"id":1,"op":"points-to","var":"p"}|};
      {|{"id":2,"op":"points-to","var":"q"}|};
      {|{"id":3,"op":"alias","var":"p","var2":"q"}|};
      {|{"id":4,"op":"points-to","var":"p","fresh":true}|};
      {|{"id":5,"op":"points-to","var":"q","fresh":true}|};
      {|{"id":6,"op":"points-to","var":"x","fresh":true}|};
      {|{"id":7,"op":"alias","var":"q","var2":"x","fresh":true}|};
    ]
  in
  let ask socket line =
    match Cla_serve.Client.round_trip ~socket line with
    | Ok reply -> reply
    | Error e -> Alcotest.fail (Cla_serve.Client.describe e)
  in
  let single =
    with_server ~shards:1 view (fun socket -> List.map (ask socket) lines)
  in
  let sharded =
    with_server ~shards:2 view (fun socket -> List.map (ask socket) lines)
  in
  List.iter2
    (fun a b ->
      Alcotest.(check string) "identical reply" (strip_telemetry a)
        (strip_telemetry b))
    single sharded

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "jobs 1 spawns no domain" `Quick
            test_jobs1_spawns_no_domain;
          Alcotest.test_case "resolve_jobs" `Quick test_resolve_jobs;
          Alcotest.test_case "map preserves order" `Quick
            test_map_preserves_order;
          Alcotest.test_case "fewer items than lanes" `Quick
            test_fewer_items_than_lanes;
          Alcotest.test_case "first error is lowest index" `Quick
            test_first_error_is_lowest_index;
          Alcotest.test_case "failing item 0 skips the rest" `Quick
            test_failing_item0_skips_rest;
          Alcotest.test_case "workers reused, never narrowed" `Quick
            test_workers_reused_not_narrowed;
          Alcotest.test_case "concurrent submitters" `Quick
            test_concurrent_submitters;
          Alcotest.test_case "500 back-to-back batches" `Quick
            test_stress_batches;
          Alcotest.test_case "telemetry published" `Quick
            test_pool_telemetry_published;
        ] );
      ( "compile",
        [
          Alcotest.test_case "-j4 bytes identical to -j1" `Quick
            test_parallel_compile_is_byte_identical;
        ] );
      ( "serve",
        [
          Alcotest.test_case "sharded replies match single-solver" `Quick
            test_sharded_serve_matches_single;
        ] );
    ]
