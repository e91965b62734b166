(* Tests for the multicore layer: the Cla_par domain pool's ordering,
   first-error and cancellation contracts; byte-identical parallel
   compilation; pooled CRC verification (including catching a corrupt
   section); and domain-sharded serving answering exactly like the
   single-solver path. *)

open Cla_core
open Cla_resilience
module Pool = Cla_par.Pool

(* ------------------------------------------------------------------ *)
(* Pool contracts                                                      *)
(* ------------------------------------------------------------------ *)

let test_resolve_jobs () =
  Alcotest.(check int) "positive passes through" 7 (Pool.resolve_jobs 7);
  Alcotest.(check bool) "auto is at least 1" true (Pool.resolve_jobs 0 >= 1);
  match Pool.resolve_jobs (-3) with
  | _ -> Alcotest.fail "negative job count should be rejected"
  | exception Invalid_argument _ -> ()

let test_map_preserves_order () =
  Pool.with_pool ~jobs:4 (fun pool ->
      let xs = List.init 100 Fun.id in
      let ys =
        Pool.map pool
          (fun i ->
            (* jitter the schedule so order preservation is earned *)
            if i mod 7 = 0 then Unix.sleepf 0.001;
            i * i)
          xs
      in
      Alcotest.(check (list int))
        "results in input order"
        (List.map (fun i -> i * i) xs)
        ys)

(* Two tasks fail; index 5 finishes *after* index 12 (it sleeps first),
   yet the batch must re-raise the lowest-index error — error choice
   depends on input position, never on scheduling. *)
let test_first_error_is_lowest_index () =
  Pool.with_pool ~jobs:4 (fun pool ->
      match
        Pool.map pool
          (fun i ->
            if i = 12 then failwith "12";
            if i = 5 then begin
              Unix.sleepf 0.01;
              failwith "5"
            end;
            i)
          (List.init 20 Fun.id)
      with
      | _ -> Alcotest.fail "batch with failing tasks should raise"
      | exception Failure msg ->
          Alcotest.(check string) "lowest failing index wins" "5" msg)

let test_preset_cancel_aborts_batch () =
  Pool.with_pool ~jobs:2 (fun pool ->
      let cancel = Cancel.create () in
      Cancel.set cancel;
      match Pool.map ~cancel pool Fun.id [ 1; 2; 3 ] with
      | _ -> Alcotest.fail "pre-set cancel token should abort the batch"
      | exception Cancel.Cancelled _ -> ())

(* A task body that trips the batch token (without raising) cancels the
   rest of the batch. *)
let test_task_can_cancel_peers () =
  Pool.with_pool ~jobs:2 (fun pool ->
      match
        Pool.map_token pool
          (fun batch i ->
            if i = 0 then Cancel.set batch;
            Unix.sleepf 0.002;
            i)
          (List.init 8 Fun.id)
      with
      | _ -> Alcotest.fail "batch-token cancellation should raise"
      | exception Cancel.Cancelled _ -> ())

let test_shared_pool_is_persistent () =
  let p1 = Pool.shared ~jobs:2 in
  let p2 = Pool.shared ~jobs:2 in
  Alcotest.(check bool) "same pool instance" true (p1 == p2);
  let p3 = Pool.shared ~jobs:1 in
  Alcotest.(check bool) "narrower request reuses the wide pool" true (p1 == p3);
  Alcotest.(check int) "width kept" 2 (Pool.jobs p3)

let test_pool_telemetry_published () =
  Pool.with_pool ~jobs:3 (fun pool ->
      ignore (Pool.map pool (fun i -> i + 1) (List.init 64 Fun.id)));
  let has name = Cla_obs.Metrics.find name <> None in
  Alcotest.(check bool) "par.steals exported" true (has "par.steals");
  Alcotest.(check bool) "par.lane.busy_us exported" true (has "par.lane.busy_us");
  Alcotest.(check bool) "par.lane.idle_us exported" true (has "par.lane.idle_us");
  Alcotest.(check bool) "par.queue_wait_us exported" true (has "par.queue_wait_us")

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
  if jobs <= 1 then List.map compile files
  else Pool.with_pool ~jobs (fun pool -> Pool.map pool compile files)

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
(* Pooled CRC verification                                             *)
(* ------------------------------------------------------------------ *)

let linked_db = lazy (link_bytes (compile_bytes ~jobs:1 (Lazy.force corpus)))

let test_parallel_verify_matches_sequential () =
  let bytes = Lazy.force linked_db in
  let seq = Objfile.view_of_string bytes in
  let par = Pool.with_pool ~jobs:4 (fun pool -> Loader.view_par ~pool bytes) in
  Alcotest.(check bool) "same solution from both views" true
    (Solution.equal (Pipeline.points_to seq) (Pipeline.points_to par))

let test_parallel_verify_catches_corruption () =
  let bytes = Lazy.force linked_db in
  (* flip one byte in the middle of a checksummed section's payload *)
  let e =
    List.find
      (fun e -> e.Sectioned.size > 0)
      (Sectioned.entries (Sectioned.of_string Objfile.format bytes))
  in
  let b = Bytes.of_string bytes in
  let pos = e.Sectioned.off + (e.Sectioned.size / 2) in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
  let corrupt = Bytes.to_string b in
  Pool.with_pool ~jobs:4 (fun pool ->
      match Loader.view_par ~pool corrupt with
      | _ -> Alcotest.fail "corrupt section must fail verification"
      | exception Binio.Corrupt _ -> ())

(* ------------------------------------------------------------------ *)
(* Parallel solve oracle                                               *)
(* ------------------------------------------------------------------ *)

module Genir = Cla_workload.Genir

let shaped_views =
  lazy
    (List.map
       (fun sh -> (Genir.shape_name sh, Genir.shaped ~scale:0.3 sh 11L))
       Genir.all_shapes)

(* The sharing-pool canonicality invariant: every pool miss builds
   exactly one canonical set, stored as either a small sorted array or
   a dense bitmap. *)
let check_pool_canonicality name (s : Pretrans.stats) =
  Alcotest.(check int)
    (name ^ ": pool misses = small + dense sets")
    s.Pretrans.pool_misses
    (s.Pretrans.pool_small + s.Pretrans.pool_dense)

let test_solvers_byte_identical_across_jobs () =
  List.iter
    (fun (shape, view) ->
      let base_bv = Bitsolver.solve view in
      let base_r = Andersen.solve ~demand:false view in
      check_pool_canonicality (shape ^ " j1") base_r.Andersen.graph_stats;
      List.iter
        (fun jobs ->
          Pool.with_pool ~jobs (fun pool ->
              let bv = Bitsolver.solve ~pool view in
              Alcotest.(check bool)
                (Printf.sprintf "%s: bitvector j%d = j1" shape jobs)
                true
                (Solution.equal base_bv bv)))
        [ 2; 4 ])
    (Lazy.force shaped_views)

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
          Alcotest.test_case "resolve_jobs" `Quick test_resolve_jobs;
          Alcotest.test_case "map preserves order" `Quick
            test_map_preserves_order;
          Alcotest.test_case "first error is lowest index" `Quick
            test_first_error_is_lowest_index;
          Alcotest.test_case "pre-set cancel aborts batch" `Quick
            test_preset_cancel_aborts_batch;
          Alcotest.test_case "task can cancel peers" `Quick
            test_task_can_cancel_peers;
          Alcotest.test_case "shared pool is persistent" `Quick
            test_shared_pool_is_persistent;
          Alcotest.test_case "telemetry published" `Quick
            test_pool_telemetry_published;
        ] );
      ( "solve",
        [
          Alcotest.test_case "solvers byte-identical at j1/j2/j4" `Quick
            test_solvers_byte_identical_across_jobs;
        ] );
      ( "compile",
        [
          Alcotest.test_case "-j4 bytes identical to -j1" `Quick
            test_parallel_compile_is_byte_identical;
        ] );
      ( "verify",
        [
          Alcotest.test_case "pooled verify matches sequential" `Quick
            test_parallel_verify_matches_sequential;
          Alcotest.test_case "pooled verify catches corruption" `Quick
            test_parallel_verify_catches_corruption;
        ] );
      ( "serve",
        [
          Alcotest.test_case "sharded replies match single-solver" `Quick
            test_sharded_serve_matches_single;
        ] );
    ]
