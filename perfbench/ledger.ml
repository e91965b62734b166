(* The benchmark's own tracing: spans and counts recorded around every
   call the benchmark makes into a layer's public function.  Off unless
   the run was started with [--trace 1]; the program's own Cla_obs
   recording is never switched on.  Spans stay in memory and are written
   out when the run ends. *)

let now () = Cla_resilience.Deadline.now_s ()

type span = {
  id : int;
  name : string;
  parent : int;  (* -1 for a root span *)
  thread : int;
  t0 : float;
  t1 : float;
  alloc : float;  (* Gc.allocated_bytes delta over the span *)
}

let on = ref false
let lock = Mutex.create ()
let spans : span list ref = ref []
let next_id = ref 0
let stacks : (int, int list) Hashtbl.t = Hashtbl.create 4
let counts : (string, float) Hashtbl.t = Hashtbl.create 32

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* [span name f] runs [f] inside a span named after the layer it calls;
   nesting is tracked per thread, so the client threads of the serve
   workload each get their own stack. *)
let span name f =
  if not !on then f ()
  else begin
    let thread = Thread.id (Thread.self ()) in
    let id, parent =
      locked (fun () ->
          let id = !next_id in
          incr next_id;
          let st = Option.value ~default:[] (Hashtbl.find_opt stacks thread) in
          Hashtbl.replace stacks thread (id :: st);
          (id, match st with p :: _ -> p | [] -> -1))
    in
    let a0 = Gc.allocated_bytes () in
    let t0 = now () in
    let finish () =
      let t1 = now () in
      let alloc = Gc.allocated_bytes () -. a0 in
      locked (fun () ->
          (match Hashtbl.find_opt stacks thread with
          | Some (_ :: rest) -> Hashtbl.replace stacks thread rest
          | _ -> ());
          spans := { id; name; parent; thread; t0; t1; alloc } :: !spans)
    in
    Fun.protect ~finally:finish f
  end

(* Add [v] to the boundary count [name] (only while tracing). *)
let count name v =
  if !on then
    locked (fun () ->
        let old = Option.value ~default:0. (Hashtbl.find_opt counts name) in
        Hashtbl.replace counts name (old +. v))

let get_count name = Option.value ~default:0. (Hashtbl.find_opt counts name)

let count_list () =
  Hashtbl.fold (fun k v l -> (k, v) :: l) counts [] |> List.sort compare

type layer = { busy : float; self : float; alloc : float; calls : int }

let zero = { busy = 0.; self = 0.; alloc = 0.; calls = 0 }

let add a b =
  {
    busy = a.busy +. b.busy;
    self = a.self +. b.self;
    alloc = a.alloc +. b.alloc;
    calls = a.calls + b.calls;
  }

(* Layer totals and counts reported by other processes (the batch
   iterations), summed into this ledger. *)
let absorbed : (string, layer) Hashtbl.t = Hashtbl.create 16

let absorb layers cs =
  List.iter
    (fun (n, l) ->
      Hashtbl.replace absorbed n
        (add l (Option.value ~default:zero (Hashtbl.find_opt absorbed n))))
    layers;
  List.iter
    (fun (k, v) -> Hashtbl.replace counts k (v +. get_count k))
    cs

(* Per span name: total duration, self time (duration minus the part
   its child spans cover), allocation and call count. *)
let layers () : (string * layer) list =
  let child_time = Hashtbl.create 64 and child_alloc = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent >= 0 then begin
        let add tbl v =
          Hashtbl.replace tbl s.parent
            (v +. Option.value ~default:0. (Hashtbl.find_opt tbl s.parent))
        in
        add child_time (s.t1 -. s.t0);
        add child_alloc s.alloc
      end)
    !spans;
  let acc = Hashtbl.copy absorbed in
  List.iter
    (fun s ->
      let dur = s.t1 -. s.t0 in
      let kids = Option.value ~default:0. (Hashtbl.find_opt child_time s.id) in
      let kalloc = Option.value ~default:0. (Hashtbl.find_opt child_alloc s.id) in
      let l = Option.value ~default:zero (Hashtbl.find_opt acc s.name) in
      Hashtbl.replace acc s.name
        (add l
           { busy = dur; self = dur -. kids; alloc = s.alloc -. kalloc; calls = 1 }))
    !spans;
  Hashtbl.fold (fun k v l -> (k, v) :: l) acc []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let layer name = Option.value ~default:zero (List.assoc_opt name (layers ()))

(* The part of [t0, t1] that no root span covers. *)
let uncovered ~t0 ~t1 =
  let roots =
    List.filter_map
      (fun s ->
        if s.parent < 0 && s.t1 > t0 && s.t0 < t1 then
          Some (Float.max s.t0 t0, Float.min s.t1 t1)
        else None)
      !spans
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (cov, edge) (a, b) ->
        let a = Float.max a edge in
        if b > a then (cov +. (b -. a), b) else (cov, edge))
      (0., t0) roots
  in
  t1 -. t0 -. covered

(* Write every span and count to [path] as JSON. *)
let write ~path ~workload ~run_id =
  let open Cla_obs.Json in
  let span_json s =
    Obj
      [
        ("name", Str s.name);
        ("start_s", Float s.t0);
        ("end_s", Float s.t1);
        ("id", Int s.id);
        ("parent", Int s.parent);
        ("thread", Int s.thread);
        ("alloc_bytes", Float s.alloc);
        ("workload", Str workload);
        ("run_id", Str run_id);
      ]
  in
  write_file path
    (Obj
       [
         ("workload", Str workload);
         ("run_id", Str run_id);
         ("spans", Arr (List.rev_map span_json !spans));
         ( "counts",
           Obj
             (Hashtbl.fold (fun k v l -> (k, Float v) :: l) counts []
             |> List.sort compare) );
       ])
