(** Open-addressing hash set of non-negative ints.

    The pre-transitive solver performs millions of edge-dedup probes (one
    per candidate edge, Section 5 keeps the edges "in both a hash table and
    a per-node list"); the stdlib [Hashtbl] costs two chained probes plus
    allocation per insertion, which dominates solver time on dense
    workloads.  Linear probing with power-of-two capacity makes it one
    cache miss per operation. *)

type t = {
  mutable keys : int array;  (* 0 = empty; stored value is key+1 *)
  mutable mask : int;
  mutable count : int;
}

let create capacity =
  let cap = ref 16 in
  while !cap < capacity * 2 do
    cap := !cap * 2
  done;
  { keys = Array.make !cap 0; mask = !cap - 1; count = 0 }

let length t = t.count

(* Fibonacci hashing, folded: the multiply spreads consecutive keys,
   but its low bits depend only on the key's low bits.  A packed pair
   key [(a lsl 31) lor b] keeps [a] above bit 31, so without the fold
   every edge into one node [b] would probe a single growing cluster. *)
let slot t key =
  let h = key * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 32)) land t.mask

let rec grow t =
  let old = t.keys in
  t.keys <- Array.make (2 * Array.length old) 0;
  t.mask <- (2 * Array.length old) - 1;
  t.count <- 0;
  Array.iter (fun k -> if k <> 0 then ignore (add_raw t k)) old

(* [k] is the stored (offset) key. *)
and add_raw t k =
  let i = ref (slot t (k - 1)) in
  let continue = ref true in
  let added = ref false in
  while !continue do
    let cur = Array.unsafe_get t.keys !i in
    if cur = 0 then begin
      Array.unsafe_set t.keys !i k;
      t.count <- t.count + 1;
      added := true;
      continue := false
    end
    else if cur = k then continue := false
    else i := (!i + 1) land t.mask
  done;
  !added

(** [add t key] inserts; returns [true] iff the key was not present. *)
let add t key =
  if 2 * (t.count + 1) > Array.length t.keys then grow t;
  add_raw t (key + 1)

(* Packed (a, b) pair keys — see the .mli for the 31-bit invariant.
   Shared by every edge table (pretransitive graph, worklist baseline,
   indirect-call link dedup) so the packing exists in exactly one
   place. *)
let max_node_id = (1 lsl 31) - 1
let pair_key a b = (a lsl 31) lor b

let check_node_bound n =
  if n < 0 || n > max_node_id then
    invalid_arg
      (Printf.sprintf
         "node id %d outside [0, %d]: the packed edge-key encoding holds \
          31 bits per endpoint"
         n max_node_id)

let longest_run t =
  let n = Array.length t.keys in
  let best = ref 0 and run = ref 0 in
  (* two laps so a cluster that wraps past the last slot is measured
     whole; a full table cannot happen (load stays <= 1/2) *)
  for i = 0 to (2 * n) - 1 do
    if Array.unsafe_get t.keys (i land t.mask) <> 0 then begin
      incr run;
      if !run > !best then best := !run
    end
    else run := 0
  done;
  !best

let mem t key =
  let k = key + 1 in
  let i = ref (slot t key) in
  let res = ref false in
  let continue = ref true in
  while !continue do
    let cur = Array.unsafe_get t.keys !i in
    if cur = 0 then continue := false
    else if cur = k then begin
      res := true;
      continue := false
    end
    else i := (!i + 1) land t.mask
  done;
  !res
