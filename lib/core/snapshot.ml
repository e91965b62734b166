(** Persistent solution snapshots: a solved, non-degraded ladder outcome
    frozen into a compact immutable arena and written as a sidecar
    [.snap] file, so a server restart costs O(read) instead of O(solve).

    The arena exploits the hash-consed hybrid {!Lvalset} pool: a
    solution's millions of points-to relations typically live in a few
    hundred distinct sets, so the file stores each distinct set once —
    sorted elements, delta-encoded — plus one set index per variable.
    Thawing re-interns every distinct set through a fresh pool, so the
    in-memory result has the same physical-sharing structure the solver
    built: identical sets are pointer-equal again, and every reader
    (shard) answers from the one shared, immutable arena.

    The file is a {!Sectioned} container — the same armored layout as
    CLA2 objects, with a version word after the magic ["CSN1"].  A
    snapshot is also {e bound} to the database bytes it was
    solved from (length + CRC32 of the whole [.cla] file), so a snapshot
    can never be replayed against a different or edited database.  Any
    violation — bad magic, unknown version, table or section checksum
    mismatch, binding mismatch, non-ascending set elements, out-of-range
    ids — raises {!Binio.Corrupt}; {!load_result} surfaces it as a
    [Load]-phase {!Diag.t} ([load.corrupt]), and callers fall back to a
    live solve.  Never a wrong answer. *)

let current_version = 1

let format =
  { Sectioned.magic = "CSN1"; version = Some current_version;
    what = "CLA snapshot" }

(* Section ids.  BINDING first so a mismatched database is reported as
   such, not as downstream garbage. *)
let sec_binding = 0
let sec_prov = 1
let sec_sets = 2
let sec_varsets = 3

(* ------------------------------------------------------------------ *)
(* Freezing                                                            *)
(* ------------------------------------------------------------------ *)

(* Sets seen so far, by physical identity.  Sets are hash-consed per
   solver pool, so this finds almost every repeat without reading it. *)
module Seen = Hashtbl.Make (struct
  type t = Lvalset.t

  let equal = ( == )
  let hash = Lvalset.hash
end)

(* Distinct-set table: a set is looked up by physical identity first;
   only the first sighting of a set converts it to a list, range-checks
   it and looks up its content key, which makes dedup exact even across
   pools. *)
let freeze ~(view : Objfile.view) (o : Pipeline.ladder_outcome) : string =
  if o.Pipeline.lo_degraded then
    invalid_arg
      "Snapshot.freeze: refusing to persist a degraded outcome (it would \
       serve stale precision forever)";
  let sol = o.Pipeline.lo_solution in
  let pts = sol.Solution.pts in
  let n_vars = Array.length pts in
  let nv_view = Objfile.n_vars view in
  (* distinct sets, in first-appearance order *)
  let seen = Seen.create 256 in
  let by_content : (int list, int) Hashtbl.t = Hashtbl.create 256 in
  let sets = ref [] and n_sets = ref 0 in
  let first_sighting set =
    let elems = Lvalset.to_list set in
    List.iter
      (fun z ->
        if z < 0 || z >= nv_view then
          invalid_arg
            (Fmt.str
               "Snapshot.freeze: set element %d outside the database's %d \
                objects"
               z nv_view))
      elems;
    let idx =
      match Hashtbl.find_opt by_content elems with
      | Some i -> i
      | None ->
          incr n_sets;
          Hashtbl.replace by_content elems !n_sets;
          sets := elems :: !sets;
          !n_sets
    in
    Seen.replace seen set idx;
    idx
  in
  let var_set =
    Array.map
      (fun set ->
        if Lvalset.cardinal set = 0 then 0
        else
          match Seen.find_opt seen set with
          | Some i -> i
          | None -> first_sighting set)
      pts
  in
  let sets = Array.of_list (List.rev !sets) in
  (* BINDING: the database these answers are about *)
  let b_bind = Binio.writer () in
  Binio.u32 b_bind (String.length view.Objfile.data);
  Binio.u32 b_bind (Crc32.string view.Objfile.data);
  (* PROV: which rung answered, and its soundness statement *)
  let b_prov = Binio.writer () in
  Binio.bytes_ b_prov (Pipeline.algorithm_name o.Pipeline.lo_algorithm);
  Binio.bytes_ b_prov o.Pipeline.lo_note;
  Binio.u32 b_prov n_vars;
  (* SETS: each distinct set once, elements delta-encoded (ascending) *)
  let b_sets = Binio.writer () in
  Binio.u32 b_sets (Array.length sets);
  Array.iter
    (fun elems ->
      Binio.varint b_sets (List.length elems);
      ignore
        (List.fold_left
           (fun prev z ->
             (match prev with
             | None -> Binio.varint b_sets z
             | Some p -> Binio.varint b_sets (z - p));
             Some z)
           None elems))
    sets;
  (* VARSETS: per variable, its index into the set table (0 = empty) *)
  let b_vs = Binio.writer () in
  Binio.u32 b_vs n_vars;
  Array.iter (fun i -> Binio.varint b_vs i) var_set;
  let sections =
    [
      (sec_binding, [ b_bind ]); (sec_prov, [ b_prov ]); (sec_sets, [ b_sets ]);
      (sec_varsets, [ b_vs ]);
    ]
  in
  Sectioned.write format sections

(* ------------------------------------------------------------------ *)
(* Thawing                                                             *)
(* ------------------------------------------------------------------ *)

let thaw ~(view : Objfile.view) (data : string) : Pipeline.ladder_outcome =
  let s = Sectioned.of_string format data in
  (* binding: right database? *)
  let r = Sectioned.section s sec_binding in
  let db_len = Binio.ru32 r in
  let db_crc = Binio.ru32 r in
  if
    db_len <> String.length view.Objfile.data
    || db_crc <> Crc32.string view.Objfile.data
  then
    raise
      (Binio.Corrupt
         "snapshot was solved from a different database (binding mismatch)");
  (* provenance *)
  let r = Sectioned.section s sec_prov in
  let rung = Binio.rbytes r in
  let note = Binio.rbytes r in
  let n_vars = Binio.ru32 r in
  let algorithm =
    match Pipeline.algorithm_of_string rung with
    | Some a -> a
    | None -> raise (Binio.Corrupt (Fmt.str "snapshot names unknown rung %S" rung))
  in
  let nv_view = Objfile.n_vars view in
  (* distinct sets, re-interned through a fresh pool so identical sets
     are physically shared again *)
  let r = Sectioned.section s sec_sets in
  let n_sets = Binio.rcount ~min_size:2 r in
  let pool = Lvalset.create_pool () in
  let sets = Array.make (n_sets + 1) Lvalset.empty in
  for i = 1 to n_sets do
    let card = Binio.rvarint r in
    if card < 1 then
      raise (Binio.Corrupt (Fmt.str "snapshot set %d is empty" i));
    let elems = Array.make card 0 in
    let prev = ref (-1) in
    for k = 0 to card - 1 do
      let z =
        if k = 0 then Binio.rvarint r
        else
          let gap = Binio.rvarint r in
          if gap < 1 then
            raise
              (Binio.Corrupt
                 (Fmt.str "snapshot set %d is not strictly ascending" i))
          else !prev + gap
      in
      if z < 0 || z >= nv_view then
        raise
          (Binio.Corrupt
             (Fmt.str "snapshot set %d names object %d of %d" i z nv_view));
      elems.(k) <- z;
      prev := z
    done;
    sets.(i) <- Lvalset.share pool elems
  done;
  (* per-variable set indices *)
  let r = Sectioned.section s sec_varsets in
  let n = Binio.rcount r in
  if n <> n_vars then
    raise
      (Binio.Corrupt
         (Fmt.str "snapshot varsets count %d disagrees with provenance %d" n
            n_vars));
  let pts = Array.make n_vars Lvalset.empty in
  for v = 0 to n_vars - 1 do
    let i = Binio.rvarint r in
    if i > n_sets then
      raise
        (Binio.Corrupt (Fmt.str "variable %d names set %d of %d" v i n_sets));
    pts.(v) <- sets.(i)
  done;
  let sol = Solution.create view pts in
  Solution.set_provenance sol
    { Solution.p_rung = rung; p_degraded = false; p_note = note };
  {
    Pipeline.lo_solution = sol;
    lo_algorithm = algorithm;
    lo_degraded = false;
    lo_note = note;
    lo_timeouts = [];
  }

(* ------------------------------------------------------------------ *)
(* Files                                                               *)
(* ------------------------------------------------------------------ *)

let save path ~view outcome =
  let data = freeze ~view outcome in
  let oc = open_out_bin path in
  output_string oc data;
  close_out oc

let load path ~view : Pipeline.ladder_outcome =
  thaw ~view (Binio.read_file path)

let load_result path ~view : (Pipeline.ladder_outcome, Diag.t) result =
  Diag.capture ~file:path ~phase:Diag.Load (fun () -> load path ~view)
