(** Baseline: subset-based points-to analysis over bit vectors — the
    paper mentions "an implementation based on bit-vectors" among the
    analyses built on the CLA substrate (Section 4).

    The location space is compressed to the address-taken objects (only
    those can ever appear in a points-to set), and the solver iterates all
    constraints to a fixpoint.  Simple, allocation-light, and a useful
    differential oracle for the pre-transitive solver. *)

module Bits = struct
  type t = Bytes.t

  let create nbits = Bytes.make ((nbits + 7) / 8) '\000'
  let clear (b : t) = Bytes.fill b 0 (Bytes.length b) '\000'
  let is_empty (b : t) =
    let rec go i = i >= Bytes.length b || (Bytes.unsafe_get b i = '\000' && go (i + 1)) in
    go 0

  let set (b : t) i =
    let byte = i lsr 3 in
    Bytes.unsafe_set b byte
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get b byte) lor (1 lsl (i land 7))))

  (* dst := dst ∪ src; returns true if dst changed *)
  let union_into ~dst ~src =
    let changed = ref false in
    for i = 0 to Bytes.length dst - 1 do
      let d = Char.code (Bytes.unsafe_get dst i) in
      let s = Char.code (Bytes.unsafe_get src i) in
      let u = d lor s in
      if u <> d then begin
        Bytes.unsafe_set dst i (Char.unsafe_chr u);
        changed := true
      end
    done;
    !changed

  let iter f (b : t) =
    for i = 0 to Bytes.length b - 1 do
      let byte = Char.code (Bytes.unsafe_get b i) in
      if byte <> 0 then
        for bit = 0 to 7 do
          if byte land (1 lsl bit) <> 0 then f ((i lsl 3) lor bit)
        done
    done
end

type constraint_ =
  | Ccopy of int * int  (* dst ⊇ src *)
  | Cload of int * int  (* dst ⊇ *src *)
  | Cstore of int * int  (* *dst ⊇ src *)

let solve ?(deadline = Cla_resilience.Deadline.never) ?cancel ?(jobs = 1)
    (view : Objfile.view) : Solution.t =
  let t_start = Cla_resilience.Deadline.now_s () in
  let rounds = ref 0 in
  let applied = ref 0 in
  let progress () =
    Cla_resilience.Progress.make ~at_pass:!rounds
      ~elapsed_s:(Cla_resilience.Deadline.now_s () -. t_start)
      (Fmt.str "bitvector: round %d, %d constraints applied" !rounds !applied)
  in
  let check () =
    Cla_resilience.Deadline.check ~progress deadline;
    Option.iter (Cla_resilience.Cancel.check ~progress) cancel
  in
  (* polled at every fixpoint round and every few hundred constraint
     applications; aborting between applications is safe (the bit
     matrices are discarded with the state) *)
  let tick () =
    incr applied;
    if !applied land 255 = 0 then check ()
  in
  check ();
  let nvars = Objfile.n_vars view in
  let loader = Loader.create view in
  let statics = Loader.statics loader in
  (* compress the location space to address-taken objects *)
  let loc_index = Hashtbl.create 256 in
  let locs = Dynarr.create ~capacity:64 () in
  let intern_loc z =
    match Hashtbl.find_opt loc_index z with
    | Some i -> i
    | None ->
        let i = Dynarr.length locs in
        Hashtbl.replace loc_index z i;
        Dynarr.push locs z;
        i
  in
  Array.iter (fun (p : Objfile.prim_rec) -> ignore (intern_loc p.Objfile.psrc)) statics;
  let nlocs = Dynarr.length locs in
  let nnodes = ref nvars in
  let constraints = ref [] in
  let bases = ref [] in
  Array.iter
    (fun (p : Objfile.prim_rec) ->
      bases := (p.Objfile.pdst, intern_loc p.Objfile.psrc) :: !bases)
    statics;
  for v = 0 to nvars - 1 do
    List.iter
      (fun (p : Objfile.prim_rec) ->
        if Loader.relevant_to_points_to p then
          match p.Objfile.pkind with
          | Objfile.Paddr -> ()
          | Objfile.Pcopy -> constraints := Ccopy (p.Objfile.pdst, v) :: !constraints
          | Objfile.Pload -> constraints := Cload (p.Objfile.pdst, v) :: !constraints
          | Objfile.Pstore -> constraints := Cstore (p.Objfile.pdst, v) :: !constraints
          | Objfile.Pderef2 ->
              let t = !nnodes in
              incr nnodes;
              constraints := Cload (t, v) :: Cstore (p.Objfile.pdst, t) :: !constraints)
      (Loader.block loader v)
  done;
  let nnodes = !nnodes in
  let pts = Array.init nnodes (fun _ -> Bits.create nlocs) in
  List.iter (fun (x, li) -> Bits.set pts.(x) li) !bases;
  let fundef_by_var = Objfile.fundef_table view.Objfile.rfundefs in
  let constraints = Array.of_list !constraints in
  let loc_of = Dynarr.to_array locs in
  (* The sequential tail of every round: [Cstore] constraints and
     indirect calls write {e arbitrary} rows, so they stay on one domain
     regardless of [jobs].  Marks changed rows in [dirty]. *)
  let apply_seq dirty c =
    tick ();
    match c with
    | Ccopy (dst, src) ->
        if Bits.union_into ~dst:pts.(dst) ~src:pts.(src) then Bits.set dirty dst
    | Cload (dst, src) ->
        Bits.iter
          (fun li ->
            let z = loc_of.(li) in
            if Bits.union_into ~dst:pts.(dst) ~src:pts.(z) then Bits.set dirty dst)
          pts.(src)
    | Cstore (dst, src) ->
        Bits.iter
          (fun li ->
            let z = loc_of.(li) in
            if Bits.union_into ~dst:pts.(z) ~src:pts.(src) then Bits.set dirty z)
          pts.(dst)
  in
  let apply_indirects dirty =
    Array.iter
      (fun (r : Objfile.indir_rec) ->
        Bits.iter
          (fun li ->
            let gv = loc_of.(li) in
            match Hashtbl.find_opt fundef_by_var gv with
            | None -> ()
            | Some fd ->
                Objfile.iter_call_copies fd r (fun ~dst ~src ->
                    if Bits.union_into ~dst:pts.(dst) ~src:pts.(src) then
                      Bits.set dirty dst))
          pts.(r.Objfile.iptr))
      view.Objfile.rindirects
  in
  let width = max 1 jobs in
  let dirty = Bits.create nnodes in
  if width = 1 then begin
    (* sequential baseline: one domain applies everything, in order *)
    let changed = ref true in
    while !changed do
      incr rounds;
      check ();
      Bits.clear dirty;
      Array.iter (apply_seq dirty) constraints;
      apply_indirects dirty;
      changed := not (Bits.is_empty dirty)
    done
  end
  else begin
    (* Row-parallel rounds.  [Ccopy]/[Cload] write only their [dst] row,
       so sorting them by [dst] and cutting chunks on group boundaries
       makes every row's writes exclusive to one chunk: no lost updates,
       so a round's change detection is exact for the rows it owns.
       Reads of {e other} rows may race with their owner's writes — a
       stale read is benign (rows only gain bits; monotone iteration
       converges to the same unique least fixpoint), and it cannot cause
       early termination: a round that reads anything stale is a round
       in which some owner wrote, and that owner's own dirty bitmap
       forces another round.  [Cstore] and indirect calls write rows
       they do not own, so they run single-threaded after the barrier. *)
    let is_rowpar = function Ccopy _ | Cload _ -> true | Cstore _ -> false in
    let rowpar =
      Array.of_list (List.filter is_rowpar (Array.to_list constraints))
    in
    let stores =
      Array.of_list
        (List.filter (fun c -> not (is_rowpar c)) (Array.to_list constraints))
    in
    let dst_of = function Ccopy (d, _) | Cload (d, _) | Cstore (d, _) -> d in
    Array.sort (fun a b -> compare (dst_of a) (dst_of b)) rowpar;
    let nrp = Array.length rowpar in
    (* chunk bounds: ~equal constraint counts, never splitting a dst group *)
    let bounds = Dynarr.create ~capacity:(width + 1) () in
    let target = (nrp + width - 1) / max 1 width in
    let i = ref 0 in
    while !i < nrp do
      Dynarr.push bounds !i;
      let stop = min nrp (!i + target) in
      let j = ref stop in
      while !j < nrp && dst_of rowpar.(!j) = dst_of rowpar.(!j - 1) do
        incr j
      done;
      i := !j
    done;
    Dynarr.push bounds nrp;
    let nchunks = Dynarr.length bounds - 1 in
    let chunk_dirty = Array.init nchunks (fun _ -> Bits.create nnodes) in
    let chunk_ids = Array.init nchunks Fun.id in
    let run_chunk ci =
      let lo = Dynarr.get bounds ci and hi = Dynarr.get bounds (ci + 1) in
      let d = chunk_dirty.(ci) in
      Bits.clear d;
      let napplied = ref 0 in
      for k = lo to hi - 1 do
        incr napplied;
        (* deadline/cancel poll: raising here propagates through the
           pool's lowest-index-error rule to the caller *)
        if !napplied land 255 = 0 then check ();
        match rowpar.(k) with
        | Ccopy (dst, src) ->
            if Bits.union_into ~dst:pts.(dst) ~src:pts.(src) then Bits.set d dst
        | Cload (dst, src) ->
            Bits.iter
              (fun li ->
                let z = loc_of.(li) in
                if Bits.union_into ~dst:pts.(dst) ~src:pts.(z) then Bits.set d dst)
              pts.(src)
        | Cstore _ -> assert false
      done;
      !napplied
    in
    let changed = ref true in
    while !changed do
      incr rounds;
      check ();
      Bits.clear dirty;
      (* phase A: row-owned constraints across [width] domains *)
      let counts =
        Cla_par.Pool.map_array ?cancel ~jobs:width run_chunk chunk_ids
      in
      Array.iter (fun n -> applied := !applied + n) counts;
      (* pass barrier: merge the per-domain dirty bitmaps *)
      Array.iter (fun d -> ignore (Bits.union_into ~dst:dirty ~src:d)) chunk_dirty;
      (* phase B: cross-row writers, single-threaded *)
      Array.iter (apply_seq dirty) stores;
      apply_indirects dirty;
      changed := not (Bits.is_empty dirty)
    done;
    Cla_obs.Metrics.set "bitsolver.par.chunks" nchunks;
    Cla_obs.Metrics.set "bitsolver.par.rounds" !rounds
  end;
  let pool = Lvalset.create_pool () in
  (* one reusable buffer: [of_dyn] never retains it *)
  let acc = Dynarr.create ~capacity:64 () in
  let out =
    Array.init nvars (fun v ->
        Dynarr.clear acc;
        Bits.iter (fun li -> Dynarr.push acc loc_of.(li)) pts.(v);
        Lvalset.of_dyn pool acc.Dynarr.data (Dynarr.length acc))
  in
  Solution.create view out
