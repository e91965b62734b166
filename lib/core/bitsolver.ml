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

let solve ?(deadline = Cla_resilience.Deadline.never) ?cancel
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
  (* rows changed in the current round *)
  let dirty = Bits.create nnodes in
  let apply c =
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
  let apply_indirects () =
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
  let changed = ref true in
  while !changed do
    incr rounds;
    check ();
    Bits.clear dirty;
    Array.iter apply constraints;
    apply_indirects ();
    changed := not (Bits.is_empty dirty)
  done;
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
