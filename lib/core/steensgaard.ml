(** Baseline: unification-based (Steensgaard-style) points-to analysis —
    the paper implemented one on the CLA substrate to demonstrate that the
    object-file format is analysis-agnostic (Section 4), and Section 3
    discusses the accuracy gap versus the subset-based approach.

    Every abstract location has an equivalence class; an assignment
    [x = y] unifies the classes *pointed to* by [x] and [y].  Near-linear
    time, coarser results: the computed sets must be supersets of
    Andersen's (a property the test suite checks). *)

type t = {
  view : Objfile.view;
  mutable parent : int array;  (* union-find over class ids *)
  mutable rank : int array;
  mutable target : int array;  (* class -> pointed-to class, or -1 *)
  mutable nnodes : int;
  pending : (int * int) Queue.t;  (* deferred unions (cascades) *)
}

let grow st needed =
  let cap = Array.length st.parent in
  if needed > cap then begin
    let cap' = max needed (2 * cap) in
    let extend a fill =
      let a' = Array.make cap' fill in
      Array.blit a 0 a' 0 cap;
      a'
    in
    st.parent <- extend st.parent (-1);
    st.rank <- extend st.rank 0;
    st.target <- extend st.target (-1)
  end

let fresh st =
  let id = st.nnodes in
  grow st (id + 1);
  st.nnodes <- id + 1;
  st.parent.(id) <- id;
  id

let rec find st x =
  let p = st.parent.(x) in
  if p = x then x
  else begin
    let r = find st p in
    st.parent.(x) <- r;
    r
  end

(* Union two classes; when both point somewhere, their targets must unify
   too (the cascade is queued to keep the stack flat). *)
let union st a b =
  let ra = find st a and rb = find st b in
  if ra <> rb then begin
    let ra, rb =
      if st.rank.(ra) >= st.rank.(rb) then (ra, rb) else (rb, ra)
    in
    st.parent.(rb) <- ra;
    if st.rank.(ra) = st.rank.(rb) then st.rank.(ra) <- st.rank.(ra) + 1;
    let ta = st.target.(ra) and tb = st.target.(rb) in
    (match (ta, tb) with
    | -1, -1 -> ()
    | -1, t -> st.target.(ra) <- t
    | _, -1 -> ()
    | ta, tb -> Queue.push (ta, tb) st.pending);
    st.target.(rb) <- -1
  end

let settle st =
  while not (Queue.is_empty st.pending) do
    let a, b = Queue.pop st.pending in
    union st a b
  done

(* The class [x] points to, created on demand. *)
let deref st x =
  let r = find st x in
  if st.target.(r) = -1 then begin
    let t = fresh st in
    (* re-find: fresh may have grown arrays but never moves roots *)
    st.target.(find st x) <- t;
    t
  end
  else st.target.(r)

let create (view : Objfile.view) =
  let nvars = Objfile.n_vars view in
  let cap = max 16 nvars in
  let st =
    {
      view;
      parent = Array.init cap (fun i -> i);
      rank = Array.make cap 0;
      target = Array.make cap (-1);
      nnodes = nvars;
      pending = Queue.create ();
    }
  in
  st

let process ?(tick = fun () -> ()) st =
  let loader = Loader.create st.view in
  Array.iter
    (fun (p : Objfile.prim_rec) ->
      (* x = &y: y joins the class x points to *)
      union st (deref st p.Objfile.pdst) p.Objfile.psrc;
      settle st)
    (Loader.statics loader);
  for v = 0 to Objfile.n_vars st.view - 1 do
    tick ();
    List.iter
      (fun (p : Objfile.prim_rec) ->
        (if Loader.relevant_to_points_to p then
           match p.Objfile.pkind with
           | Objfile.Paddr -> ()
           | Objfile.Pcopy -> union st (deref st p.Objfile.pdst) (deref st v)
           | Objfile.Pload ->
               (* x = *y: *x ~ **y *)
               union st (deref st p.Objfile.pdst) (deref st (deref st v))
           | Objfile.Pstore ->
               (* *x = y: **x ~ *y *)
               union st (deref st (deref st p.Objfile.pdst)) (deref st v)
           | Objfile.Pderef2 ->
               union st
                 (deref st (deref st p.Objfile.pdst))
                 (deref st (deref st v)));
        settle st)
      (Loader.block loader v)
  done;
  (* indirect calls: iterate because unification can reveal new callees *)
  let fundef_by_var = Objfile.fundef_table st.view.Objfile.rfundefs in
  let funcs =
    Array.to_list st.view.Objfile.rfundefs
    |> List.map (fun (f : Objfile.fund_rec) -> f.Objfile.ffvar)
  in
  let linked = Hashtbl.create 64 in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun idx (r : Objfile.indir_rec) ->
        tick ();
        let tclass = deref st r.Objfile.iptr in
        List.iter
          (fun gv ->
            if find st gv = find st tclass then begin
              let key = (idx, gv) in
              if not (Hashtbl.mem linked key) then begin
                Hashtbl.replace linked key ();
                changed := true;
                Objfile.iter_call_copies (Hashtbl.find fundef_by_var gv) r
                  (fun ~dst ~src ->
                    union st (deref st dst) (deref st src);
                    settle st)
              end
            end)
          funcs)
      st.view.Objfile.rindirects
  done

(** Run the unification-based analysis.  [pts(x)] is every address-taken
    object in the class [x] points to.  [deadline]/[cancel] are polled
    between constraint blocks; near-linear cost makes this the ladder's
    always-answers final rung, but a cancel token must still be able to
    stop it. *)
let solve ?(deadline = Cla_resilience.Deadline.never) ?cancel
    (view : Objfile.view) : Solution.t =
  let t_start = Cla_resilience.Deadline.now_s () in
  let steps = ref 0 in
  let progress () =
    Cla_resilience.Progress.make
      ~elapsed_s:(Cla_resilience.Deadline.now_s () -. t_start)
      (Fmt.str "steensgaard: %d blocks processed" !steps)
  in
  let check () =
    Cla_resilience.Deadline.check ~progress deadline;
    Option.iter (Cla_resilience.Cancel.check ~progress) cancel
  in
  let tick () =
    incr steps;
    if !steps land 255 = 0 then check ()
  in
  check ();
  let st = create view in
  process ~tick st;
  (* group address-taken objects by class *)
  let groups : (int, Dynarr.t) Hashtbl.t = Hashtbl.create 256 in
  Array.iter
    (fun (p : Objfile.prim_rec) ->
      let z = p.Objfile.psrc in
      let r = find st z in
      let d =
        match Hashtbl.find_opt groups r with
        | Some d -> d
        | None ->
            let d = Dynarr.create ~capacity:4 () in
            Hashtbl.replace groups r d;
            d
      in
      Dynarr.push d z)
    view.Objfile.rstatics;
  let pool = Lvalset.create_pool () in
  (* one shared set per class, not one sort per variable *)
  let group_sets = Hashtbl.create 64 in
  Hashtbl.iter
    (fun root d ->
      Hashtbl.replace group_sets root
        (Lvalset.of_dyn pool d.Dynarr.data (Dynarr.length d)))
    groups;
  let nvars = Objfile.n_vars view in
  let pts =
    Array.init nvars (fun v ->
        let rv = find st v in
        if st.target.(rv) = -1 then Lvalset.empty
        else
          match Hashtbl.find_opt group_sets (find st st.target.(rv)) with
          | Some s -> s
          | None -> Lvalset.empty)
  in
  Solution.create view pts
