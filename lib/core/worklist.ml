(** Baseline: Andersen's analysis with an explicitly transitively-closed
    points-to representation and difference propagation — the style of
    solver the paper improves on (Fähndrich et al. PLDI'98, Sucomplete
    et al.).  Points-to sets are enumerated per node; every element flows
    along every copy edge, which is exactly the O(n·E) propagation cost
    the pre-transitive graph avoids (Section 5's tradeoff discussion).

    Used for (a) cross-checking the pre-transitive solver (the two must
    agree exactly) and (b) the solver-comparison benchmark. *)

type t = {
  view : Objfile.view;
  nvars : int;
  mutable nnodes : int;
  mutable pts : int array array;  (* sorted points-to set per node *)
  mutable delta : Dynarr.t array;  (* pending, unpropagated elements *)
  mutable copy_out : Dynarr.t array;  (* n -> consumers m (m ⊇ n) *)
  mutable load_subs : Dynarr.t array;  (* n -> xs with x = *n *)
  mutable store_subs : Dynarr.t array;  (* n -> ys with *n = y *)
  copies : Edgeset.t;  (* dedup of [copy_out] *)
  queue : int Queue.t;
  mutable inqueue : Bytes.t;
  fundef_by_var : (int, Objfile.fund_rec) Hashtbl.t;
  indirect_subs : (int, (int * Objfile.indir_rec) list) Hashtbl.t;
      (* by ptr; each record keeps its global index for link dedup *)
  linked : Edgeset.t;  (* record index -> funcs linked through it *)
}

let grow st needed =
  let cap = Array.length st.pts in
  if needed > cap then begin
    let cap' = max needed (2 * cap) in
    let arr_arr =
      Array.init cap' (fun i -> if i < cap then st.pts.(i) else [||])
    in
    st.pts <- arr_arr;
    let dyn old = Array.init cap' (fun i -> if i < cap then old.(i) else Dynarr.empty) in
    st.delta <- dyn st.delta;
    st.copy_out <- dyn st.copy_out;
    st.load_subs <- dyn st.load_subs;
    st.store_subs <- dyn st.store_subs;
    let b = Bytes.make cap' '\000' in
    Bytes.blit st.inqueue 0 b 0 cap;
    st.inqueue <- b
  end

let fresh_node st =
  let id = st.nnodes in
  grow st (id + 1);
  st.nnodes <- id + 1;
  id

let enqueue st n =
  if Bytes.get st.inqueue n = '\000' then begin
    Bytes.set st.inqueue n '\001';
    Queue.push n st.queue
  end

(* Add the sorted, deduped [elems] to pts(n); new elements also join the
   delta and [n] is scheduled. *)
let add_elems st n (elems : int array) =
  if Array.length elems > 0 then begin
    let old = st.pts.(n) in
    let out = Array.make (Array.length old + Array.length elems) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    let added = ref false in
    while !i < Array.length old && !j < Array.length elems do
      let x = old.(!i) and y = elems.(!j) in
      if x < y then (out.(!k) <- x; incr i; incr k)
      else if y < x then begin
        out.(!k) <- y;
        Dynarr.push_at st.delta n y;
        added := true;
        incr j; incr k
      end
      else (out.(!k) <- x; incr i; incr j; incr k)
    done;
    while !i < Array.length old do out.(!k) <- old.(!i); incr i; incr k done;
    while !j < Array.length elems do
      out.(!k) <- elems.(!j);
      Dynarr.push_at st.delta n elems.(!j);
      added := true;
      incr j; incr k
    done;
    if !added then begin
      st.pts.(n) <- Array.sub out 0 !k;
      enqueue st n
    end
  end

let add_one st n z = add_elems st n [| z |]

(* m ⊇ n; on creation, everything already at n flows to m. *)
let add_copy st ~dst:m ~src:n =
  if m <> n && Edgeset.add st.copies n m then begin
    Dynarr.push_at st.copy_out n m;
    add_elems st m st.pts.(n)
  end

let create (view : Objfile.view) =
  let nvars = Objfile.n_vars view in
  let cap = max 16 nvars in
  let st =
    {
      view;
      nvars;
      nnodes = nvars;
      pts = Array.make cap [||];
      delta = Array.make cap Dynarr.empty;
      copy_out = Array.make cap Dynarr.empty;
      load_subs = Array.make cap Dynarr.empty;
      store_subs = Array.make cap Dynarr.empty;
      copies = Edgeset.create ();
      queue = Queue.create ();
      inqueue = Bytes.make cap '\000';
      fundef_by_var = Objfile.fundef_table view.Objfile.rfundefs;
      indirect_subs = Hashtbl.create 256;
      linked = Edgeset.create ();
    }
  in
  Array.iteri
    (fun idx (r : Objfile.indir_rec) ->
      let prev =
        Option.value ~default:[] (Hashtbl.find_opt st.indirect_subs r.Objfile.iptr)
      in
      Hashtbl.replace st.indirect_subs r.Objfile.iptr ((idx, r) :: prev))
    view.Objfile.rindirects;
  st

let load_all st =
  let loader = Loader.create st.view in
  Array.iter
    (fun (p : Objfile.prim_rec) -> add_one st p.Objfile.pdst p.Objfile.psrc)
    (Loader.statics loader);
  for v = 0 to st.nvars - 1 do
    List.iter
      (fun (p : Objfile.prim_rec) ->
        if Loader.relevant_to_points_to p then
          match p.Objfile.pkind with
          | Objfile.Paddr -> ()
          | Objfile.Pcopy -> add_copy st ~dst:p.Objfile.pdst ~src:v
          | Objfile.Pload ->
              (* x = *v: subscribe x on the pointer v *)
              Dynarr.push_at st.load_subs v p.Objfile.pdst
          | Objfile.Pstore ->
              (* *x = v: subscribe the value v on the pointer x *)
              Dynarr.push_at st.store_subs p.Objfile.pdst v
          | Objfile.Pderef2 ->
              (* *x = *v, split through t: t = *v; *x = t *)
              let tnode = fresh_node st in
              Dynarr.push_at st.load_subs v tnode;
              Dynarr.push_at st.store_subs p.Objfile.pdst tnode)
      (Loader.block loader v)
  done

let link_indirect st idx r gv =
  match Hashtbl.find_opt st.fundef_by_var gv with
  | None -> ()
  | Some fd ->
      if Edgeset.add st.linked idx gv then
        Objfile.iter_call_copies fd r (add_copy st)

let propagate ?(tick = fun () -> ()) st =
  while not (Queue.is_empty st.queue) do
    tick ();
    let n = Queue.pop st.queue in
    Bytes.set st.inqueue n '\000';
    let d = Dynarr.to_array st.delta.(n) in
    Dynarr.clear st.delta.(n);
    if Array.length d > 0 then begin
      Intsort.sort d (Array.length d);
      (* dedup *)
      let w = ref 1 in
      for r = 1 to Array.length d - 1 do
        if d.(r) <> d.(!w - 1) then begin
          d.(!w) <- d.(r);
          incr w
        end
      done;
      let d = Array.sub d 0 !w in
      (* copy edges: flow the delta to consumers *)
      Dynarr.iter (fun m -> add_elems st m d) st.copy_out.(n);
      (* loads x = *n: subscribe x to each new pointee *)
      Dynarr.iter
        (fun x -> Array.iter (fun z -> add_copy st ~dst:x ~src:z) d)
        st.load_subs.(n);
      (* stores *n = y: each new pointee consumes y *)
      Dynarr.iter
        (fun y -> Array.iter (fun z -> add_copy st ~dst:z ~src:y) d)
        st.store_subs.(n);
      (* indirect calls through n *)
      (match Hashtbl.find_opt st.indirect_subs n with
      | Some rs ->
          Array.iter
            (fun gv -> List.iter (fun (idx, r) -> link_indirect st idx r gv) rs)
            d
      | None -> ())
    end
  done

(** Run the transitively-closed baseline to fixpoint.  [deadline] and
    [cancel] are polled every few hundred worklist pops; aborting between
    pops is safe (the queue is simply discarded with the state). *)
let solve ?(deadline = Cla_resilience.Deadline.never) ?cancel
    (view : Objfile.view) : Solution.t =
  let t_start = Cla_resilience.Deadline.now_s () in
  let pops = ref 0 in
  let progress () =
    Cla_resilience.Progress.make
      ~elapsed_s:(Cla_resilience.Deadline.now_s () -. t_start)
      (Fmt.str "worklist: %d pops" !pops)
  in
  let check () =
    Cla_resilience.Deadline.check ~progress deadline;
    Option.iter (Cla_resilience.Cancel.check ~progress) cancel
  in
  let tick () =
    incr pops;
    if !pops land 255 = 0 then check ()
  in
  check ();
  let st = create view in
  load_all st;
  propagate ~tick st;
  let pool = Lvalset.create_pool () in
  let pts =
    Array.init st.nvars (fun v -> Lvalset.share pool st.pts.(v))
  in
  Solution.create view pts
