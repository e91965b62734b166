(* Tests for the incremental compile-link-analyze chain: TU content
   hashing, the direct-mode unit probe, the delta linker against a
   full-merge oracle, and the solver's delta resume against
   from-scratch solves over edit streams. *)

open Cla_core
module W = Cla_workload

let small_profile = W.Profile.scaled 0.02 W.Profile.burlap

(* ------------------------------------------------------------------ *)
(* TU content hash                                                     *)
(* ------------------------------------------------------------------ *)

let test_tuhash_matrix () =
  let src = "int x; int *p; void f(void) { p = &x; }" in
  let h = Compilep.tu_hash ~file:"a.c" src in
  (* deterministic *)
  Alcotest.(check string) "same input, same hash" h
    (Compilep.tu_hash ~file:"a.c" src);
  (* the hash is over the preprocessed text: whitespace-only changes
     that survive preprocessing change it, a comment does not
     necessarily — so probe with a semantic change *)
  let h2 = Compilep.tu_hash ~file:"a.c" (src ^ " int y;") in
  Alcotest.(check bool) "edited source, new hash" false (String.equal h h2);
  (* options are part of the hash *)
  let opt_d =
    { Compilep.default_options with Compilep.defines = [ ("A", "1") ] }
  in
  Alcotest.(check bool) "defines change the hash" false
    (String.equal h (Compilep.tu_hash ~options:opt_d ~file:"a.c" src));
  let opt_m =
    {
      Compilep.default_options with
      Compilep.mode = Cla_cfront.Normalize.Field_independent;
    }
  in
  Alcotest.(check bool) "mode changes the hash" false
    (String.equal h (Compilep.tu_hash ~options:opt_m ~file:"a.c" src))

let test_tuhash_recorded () =
  let src = "int x; int *p; void f(void) { p = &x; }" in
  let db = Compilep.compile_string ~file:"a.c" src in
  (match db.Objfile.tuhash with
  | Some h ->
      Alcotest.(check string) "compile records tu_hash" h
        (Compilep.tu_hash ~file:"a.c" src)
  | None -> Alcotest.fail "unit object carries no tuhash");
  (* and it round-trips through the object format *)
  let view = Objfile.view_of_string (Objfile.write db) in
  Alcotest.(check (option string)) "tuhash round-trips" db.Objfile.tuhash
    view.Objfile.rtuhash;
  (* linked databases don't carry one *)
  let linked, _ = Linkp.link_views [ view ] in
  Alcotest.(check (option string)) "linked db has none" None
    linked.Objfile.tuhash

(* ------------------------------------------------------------------ *)
(* Delta link vs full merge                                            *)
(* ------------------------------------------------------------------ *)

let compile_unit (file, src) =
  (file, Objfile.view_of_string (Objfile.write (Compilep.compile_string ~file src)))

(* Name-keyed points-to map — the id-independent oracle: the delta
   linker assigns different ids than a from-scratch merge (it appends
   where the full merge interleaves), but the named relation must
   match. *)
let named_of_solution sol view =
  let tbl = Hashtbl.create 256 in
  Array.iteri
    (fun v _ ->
      let pts = Solution.points_to sol v in
      if Lvalset.cardinal pts > 0 then
        Hashtbl.replace tbl
          (Solution.var_name sol v)
          (List.sort compare
             (List.map (Solution.var_name sol) (Lvalset.to_list pts))))
    view.Objfile.rvars;
  tbl

let named_pts view = named_of_solution (Pipeline.points_to view) view

let check_same_named msg a b =
  Alcotest.(check int)
    (msg ^ ": same pointer count")
    (Hashtbl.length a) (Hashtbl.length b);
  Hashtbl.iter
    (fun name pts ->
      match Hashtbl.find_opt b name with
      | Some pts' -> Alcotest.(check (list string)) (msg ^ ": " ^ name) pts pts'
      | None -> Alcotest.fail (msg ^ ": " ^ name ^ " missing from oracle"))
    a

let check_same_named_pts msg va vb = check_same_named msg (named_pts va) (named_pts vb)

let full_merge units = Objfile.encode (fst (Linkp.link_views (List.map snd units)))

let test_delta_link_pure_add () =
  let u1 = ("a.c", "int x; int *p; void f(void) { p = &x; }") in
  let u2 = ("b.c", "extern int *p; int *q; void g(void) { q = p; }") in
  let st, d0 = Linkp.state_create (List.map compile_unit [ u1; u2 ]) in
  Alcotest.(check bool) "initial delta is all-added" true
    (Linkp.delta_is_pure_add d0);
  (* append-only edit to b.c *)
  let u2' =
    ("b.c", snd u2 ^ "\nint y;\nvoid ce_edit_0(void) { q = &y; }\n")
  in
  let units' = List.map compile_unit [ u1; u2' ] in
  let d = Linkp.relink st units' in
  Alcotest.(check bool) "append-only edit is pure-add" true
    (Linkp.delta_is_pure_add d);
  Alcotest.(check bool) "no full relink" false d.Linkp.d_full_relink;
  Alcotest.(check bool) "constraints were added" true
    (Linkp.delta_size_added d > 0);
  let oracle = full_merge units' in
  check_same_named_pts "patched view vs full merge" (Linkp.state_view st)
    oracle

let test_delta_link_removal_falls_back () =
  let u1 = ("a.c", "int x; int *p; void f(void) { p = &x; }") in
  let u2 = ("b.c", "extern int *p; int *q; void g(void) { q = p; }") in
  let st, _ = Linkp.state_create (List.map compile_unit [ u1; u2 ]) in
  (* remove the assignment from b.c *)
  let u2' = ("b.c", "extern int *p; int *q;") in
  let units' = List.map compile_unit [ u1; u2' ] in
  let d = Linkp.relink st units' in
  Alcotest.(check bool) "removal is not pure-add" false
    (Linkp.delta_is_pure_add d);
  let oracle = full_merge units' in
  check_same_named_pts "post-removal view vs full merge" (Linkp.state_view st)
    oracle

(* ------------------------------------------------------------------ *)
(* Relinked bytes: the patch path re-emits what a fresh encode writes  *)
(* ------------------------------------------------------------------ *)

(* The database a view's own records describe. *)
let db_of_view (v : Objfile.view) : Objfile.db =
  {
    Objfile.vars = Array.copy v.Objfile.rvars;
    keys = v.Objfile.rkeys;
    statics = Array.to_list v.Objfile.rstatics;
    blocks = Array.init (Objfile.n_vars v) (Objfile.read_block v);
    fundefs = Array.to_list v.Objfile.rfundefs;
    indirects = Array.to_list v.Objfile.rindirects;
    consts = v.Objfile.rconsts;
    openworld = v.Objfile.ropenworld;
    tuhash = v.Objfile.rtuhash;
    meta = v.Objfile.rmeta;
  }

(* The relinked bytes are those {!Objfile.write} gives the records they
   hold. *)
let check_relinked msg st =
  let v = Linkp.state_view st in
  let digest s = Digest.to_hex (Digest.string s) in
  Alcotest.(check string) msg (digest (Objfile.write (db_of_view v))) (digest v.Objfile.data)

(* Relink after every step of a seeded edit stream, compiling only the
   edited unit. *)
let relink_stream ~profile ~p_remove ~steps ~seed () =
  let es = W.Editstream.create ~seed ~p_remove profile in
  let compiled = Hashtbl.create 16 in
  let units sources =
    List.map
      (fun (file, src) ->
        match Hashtbl.find_opt compiled file with
        | Some (src', v) when String.equal src src' -> (file, v)
        | _ ->
            let v = snd (compile_unit (file, src)) in
            Hashtbl.replace compiled file (src, v);
            (file, v))
      sources
  in
  let st, _ = Linkp.state_create (units (W.Editstream.sources es)) in
  check_relinked "first relink" st;
  let patched = ref 0 in
  for _ = 1 to steps do
    let step = W.Editstream.next es in
    let d = Linkp.relink st (units step.W.Editstream.ssources) in
    if not d.Linkp.d_full_relink then incr patched;
    check_relinked (Fmt.str "step %d (%s)" step.W.Editstream.snum step.W.Editstream.sdesc) st
  done;
  Alcotest.(check bool) "some steps patched" true (!patched > 0)

let test_relink_stream_tiny p_remove =
  relink_stream ~profile:small_profile ~p_remove ~steps:16 ~seed:13L

let test_relink_stream_vortex p_remove =
  relink_stream ~profile:(W.Profile.scaled 0.1 W.Profile.vortex) ~p_remove ~steps:10 ~seed:17L

(* One relink that must take the patch path, then the byte check. *)
let relink_pure msg st units =
  let d = Linkp.relink st (List.map compile_unit units) in
  Alcotest.(check bool) (msg ^ ": pure add") true (Linkp.delta_is_pure_add d);
  check_relinked msg st

let find_var st name =
  let v = Linkp.state_view st in
  match Objfile.find_targets v name with
  | [ i ] -> v.Objfile.rvars.(i)
  | _ -> Alcotest.fail ("no unique variable " ^ name)

(* Edits that move what the kept columns cannot see: an old record
   rewritten, strings first used late, new files, a grown key table,
   changed constants. *)
let test_relink_forced () =
  let a =
    ( "a.c",
      "struct s; struct s *sp; extern int *e; int *p, *q, n;\n\
       void f(void) { p = q; q = sp->fld; p = e; }\n" )
  and b = ("b.c", "int x;\nvoid g(void) { x = 1; }\n") in
  let st, _ = Linkp.state_create (List.map compile_unit [ a; b ]) in
  check_relinked "first relink" st;
  Alcotest.(check string) "s.fld starts untyped" "" (find_var st "s.fld").Objfile.vtyp;
  Alcotest.(check bool) "e starts declared only" false (find_var st "e").Objfile.vdefined;
  (* b completes struct s and defines e: both old records are replaced *)
  let b =
    (fst b, snd b ^ "struct s { int *fld; } sv;\nint *e;\nvoid h(void) { sv.fld = p; }\n")
  in
  relink_pure "old externs upgraded" st [ a; b ];
  Alcotest.(check bool) "s.fld is typed" true ((find_var st "s.fld").Objfile.vtyp <> "");
  Alcotest.(check bool) "e is defined" true (find_var st "e").Objfile.vdefined;
  (* a tail on q's old block carries an operation string no section
     used before *)
  let strings () = (Linkp.state_view st).Objfile.strings in
  let a = (fst a, snd a ^ "void k(void) { p = q + 1; }\n") in
  let before = strings () in
  relink_pure "new op in an old block's tail" st [ a; b ];
  let v = Linkp.state_view st in
  let q = match Objfile.find_targets v "q" with [ q ] -> q | _ -> Alcotest.fail "no q" in
  Alcotest.(check bool) "q's block has a new operation string" true
    (List.exists
       (fun (r : Objfile.prim_rec) ->
         match r.Objfile.pop with Some (op, _) -> not (Array.mem op before) | None -> false)
       (Objfile.read_block v q));
  (* a new unit brings its file name *)
  let c = ("c.c", "extern int *p; int y;\nvoid m(void) { p = &y; }\n") in
  relink_pure "new file" st [ a; b; c ];
  Alcotest.(check bool) "c.c is a string" true (Array.mem "c.c" (strings ()));
  (* enough externs that the key table grows and GLOBALS reorders *)
  let many =
    ( "d.c",
      String.concat "" (List.init 2100 (fun i -> Fmt.str "int e%d;\n" i))
      ^ "void r(void) { e0 = 2; }\n" )
  in
  relink_pure "key table grown" st [ a; b; c; many ];
  Alcotest.(check bool) "GLOBALS holds the new keys" true
    (List.length (Linkp.state_view st).Objfile.rkeys > 2100);
  (* a new constant *)
  let b = (fst b, snd b ^ "void s(void) { n = 7; }\n") in
  let consts = (Linkp.state_view st).Objfile.rconsts in
  relink_pure "new constant" st [ a; b; c; many ];
  Alcotest.(check bool) "CONSTS changed" true
    ((Linkp.state_view st).Objfile.rconsts <> consts)

(* One update defines the same function in two units.  The linked
   database keeps the first definition, as the full merge does; the
   resumed solution must bind calls through that one too.  [params_b]
   and [ret_b] are the second definition's parameters and result. *)
let check_duplicate_fundef ~params_b ~ret_b () =
  let a_base =
    "int x, y, z; int *(*fp)(int *, int *); int *r;\n\
     void use(void) { r = fp(&x, &y); }\n"
  and b_base = "int w;\n" in
  let a' = a_base ^ "int *g(int *p) { return p; }\n"
  and b' =
    b_base ^ Fmt.str "int *g(%s) { return %s; }\nvoid set(void) { fp = g; }\n"
               params_b ret_b
  in
  let t, _ = Incremental.create [ ("a.c", a_base); ("b.c", b_base) ] in
  let s = Incremental.update t [ ("a.c", a'); ("b.c", b') ] in
  Alcotest.(check bool) "pure-add delta" true s.Incremental.delta_pure;
  Alcotest.(check bool) "solver resumed" true s.Incremental.resumed;
  let oracle = full_merge (List.map compile_unit [ ("a.c", a'); ("b.c", b') ]) in
  check_same_named "resumed vs full merge"
    (named_of_solution (Incremental.solution t) (Incremental.view t))
    (named_pts oracle)

let test_duplicate_fundef_arity =
  check_duplicate_fundef ~params_b:"int *p, int *q" ~ret_b:"q"

let test_duplicate_fundef_same_arity =
  check_duplicate_fundef ~params_b:"int *p" ~ret_b:"p"

(* ------------------------------------------------------------------ *)
(* Incremental driver over edit streams                                *)
(* ------------------------------------------------------------------ *)

(* The hard gate: after every step, the incrementally-maintained
   solution must equal a from-scratch solve of the same linked view. *)
let run_stream ~p_remove ~steps ~seed () =
  let es = W.Editstream.create ~seed ~p_remove small_profile in
  let t, s0 = Incremental.create (W.Editstream.sources es) in
  let n_files = s0.Incremental.sources in
  Alcotest.(check bool) "base build compiles everything" true
    (s0.Incremental.cache_misses = n_files);
  let scratch = Andersen.solve (Incremental.view t) in
  Alcotest.(check bool) "base solution equals scratch" true
    (Solution.equal (Incremental.solution t) scratch.Andersen.solution);
  for _ = 1 to steps do
    let step = W.Editstream.next es in
    let s = Incremental.update t step.W.Editstream.ssources in
    Alcotest.(check int)
      (Fmt.str "step %d (%s): one recompile" step.W.Editstream.snum
         step.W.Editstream.sdesc)
      1 s.Incremental.cache_misses;
    Alcotest.(check int)
      (Fmt.str "step %d: rest cached" step.W.Editstream.snum)
      (n_files - 1) s.Incremental.cache_hits;
    if not step.W.Editstream.sremoval then begin
      Alcotest.(check bool)
        (Fmt.str "step %d: pure-add delta" step.W.Editstream.snum)
        true s.Incremental.delta_pure;
      Alcotest.(check bool)
        (Fmt.str "step %d: solver resumed" step.W.Editstream.snum)
        true s.Incremental.resumed
    end
    else
      Alcotest.(check bool)
        (Fmt.str "step %d: removal fell back" step.W.Editstream.snum)
        false s.Incremental.resumed;
    let view = Incremental.view t in
    Viewcheck.check
      (Fmt.str "step %d: encoded view" step.W.Editstream.snum)
      view
      (Objfile.view_of_string view.Objfile.data);
    let scratch = Andersen.solve view in
    Alcotest.(check bool)
      (Fmt.str "step %d: incremental == scratch" step.W.Editstream.snum)
      true
      (Solution.equal (Incremental.solution t) scratch.Andersen.solution)
  done

let test_stream_add_only () = run_stream ~p_remove:0.0 ~steps:12 ~seed:7L ()

let test_stream_with_removals () =
  run_stream ~p_remove:0.35 ~steps:12 ~seed:11L ()

let test_update_noop () =
  let es = W.Editstream.create ~seed:3L small_profile in
  let t, _ = Incremental.create (W.Editstream.sources es) in
  let before = Incremental.solution t in
  let s = Incremental.update t (W.Editstream.sources es) in
  Alcotest.(check int) "no recompiles" 0 s.Incremental.cache_misses;
  Alcotest.(check bool) "returned before the relink" false
    s.Incremental.relinked;
  Alcotest.(check bool) "solution unchanged" true
    (Solution.equal before (Incremental.solution t))

(* A hand-written pure-add edit: one record of each dynamic kind, all
   in blocks that were resident before the edit (so the resume
   translates them one by one instead of reading their block), plus one
   indirect call.  Beyond [Solution.equal], the retained complex
   assignments and the analysis-time call copies — which the dependence
   analysis consumes — must match a from-scratch solve as multisets. *)
let test_resume_each_kind () =
  let base =
    "int a, b;\n\
     int *p, *q, *r, **pp, **qq;\n\
     int *id(int *x) { return x; }\n\
     int *(*fp)(int *);\n\
     void setup(void) { p = &a; q = &b; pp = &p; qq = &q; fp = id; }\n"
  in
  let edit =
    base
    ^ "void edit(void) { r = q; r = *pp; *pp = q; *pp = *qq; r = fp(p); }\n"
  in
  let inc, _ = Incremental.create [ ("e.c", base) ] in
  let before = Incremental.view inc in
  let st, _ = Andersen.solve_state before in
  List.iter
    (fun name ->
      match Objfile.find_targets before name with
      | [ v ] ->
          Alcotest.(check bool) (name ^ "'s block resident before the edit")
            true
            (Andersen.block_active st v)
      | _ -> Alcotest.fail ("no unique variable " ^ name))
    [ "q"; "pp"; "qq" ];
  let s = Incremental.update inc [ ("e.c", edit) ] in
  Alcotest.(check bool) "pure-add delta" true s.Incremental.delta_pure;
  Alcotest.(check bool) "solver resumed" true s.Incremental.resumed;
  let kinds =
    List.sort_uniq compare
      (List.map
         (fun (p : Objfile.prim_rec) -> p.Objfile.pkind)
         (List.concat_map
            (fun v -> Objfile.read_block (Incremental.view inc) v)
            (List.concat_map
               (Objfile.find_targets (Incremental.view inc))
               [ "q"; "pp"; "qq" ])))
  in
  Alcotest.(check int) "edit reaches all four dynamic kinds" 4
    (List.length
       (List.filter (fun k -> k <> Objfile.Paddr) kinds));
  let inc_r = Incremental.result inc in
  let scratch = Andersen.solve (Incremental.view inc) in
  Alcotest.(check bool) "incremental == scratch" true
    (Solution.equal inc_r.Andersen.solution scratch.Andersen.solution);
  let same msg a b =
    Alcotest.(check bool) msg true
      (List.sort compare a = List.sort compare b)
  in
  same "retained multiset" inc_r.Andersen.retained scratch.Andersen.retained;
  same "linked copies multiset" inc_r.Andersen.linked_copies
    scratch.Andersen.linked_copies;
  Alcotest.(check bool) "the call was linked" true
    (inc_r.Andersen.linked_copies <> [])

(* A resumed result reports the passes that resume ran, not every pass
   since the boot solve: after each of several resumes, [passes] and
   [pass_log] agree with each other, with the 1-based numbering, and
   with the [analyze.pass] spans recorded under that resume. *)
let test_resume_reports_own_passes () =
  let module Span = Cla_obs.Span in
  let es = W.Editstream.create ~seed:7L ~p_remove:0.0 small_profile in
  let t, _ = Incremental.create (W.Editstream.sources es) in
  for _ = 1 to 4 do
    let step = W.Editstream.next es in
    Span.reset ();
    Span.set_enabled true;
    let s = Incremental.update t step.W.Editstream.ssources in
    Span.set_enabled false;
    let msg = Fmt.str "step %d" step.W.Editstream.snum in
    Alcotest.(check bool) (msg ^ ": resumed") true s.Incremental.resumed;
    let r = Incremental.result t in
    let spans =
      match Span.find "analyze.resume" (Span.roots ()) with
      | Some a ->
          List.length
            (List.filter (fun c -> c.Span.name = "analyze.pass") a.Span.children)
      | None -> Alcotest.fail (msg ^ ": no analyze.resume span")
    in
    Alcotest.(check int) (msg ^ ": passes = pass_log length")
      (List.length r.Andersen.pass_log) r.Andersen.passes;
    Alcotest.(check int) (msg ^ ": passes = this resume's pass spans") spans
      r.Andersen.passes;
    Alcotest.(check (list int)) (msg ^ ": passes numbered from 1")
      (List.init spans succ)
      (List.map (fun p -> p.Andersen.ps_pass) r.Andersen.pass_log)
  done;
  Span.reset ()

(* Resumed passes keep their reachability memos, so every pass that
   changes the graph must invalidate what it touched before the next
   pass reads them.  These streams make resumes iterate: each step
   appends random records to a Genir-shaped unit, plus a cycle-closing
   pair [q = z; *p = q] with [z] already in [pts(p)] — the store adds
   [z -> q], which closes [z -> q -> z].  After every step the resumed
   solution must equal a scratch solve. *)
let multi_pass_resumes = ref 0

let resume_stream (shape, seed) =
  let rs = Random.State.make [| seed |] in
  let base = W.Genir.shaped ~scale:0.2 shape (Int64.of_int seed) in
  let db = ref (db_of_view base) in
  let lstate, _ = Linkp.state_create [ ("g.c", base) ] in
  let linked = Linkp.state_view lstate in
  (* one unit links onto its own ids, so a record written against the
     unit reads the same in the linked view *)
  if
    Array.map (fun v -> v.Objfile.vname) linked.Objfile.rvars
    <> Array.map (fun v -> v.Objfile.vname) base.Objfile.rvars
  then QCheck.Test.fail_report "linked ids differ from the unit's";
  let st, r0 = Andersen.solve_state linked in
  let sol = ref r0.Andersen.solution in
  for step = 1 to 5 do
    let d = !db in
    let n = Array.length d.Objfile.vars in
    let var () = Random.State.int rs n in
    let prim pkind pdst psrc =
      { Objfile.pkind; pdst; psrc; pop = None; ploc = Cla_ir.Loc.none }
    in
    let blocks = Array.copy d.Objfile.blocks in
    let add (p : Objfile.prim_rec) =
      blocks.(p.Objfile.psrc) <- blocks.(p.Objfile.psrc) @ [ p ]
    in
    for _ = 0 to Random.State.int rs 4 do
      let kinds = Objfile.[| Pcopy; Pstore; Pload; Pderef2 |] in
      add (prim kinds.(Random.State.int rs 4) (var ()) (var ()))
    done;
    (match
       List.filter
         (fun v -> Lvalset.cardinal (Solution.points_to !sol v) > 0)
         (List.init n Fun.id)
     with
    | [] -> ()
    | ptrs ->
        let p = List.nth ptrs (Random.State.int rs (List.length ptrs)) in
        let z = List.hd (Lvalset.to_list (Solution.points_to !sol p)) in
        let q = var () in
        add (prim Objfile.Pcopy q z);
        add (prim Objfile.Pstore p q));
    let statics =
      if Random.State.bool rs then
        d.Objfile.statics @ [ prim Objfile.Paddr (var ()) (var ()) ]
      else d.Objfile.statics
    in
    db := { d with Objfile.blocks; statics };
    let delta = Linkp.relink lstate [ ("g.c", Objfile.encode !db) ] in
    if not (Linkp.delta_is_pure_add delta) then
      QCheck.Test.fail_reportf "step %d: delta not pure-add" step;
    let view = Linkp.state_view lstate in
    match Andersen.resume st ~view ~delta with
    | None -> QCheck.Test.fail_reportf "step %d: resume declined" step
    | Some r ->
        if r.Andersen.passes <> List.length r.Andersen.pass_log then
          QCheck.Test.fail_reportf "step %d: %d passes, %d logged" step
            r.Andersen.passes (List.length r.Andersen.pass_log);
        if r.Andersen.passes >= 2 then incr multi_pass_resumes;
        if
          not
            (Solution.equal r.Andersen.solution
               (Andersen.solve view).Andersen.solution)
        then
          QCheck.Test.fail_reportf "step %d: resumed (%d passes) <> scratch"
            step r.Andersen.passes;
        sol := r.Andersen.solution
  done;
  true

let test_multi_pass_resumes () =
  multi_pass_resumes := 0;
  QCheck.Test.check_exn ~rand:(Random.State.make [| 31 |])
    (QCheck.Test.make ~count:30 ~name:"resumed == scratch over Genir shapes"
       QCheck.(
         pair
           (make ~print:W.Genir.shape_name (Gen.oneofl W.Genir.all_shapes))
           (int_bound 1_000_000))
       resume_stream);
  Alcotest.(check bool) "some resumes ran two or more passes" true
    (!multi_pass_resumes > 0)

(* ------------------------------------------------------------------ *)
(* Direct-mode probe: source digest + include-manifest replay          *)
(* ------------------------------------------------------------------ *)

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

let fresh_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

let compile_units_count () =
  Option.value ~default:0 (Cla_obs.Metrics.get_int "compile.units")

(* Update, and gate the held solution on a from-scratch solve of the
   same view. *)
let update_checked msg t sources =
  let s = Incremental.update t sources in
  let scratch = Andersen.solve (Incremental.view t) in
  Alcotest.(check bool)
    (msg ^ ": incremental == scratch")
    true
    (Solution.equal (Incremental.solution t) scratch.Andersen.solution);
  s

let check_probe msg ~hits ~misses s =
  Alcotest.(check int) (msg ^ ": misses") misses s.Incremental.cache_misses;
  Alcotest.(check int) (msg ^ ": hits") hits s.Incremental.cache_hits

let has_target t var target =
  let sol = Incremental.solution t in
  List.exists
    (fun v ->
      Lvalset.fold
        (fun acc z -> acc || String.equal (Solution.var_name sol z) target)
        false (Solution.points_to sol v))
    (Objfile.find_targets (Incremental.view t) var)

(* A header edit with the .c bytes unchanged is a miss for exactly the
   including unit; its sibling stays a hit. *)
let test_direct_header_edit () =
  let dir = fresh_dir "cla_direct" in
  let a = Filename.concat dir "a.c" and b = Filename.concat dir "b.c" in
  write_file (Filename.concat dir "h.h") "#define TARGET x\n";
  let a_src =
    "#include \"h.h\"\nint x, y; int *p;\nvoid f(void) { p = &TARGET; }\n"
  in
  let sources =
    [ (a, a_src); (b, "extern int *p; int *q;\nvoid g(void) { q = p; }\n") ]
  in
  let t, _ = Incremental.create sources in
  Alcotest.(check bool) "p -> x" true (has_target t "p" "x");
  let s = update_checked "untouched" t sources in
  check_probe "untouched" ~hits:2 ~misses:0 s;
  write_file (Filename.concat dir "h.h") "#define TARGET y\n";
  let s = update_checked "header edit" t sources in
  check_probe "header edit" ~hits:1 ~misses:1 s;
  Alcotest.(check bool) "p -> y after the header edit" true
    (has_target t "p" "y");
  Alcotest.(check bool) "p -/-> x after the header edit" false
    (has_target t "p" "x")

(* A missing <x.h> that later appears in an include dir is a miss: the
   manifest recorded the lookup as resolving to nothing. *)
let test_direct_system_header_appears () =
  let dir = fresh_dir "cla_direct" in
  let inc = Filename.concat dir "inc" in
  Unix.mkdir inc 0o700;
  let options =
    { Compilep.default_options with Compilep.include_dirs = [ inc ] }
  in
  let a = Filename.concat dir "a.c" in
  let sources =
    [
      ( a,
        "#include <x.h>\nint x, y; int *p;\nvoid f(void) { p = &x; }\n\
         #ifdef HAVE_X\nvoid g(void) { p = &y; }\n#endif\n" );
    ]
  in
  let t, _ = Incremental.create ~options sources in
  Alcotest.(check bool) "no y before x.h exists" false (has_target t "p" "y");
  let s = update_checked "still missing" t sources in
  check_probe "still missing" ~hits:1 ~misses:0 s;
  write_file (Filename.concat inc "x.h") "#define HAVE_X 1\n";
  let s = update_checked "x.h appeared" t sources in
  check_probe "x.h appeared" ~hits:0 ~misses:1 s;
  Alcotest.(check bool) "p -> y once x.h exists" true (has_target t "p" "y")

(* A comment-only edit changes the source digest (a direct miss) but
   not the preprocessed text: the recompiled unit keeps its TU hash,
   so the delta linker skips it and the link delta is empty. *)
let test_direct_comment_edit () =
  let src c = Fmt.str "int x; int *p; // %s\nvoid f(void) { p = &x; }\n" c in
  let b = ("b.c", "extern int *p; int *q;\nvoid g(void) { q = p; }\n") in
  let t, _ = Incremental.create [ ("a.c", src "one"); b ] in
  let s = update_checked "comment edit" t [ ("a.c", src "two"); b ] in
  check_probe "comment edit" ~hits:1 ~misses:1 s;
  Alcotest.(check int) "nothing added" 0 s.Incremental.delta_added;
  Alcotest.(check int) "nothing removed" 0 s.Incremental.delta_removed;
  Alcotest.(check string) "same TU hash"
    (Compilep.tu_hash ~file:"a.c" (src "one"))
    (Compilep.tu_hash ~file:"a.c" (src "two"))

(* A one-file edit over N units compiles exactly one unit: the probe
   never runs the front end on a hit. *)
let test_direct_one_compile () =
  let es = W.Editstream.create ~seed:5L small_profile in
  let t, s0 = Incremental.create (W.Editstream.sources es) in
  let n = s0.Incremental.sources in
  Alcotest.(check bool) "several units" true (n > 1);
  for _ = 1 to 3 do
    let step = W.Editstream.next es in
    let before = compile_units_count () in
    let s =
      update_checked step.W.Editstream.sdesc t step.W.Editstream.ssources
    in
    check_probe step.W.Editstream.sdesc ~hits:(n - 1) ~misses:1 s;
    Alcotest.(check int)
      (step.W.Editstream.sdesc ^ ": compile.units delta")
      1
      (compile_units_count () - before)
  done

(* ------------------------------------------------------------------ *)
(* Live --watch server across a swap                                   *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* Run [f ask] against a real watch-mode server over [src], then shut
   it down.  The poll period is one the test never reaches: the
   explicit reanalyze op is the only trigger, so swap points are
   deterministic. *)
let with_watch_server ?snapshot ?save ~dir src f =
  let socket = Filename.concat dir "s.sock" in
  let config =
    {
      Cla_serve.Server.default_config with
      socket_path = socket;
      watch_poll_ms = 60_000;
      snapshot_path = snapshot;
      save_snapshot = save;
    }
  in
  let handle = ref None in
  let ready_m = Mutex.create () and ready_c = Condition.create () in
  let server =
    Thread.create
      (fun () ->
        ignore
          (Cla_serve.Server.run_watch ~config
             ~on_ready:(fun t ->
               Mutex.lock ready_m;
               handle := Some t;
               Condition.signal ready_c;
               Mutex.unlock ready_m)
             src))
      ()
  in
  Mutex.lock ready_m;
  while !handle = None do
    Condition.wait ready_c ready_m
  done;
  Mutex.unlock ready_m;
  let ask line =
    match Cla_serve.Client.round_trip ~socket line with
    | Ok reply -> reply
    | Error _ -> Alcotest.fail ("no reply to " ^ line)
  in
  Fun.protect
    ~finally:(fun () ->
      Option.iter Cla_serve.Server.request_shutdown !handle;
      Thread.join server)
    (fun () -> f ask)

(* Query a two-file tree, append an assignment to one TU, force the
   rescan through the [reanalyze] protocol op, and check the next query
   sees the swapped solution: one recompile, the other TU cached, the
   solver resumed. *)
let test_watch_server () =
  let dir = fresh_dir "cla_watch" in
  let src = Filename.concat dir "src" in
  Unix.mkdir src 0o700;
  write_file (Filename.concat src "a.c")
    "int x; int *p;\nvoid f(void) { p = &x; }\n";
  let b_base = "extern int *p; int *q;\nvoid g(void) { q = p; }\n" in
  write_file (Filename.concat src "b.c") b_base;
  with_watch_server ~dir src @@ fun ask ->
  let reply = ask "{\"id\":1,\"op\":\"points-to\",\"var\":\"q\"}" in
  Alcotest.(check bool) "baseline sees x" true (contains reply "\"x\"");
  Alcotest.(check bool) "no z before the edit" false (contains reply "\"z\"");
  (* the one-TU append-only edit: q gains a second target *)
  write_file (Filename.concat src "b.c")
    (b_base ^ "int z;\nvoid h(void) { q = &z; }\n");
  let re = ask "{\"id\":2,\"op\":\"reanalyze\"}" in
  Alcotest.(check bool) "one TU changed" true (contains re "\"changed\": 1");
  Alcotest.(check bool) "unchanged TU cached" true
    (contains re "\"cache_hits\": 1");
  Alcotest.(check bool) "solver resumed" true (contains re "\"resumed\": true");
  let reply = ask "{\"id\":3,\"op\":\"points-to\",\"var\":\"q\"}" in
  Alcotest.(check bool) "swap kept x" true (contains reply "\"x\"");
  Alcotest.(check bool) "swap sees z" true (contains reply "\"z\"");
  (* nothing changed: the rescan must be a no-op *)
  let re = ask "{\"id\":4,\"op\":\"reanalyze\"}" in
  Alcotest.(check bool) "no-op rescan" true (contains re "\"changed\": 0")

(* Header-only edits: the watched a.c includes h.h (in the watched
   directory) and ../inc/g.h (outside it, invisible to the stat
   signature).  Editing either header alone, then sending reanalyze,
   must move the next answer. *)
let test_watch_header_edit () =
  let dir = fresh_dir "cla_watch" in
  let src = Filename.concat dir "src" and inc = Filename.concat dir "inc" in
  Unix.mkdir src 0o700;
  Unix.mkdir inc 0o700;
  write_file (Filename.concat src "h.h") "#define PT x\n";
  write_file (Filename.concat inc "g.h") "#define QT x\n";
  write_file (Filename.concat src "a.c")
    "#include \"h.h\"\n#include \"../inc/g.h\"\nint x, y, z; int *p, *q;\n\
     void f(void) { p = &PT; q = &QT; }\n";
  write_file (Filename.concat src "b.c")
    "extern int *p; int *r;\nvoid g(void) { r = p; }\n";
  with_watch_server ~dir src @@ fun ask ->
  let pts id var =
    ask (Fmt.str "{\"id\":%d,\"op\":\"points-to\",\"var\":%S}" id var)
  in
  let reply = pts 1 "p" in
  Alcotest.(check bool) "baseline p -> x" true (contains reply "\"x\"");
  write_file (Filename.concat src "h.h") "#define PT y\n";
  let re = ask "{\"id\":2,\"op\":\"reanalyze\"}" in
  Alcotest.(check bool) "header edit seen" true (contains re "\"changed\": 1");
  Alcotest.(check bool) "only a.c recompiled" true
    (contains re "\"cache_misses\": 1");
  let reply = pts 3 "p" in
  Alcotest.(check bool) "p -> y after editing h.h" true
    (contains reply "\"y\"");
  Alcotest.(check bool) "p -/-> x after editing h.h" false
    (contains reply "\"x\"");
  (* r copies p: the other unit's answer moves too *)
  Alcotest.(check bool) "r -> y after editing h.h" true
    (contains (pts 4 "r") "\"y\"");
  write_file (Filename.concat inc "g.h") "#define QT z\n";
  let re = ask "{\"id\":5,\"op\":\"reanalyze\"}" in
  Alcotest.(check bool) "out-of-tree header edit seen" true
    (contains re "\"changed\": 1");
  Alcotest.(check bool) "q -> z after editing g.h" true
    (contains (pts 6 "q") "\"z\"");
  let re = ask "{\"id\":7,\"op\":\"reanalyze\"}" in
  Alcotest.(check bool) "no-op rescan" true (contains re "\"changed\": 0")

(* Watch mode over a snapshot.  A first server writes the sidecar at
   boot ([save_snapshot]); a second boots from it: its queries are
   answered from the snapshot with zero solves.  After an edit and
   [reanalyze] the answer moves; without [save_snapshot] the stats stop
   reporting a snapshot, and with it the rewritten sidecar is bound to
   the post-swap view (the test rebuilds that view through the same
   incremental steps). *)
let test_watch_snapshot () =
  let module Json = Cla_obs.Json in
  let dir = fresh_dir "cla_watch" in
  let src = Filename.concat dir "src" in
  Unix.mkdir src 0o700;
  let a = Filename.concat src "a.c" and b = Filename.concat src "b.c" in
  let a_text = "int x; int *p;\nvoid f(void) { p = &x; }\n" in
  let b_base = "extern int *p; int *q;\nvoid g(void) { q = p; }\n" in
  let b_edit = b_base ^ "int z;\nvoid h(void) { q = &z; }\n" in
  write_file a a_text;
  write_file b b_base;
  let snap = Filename.concat dir "boot.snap" in
  let saved = Filename.concat dir "saved.snap" in
  let query = "{\"id\":1,\"op\":\"points-to\",\"var\":\"q\"}" in
  let stats ask = Json.of_string (ask "{\"id\":9,\"op\":\"stats\"}") in
  let solves j =
    match Json.member "shards" j with
    | Some (Json.Arr blocks) ->
        List.fold_left
          (fun acc b ->
            acc + Option.value ~default:0 (Option.bind (Json.member "solves" b) Json.to_int))
          0 blocks
    | _ -> Alcotest.fail "stats carry no shard blocks"
  in
  let snapshot_flag j = Json.member "snapshot" j = Some (Json.Bool true) in
  (* the snapshot-backed run: hits with zero solves, then an edit *)
  let edit_and_check ~save ask =
    let reply = ask query in
    Alcotest.(check bool) "answered from the snapshot" true
      (contains reply "\"cache_hit\": true");
    Alcotest.(check bool) "baseline sees x" true (contains reply "\"x\"");
    let j = stats ask in
    Alcotest.(check bool) "stats report the snapshot" true (snapshot_flag j);
    Alcotest.(check int) "no solve ran" 0 (solves j);
    write_file b b_edit;
    let re = ask "{\"id\":2,\"op\":\"reanalyze\"}" in
    Alcotest.(check bool) "one TU changed" true (contains re "\"changed\": 1");
    let reply = ask query in
    Alcotest.(check bool) "swap sees z" true (contains reply "\"z\"");
    Alcotest.(check bool) "snapshot flag after the swap" save
      (snapshot_flag (stats ask))
  in
  (* 1. the sidecar is written at boot *)
  with_watch_server ~save:snap ~dir src (fun ask ->
      Alcotest.(check bool) "boot answer" true (contains (ask query) "\"x\""));
  Alcotest.(check bool) "sidecar written at boot" true (Sys.file_exists snap);
  (* 2. without save_snapshot the swap drops the snapshot answer *)
  with_watch_server ~snapshot:snap ~dir src (edit_and_check ~save:false);
  (* 3. with save_snapshot the swap rewrites the sidecar *)
  write_file b b_base;
  with_watch_server ~snapshot:snap ~save:saved ~dir src
    (edit_and_check ~save:true);
  let inc, _ = Incremental.create [ (a, a_text); (b, b_base) ] in
  ignore (Incremental.update inc [ (a, a_text); (b, b_edit) ]);
  match Snapshot.load_result saved ~view:(Incremental.view inc) with
  | Ok _ -> ()
  | Error d -> Alcotest.fail ("rewritten sidecar rejected: " ^ Diag.to_string d)

let () =
  Alcotest.run "incremental"
    [
      ( "tuhash",
        [
          Alcotest.test_case "hit/miss matrix" `Quick test_tuhash_matrix;
          Alcotest.test_case "recorded and round-tripped" `Quick
            test_tuhash_recorded;
        ] );
      ( "delta-link",
        [
          Alcotest.test_case "pure-add vs full merge" `Quick
            test_delta_link_pure_add;
          Alcotest.test_case "removal vs full merge" `Quick
            test_delta_link_removal_falls_back;
          Alcotest.test_case "relinked bytes, tiny stream" `Quick
            (test_relink_stream_tiny 0.0);
          Alcotest.test_case "relinked bytes, tiny stream with removals" `Quick
            (test_relink_stream_tiny 0.25);
          Alcotest.test_case "relinked bytes, vortex stream" `Quick
            (test_relink_stream_vortex 0.0);
          Alcotest.test_case "relinked bytes, vortex stream with removals" `Quick
            (test_relink_stream_vortex 0.25);
          Alcotest.test_case "relinked bytes, forced cases" `Quick
            test_relink_forced;
        ] );
      ( "delta-solve",
        [
          Alcotest.test_case "add-only stream" `Quick test_stream_add_only;
          Alcotest.test_case "stream with removals" `Quick
            test_stream_with_removals;
          Alcotest.test_case "no-op update" `Quick test_update_noop;
          Alcotest.test_case "resume adds each record kind" `Quick
            test_resume_each_kind;
          Alcotest.test_case "resume reports its own passes" `Quick
            test_resume_reports_own_passes;
          Alcotest.test_case "multi-pass resumes, Genir shapes" `Quick
            test_multi_pass_resumes;
          Alcotest.test_case "duplicate FUNDEF, other arity" `Quick
            test_duplicate_fundef_arity;
          Alcotest.test_case "duplicate FUNDEF, same arity" `Quick
            test_duplicate_fundef_same_arity;
        ] );
      ( "direct-probe",
        [
          Alcotest.test_case "header edit misses" `Quick
            test_direct_header_edit;
          Alcotest.test_case "appearing <x.h> misses" `Quick
            test_direct_system_header_appears;
          Alcotest.test_case "comment edit, empty link delta" `Quick
            test_direct_comment_edit;
          Alcotest.test_case "one compile per one-file edit" `Quick
            test_direct_one_compile;
        ] );
      ( "serve-watch",
        [
          Alcotest.test_case "query across a swap" `Quick test_watch_server;
          Alcotest.test_case "header-only edit" `Quick test_watch_header_edit;
          Alcotest.test_case "snapshot boot, swap, refreeze" `Quick
            test_watch_snapshot;
        ] );
    ]
