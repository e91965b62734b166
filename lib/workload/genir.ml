(** Random constraint-program generator (database level, no C involved).

    Used by the property-based tests — on any generated program the
    pre-transitive, worklist and bit-vector solvers must produce identical
    points-to sets, and Steensgaard's must be a superset — and by the
    ablation benchmarks, which need pure solver workloads without parse
    cost. *)

open Cla_ir
open Cla_core

type params = {
  n_vars : int;
  n_addr : int;
  n_copy : int;
  n_store : int;
  n_load : int;
  n_deref2 : int;
  n_funcs : int;  (** functions with standardized arg/ret vars *)
  n_indirect : int;  (** indirect call sites *)
}

let default_params =
  {
    n_vars = 30;
    n_addr = 15;
    n_copy = 25;
    n_store = 8;
    n_load = 8;
    n_deref2 = 3;
    n_funcs = 2;
    n_indirect = 2;
  }

(** Generate a database: plain variables [0, n_vars), then per function a
    [Func] variable, [2] args and a ret. *)
let generate ?(params = default_params) seed : Objfile.db =
  let rng = Rng.create seed in
  let vars = ref [] in
  let nv = ref 0 in
  let add_var name kind =
    let id = !nv in
    incr nv;
    vars :=
      {
        Objfile.vname = name;
        vkind = kind;
        vlinkage = Var.Intern;
        vtyp = "int*";
        vloc = Loc.make ~file:"gen.c" ~line:(id + 1) ~col:0;
        vowner = "";
        vdefined = true;
      }
      :: !vars;
    id
  in
  for i = 0 to params.n_vars - 1 do
    ignore (add_var (Fmt.str "v%d" i) Var.Global)
  done;
  let fundefs = ref [] in
  let funptr_pool = ref [] in
  for f = 0 to params.n_funcs - 1 do
    let fv = add_var (Fmt.str "f%d" f) Var.Func in
    let a1 = add_var (Fmt.str "f%d@1" f) (Var.Arg 1) in
    let a2 = add_var (Fmt.str "f%d@2" f) (Var.Arg 2) in
    let ret = add_var (Fmt.str "f%d@ret" f) Var.Ret in
    fundefs :=
      {
        Objfile.ffvar = fv;
        farity = 2;
        fret = ret;
        fargs = [| a1; a2 |];
        ffloc = Loc.none;
      }
      :: !fundefs;
    funptr_pool := fv :: !funptr_pool
  done;
  let indirects = ref [] in
  for i = 0 to params.n_indirect - 1 do
    let p = Rng.int rng params.n_vars in
    let a1 = add_var (Fmt.str "ip%d@1" i) (Var.Arg 1) in
    let ret = add_var (Fmt.str "ip%d@ret" i) Var.Ret in
    indirects :=
      {
        Objfile.iptr = p;
        inargs = 1;
        iret = ret;
        iargs = [| a1 |];
        iiloc = Loc.none;
      }
      :: !indirects
  done;
  let nvars = !nv in
  let any () = Rng.int rng nvars in
  let plain () = Rng.int rng params.n_vars in
  let statics = ref [] in
  let blocks = Array.make nvars [] in
  let loc = Loc.make ~file:"gen.c" ~line:0 ~col:0 in
  let prim pkind pdst psrc =
    { Objfile.pkind; pdst; psrc; pop = None; ploc = loc }
  in
  for _ = 1 to params.n_addr do
    (* occasionally take a function's address so indirect calls resolve *)
    let src =
      if params.n_funcs > 0 && Rng.flip rng 0.2 then
        List.nth !funptr_pool (Rng.int rng (List.length !funptr_pool))
      else plain ()
    in
    statics := prim Objfile.Paddr (any ()) src :: !statics
  done;
  let block pkind =
    let dst = any () and src = any () in
    blocks.(src) <- prim pkind dst src :: blocks.(src)
  in
  for _ = 1 to params.n_copy do
    block Objfile.Pcopy
  done;
  for _ = 1 to params.n_store do
    block Objfile.Pstore
  done;
  for _ = 1 to params.n_load do
    block Objfile.Pload
  done;
  for _ = 1 to params.n_deref2 do
    block Objfile.Pderef2
  done;
  let vars_arr = Array.of_list (List.rev !vars) in
  {
    Objfile.vars = vars_arr;
    keys = [];
    statics = List.rev !statics;
    blocks;
    fundefs = List.rev !fundefs;
    indirects = List.rev !indirects;
    consts = [];
    openworld = None;
    tuhash = None;
    meta =
      {
        Objfile.mfiles = [ "gen.c" ];
        msource_lines = 0;
        mpreproc_lines = 0;
        mcounts =
          {
            Prim.n_copy = params.n_copy;
            n_addr = params.n_addr;
            n_store = params.n_store;
            n_deref2 = params.n_deref2;
            n_load = params.n_load;
          };
      };
  }

(** Generate and encode (the view the solvers see). *)
let view ?params seed : Objfile.view = Objfile.encode (generate ?params seed)

(* ------------------------------------------------------------------ *)
(* Shaped solver workloads                                             *)
(* ------------------------------------------------------------------ *)

type shape = Sparse | Dense | Cyclic

let all_shapes = [ Sparse; Dense; Cyclic ]
let shape_name = function Sparse -> "sparse" | Dense -> "dense" | Cyclic -> "cyclic"

(* Build a db out of plain global pointer variables, address-of statics
   and block-resident records — the common scaffolding of the shaped
   generators below. *)
let mk_shaped_db ~nvars ~statics ~blocks ~counts : Objfile.db =
  let vars =
    Array.init nvars (fun id ->
        {
          Objfile.vname = Fmt.str "v%d" id;
          vkind = Var.Global;
          vlinkage = Var.Intern;
          vtyp = "int*";
          vloc = Loc.make ~file:"gen.c" ~line:(id + 1) ~col:0;
          vowner = "";
          vdefined = true;
        })
  in
  {
    Objfile.vars;
    keys = [];
    statics;
    blocks;
    fundefs = [];
    indirects = [];
    consts = [];
    openworld = None;
    tuhash = None;
    meta =
      {
        Objfile.mfiles = [ "gen.c" ];
        msource_lines = 0;
        mpreproc_lines = 0;
        mcounts = counts;
      };
  }

let scaled scale n = max 1 (int_of_float (float_of_int n *. scale))

(** [shaped ?scale shape seed] — a deterministic pure-solver workload in
    one of three profiles (see the .mli).  [scale] multiplies every size
    knob; 1.0 is the bench's default, tiny fractions make smoke tests. *)
let shaped ?(scale = 1.0) shape seed : Objfile.view =
  let rng = Rng.create seed in
  let loc = Loc.make ~file:"gen.c" ~line:0 ~col:0 in
  let prim pkind pdst psrc =
    { Objfile.pkind; pdst; psrc; pop = None; ploc = loc }
  in
  let statics = ref [] in
  let n_addr = ref 0 and n_copy = ref 0 in
  let n_store = ref 0 and n_load = ref 0 in
  let addr blocks dst src =
    ignore blocks;
    incr n_addr;
    statics := prim Objfile.Paddr dst src :: !statics
  in
  let record blocks k dst src =
    (match k with
    | Objfile.Pcopy -> incr n_copy
    | Objfile.Pstore -> incr n_store
    | Objfile.Pload -> incr n_load
    | _ -> ());
    blocks.(src) <- prim k dst src :: blocks.(src)
  in
  let db =
    match shape with
    | Sparse ->
        (* many variables, few constraints each: points-to sets stay
           small, exercising the sorted-array representation and the
           pool's sharing of tiny sets *)
        let nvars = scaled scale 1200 in
        let blocks = Array.make nvars [] in
        let v () = Rng.int rng nvars in
        for _ = 1 to scaled scale 700 do
          addr blocks (v ()) (v ())
        done;
        for _ = 1 to scaled scale 1800 do
          record blocks Objfile.Pcopy (v ()) (v ())
        done;
        for _ = 1 to scaled scale 90 do
          record blocks Objfile.Pstore (v ()) (v ())
        done;
        for _ = 1 to scaled scale 90 do
          record blocks Objfile.Pload (v ()) (v ())
        done;
        mk_shaped_db ~nvars ~statics:(List.rev !statics) ~blocks
          ~counts:
            {
              Prim.n_copy = !n_copy;
              n_addr = !n_addr;
              n_store = !n_store;
              n_deref2 = 0;
              n_load = !n_load;
            }
    | Dense ->
        (* a layered DAG with wide fan-in over a compact pool of base
           locations (allocated first, so bitmap extents stay tight):
           upper layers accumulate most of the base pool, producing the
           large dense sets where word-ORs beat array merges *)
        let nbase = scaled scale 400 in
        let width = max 8 (int_of_float (32. *. sqrt scale)) in
        let layers = 6 in
        let fanin = 6 in
        let node l j = nbase + (l * width) + j in
        let nvars = nbase + (layers * width) in
        let blocks = Array.make nvars [] in
        (* bottom layer: several address-of records per node *)
        for j = 0 to width - 1 do
          for _ = 1 to 5 do
            addr blocks (node 0 j) (Rng.int rng nbase)
          done
        done;
        (* upper layers: each node copies from [fanin] nodes below *)
        for l = 1 to layers - 1 do
          for j = 0 to width - 1 do
            for _ = 1 to fanin do
              record blocks Objfile.Pcopy (node l j)
                (node (l - 1) (Rng.int rng width))
            done
          done
        done;
        (* a few stores/loads through top-layer pointers, so complex
           assignments see the big sets and force extra passes *)
        for _ = 1 to max 2 (width / 4) do
          let top = node (layers - 1) (Rng.int rng width) in
          record blocks Objfile.Pstore top (node 1 (Rng.int rng width));
          record blocks Objfile.Pload (node 2 (Rng.int rng width)) top
        done;
        mk_shaped_db ~nvars ~statics:(List.rev !statics) ~blocks
          ~counts:
            {
              Prim.n_copy = !n_copy;
              n_addr = !n_addr;
              n_store = !n_store;
              n_deref2 = 0;
              n_load = !n_load;
            }
    | Cyclic ->
        (* rings of copy edges with cross-ring chords: every reachability
           walk runs into cycles, stressing Tarjan SCC collapse and the
           skip-pointer/unification machinery *)
        let ring_size = 24 in
        let nrings = scaled scale 10 in
        let nbase = scaled scale 80 in
        let node r i = nbase + (r * ring_size) + i in
        let nvars = nbase + (nrings * ring_size) in
        let blocks = Array.make nvars [] in
        for r = 0 to nrings - 1 do
          (* the ring itself *)
          for i = 0 to ring_size - 1 do
            record blocks Objfile.Pcopy (node r i) (node r ((i + 1) mod ring_size))
          done;
          (* seed each ring with a few bases *)
          for _ = 1 to 4 do
            addr blocks (node r (Rng.int rng ring_size)) (Rng.int rng nbase)
          done;
          (* chords into the next ring *)
          if r + 1 < nrings then begin
            record blocks Objfile.Pcopy (node r 0) (node (r + 1) (ring_size / 2));
            record blocks Objfile.Pcopy (node (r + 1) 1) (node r (ring_size / 3))
          end
        done;
        (* cross-ring loads/stores so complexes keep the passes honest *)
        for _ = 1 to nrings do
          let p = node (Rng.int rng nrings) (Rng.int rng ring_size) in
          record blocks Objfile.Pstore p (node (Rng.int rng nrings) 2);
          record blocks Objfile.Pload (node (Rng.int rng nrings) 3) p
        done;
        mk_shaped_db ~nvars ~statics:(List.rev !statics) ~blocks
          ~counts:
            {
              Prim.n_copy = !n_copy;
              n_addr = !n_addr;
              n_store = !n_store;
              n_deref2 = 0;
              n_load = !n_load;
            }
  in
  Objfile.encode db
