(* Tests for the object-file database: serialization roundtrips (unit and
   property-based), block indexing, target lookup, corruption detection. *)

open Cla_ir
open Cla_core

let mk_db () =
  Cla_workload.Genir.generate 1L

let test_roundtrip_vars () =
  let db = mk_db () in
  let v = Objfile.view_of_string (Objfile.write db) in
  Alcotest.(check int) "var count" (Array.length db.Objfile.vars) (Objfile.n_vars v);
  Array.iteri
    (fun i (vi : Objfile.varinfo) ->
      let ri = v.Objfile.rvars.(i) in
      Alcotest.(check string) "name" vi.Objfile.vname ri.Objfile.vname;
      Alcotest.(check bool) "kind" true (vi.Objfile.vkind = ri.Objfile.vkind);
      Alcotest.(check bool) "linkage" true (vi.Objfile.vlinkage = ri.Objfile.vlinkage))
    db.Objfile.vars

let test_roundtrip_statics () =
  let db = mk_db () in
  let v = Objfile.view_of_string (Objfile.write db) in
  Alcotest.(check int) "static count" (List.length db.Objfile.statics)
    (Array.length v.Objfile.rstatics);
  List.iteri
    (fun i (p : Objfile.prim_rec) ->
      let r = v.Objfile.rstatics.(i) in
      Alcotest.(check int) "dst" p.Objfile.pdst r.Objfile.pdst;
      Alcotest.(check int) "src" p.Objfile.psrc r.Objfile.psrc)
    db.Objfile.statics

let test_roundtrip_blocks () =
  let db = mk_db () in
  let v = Objfile.view_of_string (Objfile.write db) in
  Array.iteri
    (fun src prims ->
      let read = Objfile.read_block v src in
      Alcotest.(check int)
        (Fmt.str "block %d size" src)
        (List.length prims) (List.length read);
      List.iter2
        (fun (a : Objfile.prim_rec) (b : Objfile.prim_rec) ->
          Alcotest.(check bool) "kind" true (a.Objfile.pkind = b.Objfile.pkind);
          Alcotest.(check int) "dst" a.Objfile.pdst b.Objfile.pdst;
          Alcotest.(check int) "src implicit" src b.Objfile.psrc)
        prims read)
    db.Objfile.blocks

let test_roundtrip_meta () =
  let db = mk_db () in
  let v = Objfile.view_of_string (Objfile.write db) in
  Alcotest.(check int) "counts preserved"
    (Prim.total db.Objfile.meta.Objfile.mcounts)
    (Prim.total v.Objfile.rmeta.Objfile.mcounts)

let test_roundtrip_funs () =
  let db = mk_db () in
  let v = Objfile.view_of_string (Objfile.write db) in
  Alcotest.(check int) "fundefs" (List.length db.Objfile.fundefs)
    (Array.length v.Objfile.rfundefs);
  Alcotest.(check int) "indirects" (List.length db.Objfile.indirects)
    (Array.length v.Objfile.rindirects);
  List.iteri
    (fun i (f : Objfile.fund_rec) ->
      let r = v.Objfile.rfundefs.(i) in
      Alcotest.(check int) "fvar" f.Objfile.ffvar r.Objfile.ffvar;
      Alcotest.(check int) "arity" f.Objfile.farity r.Objfile.farity;
      Alcotest.(check int) "ret" f.Objfile.fret r.Objfile.fret)
    db.Objfile.fundefs

let test_block_rereadable () =
  (* the load-and-throw-away strategy: reading a block twice gives the
     same records *)
  let v = Objfile.view_of_string (Objfile.write (mk_db ())) in
  for src = 0 to Objfile.n_vars v - 1 do
    let a = Objfile.read_block v src in
    let b = Objfile.read_block v src in
    Alcotest.(check int) "same size" (List.length a) (List.length b)
  done

let test_find_targets () =
  let db = mk_db () in
  let v = Objfile.view_of_string (Objfile.write db) in
  (* every plain variable must be findable by name *)
  Array.iteri
    (fun i (vi : Objfile.varinfo) ->
      match vi.Objfile.vkind with
      | Var.Global ->
          let found = Objfile.find_targets v vi.Objfile.vname in
          Alcotest.(check bool)
            (Fmt.str "find %s" vi.Objfile.vname)
            true (List.mem i found)
      | _ -> ())
    db.Objfile.vars;
  Alcotest.(check (list int)) "missing name" [] (Objfile.find_targets v "no_such")

let test_corrupt_detection () =
  let data = Objfile.write (mk_db ()) in
  let bad = "XXXX" ^ String.sub data 4 (String.length data - 4) in
  Alcotest.(check bool) "bad magic" true
    (try
       ignore (Objfile.view_of_string bad);
       false
     with Binio.Corrupt _ -> true);
  Alcotest.(check bool) "truncated" true
    (try
       ignore (Objfile.view_of_string (String.sub data 0 20));
       false
     with Binio.Corrupt _ -> true)

(* Each section's payload CRC is checked when that section is first
   opened, not when the file is: a flipped payload byte leaves the
   header valid, fails the one section that holds it, and leaves every
   other section readable. *)
let test_section_crc_checked_at_open () =
  let data = Objfile.write (mk_db ()) in
  let pos, nsec = Option.get (Sectioned.table Objfile.format data) in
  let entries =
    List.init nsec (fun i ->
        let r = Binio.reader ~pos:(pos + (i * Sectioned.entry_size)) data in
        let id = Binio.ru8 r in
        let off = Binio.ru32 r in
        let size = Binio.ru32 r in
        (id, off, size))
  in
  let flipped = List.filter (fun (_, _, size) -> size > 0) entries in
  Alcotest.(check bool) "several non-empty sections" true
    (List.length flipped >= 3);
  List.iter
    (fun (id, off, size) ->
      let b = Bytes.of_string data in
      let at = off + (size / 2) in
      Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0xff));
      let t = Sectioned.of_string Objfile.format (Bytes.to_string b) in
      List.iter
        (fun (other, _, _) ->
          let opened =
            match Sectioned.section t other with
            | _ -> true
            | exception Binio.Corrupt _ -> false
          in
          Alcotest.(check bool)
            (Fmt.str "byte in section %d: section %d opens" id other)
            (other <> id) opened)
        entries)
    flipped

let test_save_load_disk () =
  let db = mk_db () in
  let path = Filename.temp_file "cla_test" ".clo" in
  Objfile.save path db;
  let v = Objfile.load path in
  Sys.remove path;
  Alcotest.(check int) "vars" (Array.length db.Objfile.vars) (Objfile.n_vars v)

(* ---------------- binio primitives ---------------- *)

let test_varint_roundtrip () =
  let w = Binio.writer () in
  let values = [ 0; 1; 127; 128; 300; 65535; 1 lsl 20; 1 lsl 40 ] in
  List.iter (Binio.varint w) values;
  let r = Binio.reader (Binio.contents w) in
  List.iter
    (fun v -> Alcotest.(check int) (string_of_int v) v (Binio.rvarint r))
    values;
  Alcotest.(check bool) "at end" true (Binio.at_end r)

let test_bytes_roundtrip () =
  let w = Binio.writer () in
  Binio.bytes_ w "hello";
  Binio.bytes_ w "";
  Binio.bytes_ w (String.make 1000 'x');
  let r = Binio.reader (Binio.contents w) in
  Alcotest.(check string) "s1" "hello" (Binio.rbytes r);
  Alcotest.(check string) "s2" "" (Binio.rbytes r);
  Alcotest.(check int) "s3 length" 1000 (String.length (Binio.rbytes r))

let test_varint_negative_rejected () =
  let w = Binio.writer () in
  Alcotest.(check bool) "negative rejected" true
    (try
       Binio.varint w (-1);
       false
     with Invalid_argument _ -> true)

let test_varint_truncated () =
  let corrupt s =
    try
      ignore (Binio.rvarint (Binio.reader s));
      false
    with Binio.Corrupt _ -> true
  in
  Alcotest.(check bool) "empty" true (corrupt "");
  Alcotest.(check bool) "continuation at end" true (corrupt "\x80");
  Alcotest.(check bool) "too long" true (corrupt (String.make 10 '\xff'))

(* ---------------- string table ---------------- *)

let test_strtab_order () =
  let st = Strtab.create () in
  let name i = "s" ^ string_of_int i in
  for i = 0 to 999 do
    Alcotest.(check int) "fresh id" i (Strtab.intern st (name i));
    Alcotest.(check int) "repeat id" (i / 2) (Strtab.intern st (name (i / 2)))
  done;
  Alcotest.(check int) "size" 1000 (Strtab.size st);
  Alcotest.(check (array string)) "first-intern order"
    (Array.init 1000 name) (Strtab.to_array st)

(* ---------------- crc32 ---------------- *)

(* Bit-at-a-time CRC-32: the definition the table-driven paths must
   match. *)
let crc_reference s ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := !c lxor Char.code s.[i];
    for _ = 0 to 7 do
      c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done
  done;
  !c lxor 0xFFFFFFFF

let test_crc_check_value () =
  Alcotest.(check int) "123456789" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "")

let test_crc_slices () =
  let s = String.init 80 (fun i -> Char.chr ((i * 151 + 7) land 0xff)) in
  for pos = 0 to 7 do
    for len = 0 to 64 do
      let want = crc_reference s ~pos ~len in
      Alcotest.(check int) (Fmt.str "sub %d %d" pos len) want (Crc32.sub s ~pos ~len);
      (* chained: any split gives the same CRC *)
      let k = len / 3 in
      Alcotest.(check int)
        (Fmt.str "chained %d %d" pos len)
        want
        (Crc32.update (Crc32.update 0 s ~pos ~len:k) s ~pos:(pos + k) ~len:(len - k))
    done
  done

(* Bytewise through the classic 256-entry table: a second reference,
   one step closer to the stub's sliced tables. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc_bytewise s ~pos ~len =
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := crc_table.((!c lxor Char.code s.[i]) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF

let test_crc_table_reference () =
  let rng = Random.State.make [| 29 |] in
  let random n = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
  let s = random 4096 in
  for pos = 0 to 15 do
    for len = 0 to 300 do
      let want = crc_bytewise s ~pos ~len in
      if Crc32.sub s ~pos ~len <> want then
        Alcotest.failf "sub ~pos:%d ~len:%d: %08x, want %08x" pos len
          (Crc32.sub s ~pos ~len) want
    done
  done;
  let big = random (1 lsl 20) in
  Alcotest.(check int) "1 MB" (crc_bytewise big ~pos:0 ~len:(String.length big))
    (Crc32.string big);
  Alcotest.check_raises "range past the end" (Invalid_argument "Crc32.sub") (fun () ->
      ignore (Crc32.sub s ~pos:4000 ~len:97))

(* ---------------- TARGETS order ---------------- *)

(* The order TARGETS had when it was sorted by one comparator: the
   name's first 7 bytes (big-endian, zero-padded), then the whole name,
   then the object id. *)
let reference_targets (vars : Objfile.varinfo array) =
  let prefix (v : Objfile.varinfo) =
    let s = v.Objfile.vname in
    let k = ref 0 in
    for b = 0 to 6 do
      k := (!k lsl 8) lor if b < String.length s then Char.code s.[b] else 0
    done;
    !k
  in
  let prefix = Array.map prefix vars in
  let targets =
    List.filter
      (fun i ->
        match vars.(i).Objfile.vkind with
        | Var.Temp | Var.Arg _ | Var.Ret -> false
        | _ -> true)
      (List.init (Array.length vars) Fun.id)
    |> Array.of_list
  in
  Array.stable_sort
    (fun i j ->
      match Int.compare prefix.(i) prefix.(j) with
      | 0 -> (
          match String.compare vars.(i).Objfile.vname vars.(j).Objfile.vname with
          | 0 -> Int.compare i j
          | c -> c)
      | c -> c)
    targets;
  targets

(* Names built from pieces that share 7-byte prefixes, run shorter than
   7 bytes, embed NUL and bytes >= 0x80, and repeat. *)
let target_names =
  let piece = QCheck.Gen.oneofl [ "abcdefg"; "abcdefgh"; "a"; "b"; "\000"; "\128"; "\255"; "gimp_" ] in
  let name = QCheck.Gen.(map (String.concat "") (list_size (int_bound 3) piece)) in
  QCheck.make
    ~print:QCheck.Print.(list (fun (n, k) -> Fmt.str "%S/%d" n k))
    QCheck.Gen.(list_size (int_bound 80) (pair name (int_bound 8)))

let qcheck_targets_order =
  QCheck.Test.make ~count:200 ~name:"TARGETS order is the comparator's" target_names
    (fun names ->
      let kinds =
        [| Var.Global; Var.Filelocal; Var.Temp; Var.Field; Var.Heap; Var.Func;
           Var.Arg 1; Var.Ret; Var.Global |]
      in
      let vars =
        Array.of_list
          (List.map
             (fun (vname, k) ->
               {
                 Objfile.vname; vkind = kinds.(k); vlinkage = Var.Extern; vtyp = "int";
                 vloc = Loc.none; vowner = ""; vdefined = true;
               })
             names)
      in
      let db =
        {
          Objfile.vars; keys = []; statics = []; blocks = Array.make (Array.length vars) [];
          fundefs = []; indirects = []; consts = []; openworld = None; tuhash = None;
          meta =
            { Objfile.mfiles = []; msource_lines = 0; mpreproc_lines = 0;
              mcounts = Prim.zero_counts };
        }
      in
      let want = reference_targets vars in
      let order (v : Objfile.view) = Array.map snd v.Objfile.rtargets in
      order (Objfile.encode db) = want
      && order (Objfile.view_of_string (Objfile.write db)) = want)

(* ---------------- qcheck: random database roundtrips ---------------- *)

let qcheck_roundtrip =
  QCheck.Test.make ~count:50 ~name:"random db roundtrips losslessly"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let db = Cla_workload.Genir.generate (Int64.of_int seed) in
      let v = Objfile.view_of_string (Objfile.write db) in
      Array.length db.Objfile.vars = Objfile.n_vars v
      && List.length db.Objfile.statics = Array.length v.Objfile.rstatics
      && Array.for_all2
           (fun prims src_ok -> prims = src_ok)
           (Array.map List.length db.Objfile.blocks)
           (Array.init (Objfile.n_vars v) (fun i ->
                List.length (Objfile.read_block v i))))

let qcheck_double_serialize =
  QCheck.Test.make ~count:20 ~name:"serialization is deterministic"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let db = Cla_workload.Genir.generate (Int64.of_int seed) in
      String.equal (Objfile.write db) (Objfile.write db))

(* ---------------- one encoder ---------------- *)

(* [encode] describes the bytes it writes: the view equals the decoder's
   view of those bytes in every field and every block. *)
let qcheck_encode_view =
  QCheck.Test.make ~count:50 ~name:"encode equals the decoded bytes"
    QCheck.(int_bound 10_000)
    (fun seed ->
      let db = Cla_workload.Genir.generate (Int64.of_int seed) in
      Viewcheck.diff (Objfile.encode db) (Objfile.view_of_string (Objfile.write db)) = [])

let test_encode_openworld_and_unit () =
  let check msg db =
    Viewcheck.check msg (Objfile.encode db) (Objfile.view_of_string (Objfile.write db))
  in
  (* a unit object: carries TUHASH *)
  let unit =
    Compilep.compile_string ~file:"a.c"
      "int x, *p, **pp; int *f(int *a) { return a; }\n\
       void g(void) { p = &x; pp = &p; *pp = f(p); }\n"
  in
  Alcotest.(check bool) "the unit carries a TU hash" true (unit.Objfile.tuhash <> None);
  check "unit with TUHASH" unit;
  (* an open-world database: OPENWORLD section and havoc records *)
  let db, _ =
    Linkp.link_views
      [
        Objfile.encode
          (Compilep.compile_string ~file:"ow.c"
             "extern int *ext; int x; int *lib(int *);
              void f(void) { ext = lib(&x); }
");
      ]
  in
  let ow = Openworld.synthesize db (Openworld.detect db) in
  Alcotest.(check bool) "open-world summary present" true (ow.Objfile.openworld <> None);
  check "open-world database" ow;
  (* the encoded view has its own arrays *)
  let v = Objfile.encode db in
  Alcotest.(check bool) "rvars not aliased" true (v.Objfile.rvars != db.Objfile.vars)

(* ---------------- pinned format bytes ---------------- *)

(* Every encode change must keep objects, databases and snapshots
   byte-identical; these digests pin all three for fixed programs. *)
let pin_sources =
  [
    ( "a.c",
      "int x, y, *p, **pp;\n\
       int (*fp)(int *);\n\
       int f(int *a) { p = a; return *a; }\n\
       void g(void) { p = &x; pp = &p; *pp = &y; fp = f; fp(&y); }\n" );
    ( "b.c",
      "extern int *p;\n\
       int z, *q;\n\
       struct s { int *fld; } sv;\n\
       void h(void) { q = p; sv.fld = &z; q = sv.fld; }\n" );
  ]

(* The first file's unit object, the linked database and view, and
   the snapshot of its points-to solution. *)
let pin_bytes files =
  let objs =
    List.map (fun (file, src) -> Objfile.write (Compilep.compile_string ~file src)) files
  in
  let db, _ = Linkp.link_views (List.map Objfile.view_of_string objs) in
  let linked = Objfile.write db in
  let view = Objfile.view_of_string linked in
  (List.hd objs, linked, view, Snapshot.freeze ~view (Pipeline.points_to_ladder view))

(* The databases the delta linker writes over [pin_sources]: a pure-add
   edit of b.c patches the linked database, and taking the edit back
   out is a removal, which rebuilds it by a full merge. *)
let relink_bytes () =
  let unit (file, src) =
    ( file,
      Objfile.view_of_string (Objfile.write (Compilep.compile_string ~file src)) )
  in
  let a, b = (List.nth pin_sources 0, List.nth pin_sources 1) in
  let st, _ = Linkp.state_create [ unit a; unit b ] in
  let b_add =
    ( fst b,
      snd b ^ "int w, *r;\nvoid k(void) { r = &w; q = r; *sv.fld = *q; }\n" )
  in
  let d = Linkp.relink st [ unit a; unit b_add ] in
  Alcotest.(check bool) "edit is pure-add" true (Linkp.delta_is_pure_add d);
  let added = (Linkp.state_view st).Objfile.data in
  let d = Linkp.relink st [ unit a; unit b ] in
  Alcotest.(check bool) "undo is a full relink" true d.Linkp.d_full_relink;
  (added, (Linkp.state_view st).Objfile.data)

let digest s = Digest.to_hex (Digest.string s)

let test_format_bytes_pinned () =
  let check name (o, l, _, s) (obj, linked, snap) =
    Alcotest.(check string) (name ^ " unit object") obj (digest o);
    Alcotest.(check string) (name ^ " linked database") linked (digest l);
    Alcotest.(check string) (name ^ " snapshot") snap (digest s)
  in
  check "tiny" (pin_bytes pin_sources)
    ( "47a3acd815307ccb6b67a15ffccd93d3",
      "ed7815179716b82b6604cb772d8acf23",
      "206332042b0f677bb20d51988921aa71" );
  (* Large enough that each string table grows several times and
     objects share display names, so TARGETS repeats names. *)
  let vortex = pin_bytes Cla_workload.(Genc.generate (Profile.scaled 0.1 Profile.vortex)) in
  let _, _, view, _ = vortex in
  let names = Array.map fst view.Objfile.rtargets in
  Alcotest.(check bool) "names repeat in TARGETS" true
    (Array.exists Fun.id (Array.mapi (fun i n -> i > 0 && n = names.(i - 1)) names));
  check "vortex" vortex
    ( "73adabcafdac2174dd5bd1c588cc8681",
      "43d89b5015ef32ef6e507a43dbcf7afe",
      "9b79253f4e3821a06ed6a48d8ae7ee08" );
  (* the removal's full merge is the tiny linked database again *)
  let added, removed = relink_bytes () in
  Alcotest.(check string) "relinked database, pure add"
    "8ab08ce8caf3ece08005c2994a974d66" (digest added);
  Alcotest.(check string) "relinked database, removal"
    "ed7815179716b82b6604cb772d8acf23" (digest removed)

(* ---------------- Figure 4 ---------------- *)

(* The paper's a.c: the STATIC section holds the one x = &y record, and
   each object's block holds the assignments whose source it is; x is
   never a source, so it has no block. *)
let test_figure4 () =
  let db =
    Compilep.compile_string ~file:"a.c"
      "int x, y, z, *p, *q;\n\
       void f(void) { x = y; x = z; *p = z; p = q; q = &y; x = *p; }"
  in
  let v = Objfile.view_of_string (Objfile.write db) in
  let name i = v.Objfile.rvars.(i).Objfile.vname in
  Alcotest.(check (list (pair string string)))
    "STATIC section" [ ("q", "y") ]
    (List.map
       (fun (p : Objfile.prim_rec) ->
         Alcotest.(check bool) "static is x = &y" true (p.Objfile.pkind = Objfile.Paddr);
         (name p.Objfile.pdst, name p.Objfile.psrc))
       (Array.to_list v.Objfile.rstatics));
  let blocks =
    List.filter_map
      (fun i ->
        if Objfile.has_block v i then
          Some (name i, List.length (Objfile.read_block v i))
        else None)
      (List.init (Objfile.n_vars v) Fun.id)
  in
  Alcotest.(check (list (pair string int)))
    "blocks" [ ("p", 1); ("q", 1); ("y", 1); ("z", 2) ]
    (List.sort compare blocks)

let () =
  Alcotest.run "objfile"
    [
      ( "roundtrip",
        [
          Alcotest.test_case "vars" `Quick test_roundtrip_vars;
          Alcotest.test_case "statics" `Quick test_roundtrip_statics;
          Alcotest.test_case "blocks" `Quick test_roundtrip_blocks;
          Alcotest.test_case "meta" `Quick test_roundtrip_meta;
          Alcotest.test_case "functions" `Quick test_roundtrip_funs;
          Alcotest.test_case "disk" `Quick test_save_load_disk;
        ] );
      ( "access",
        [
          Alcotest.test_case "blocks re-readable" `Quick test_block_rereadable;
          Alcotest.test_case "target lookup" `Quick test_find_targets;
          Alcotest.test_case "corruption" `Quick test_corrupt_detection;
          Alcotest.test_case "section CRC checked at first open" `Quick
            test_section_crc_checked_at_open;
          Alcotest.test_case "format bytes pinned" `Quick
            test_format_bytes_pinned;
          Alcotest.test_case "Figure 4: a.c's sections" `Quick test_figure4;
          Alcotest.test_case "encode: unit and open-world views" `Quick
            test_encode_openworld_and_unit;
        ] );
      ( "binio",
        [
          Alcotest.test_case "varint" `Quick test_varint_roundtrip;
          Alcotest.test_case "bytes" `Quick test_bytes_roundtrip;
          Alcotest.test_case "negative varint" `Quick test_varint_negative_rejected;
          Alcotest.test_case "truncated varint" `Quick test_varint_truncated;
        ] );
      ("strtab", [ Alcotest.test_case "first-intern order" `Quick test_strtab_order ]);
      ( "crc32",
        [
          Alcotest.test_case "check value" `Quick test_crc_check_value;
          Alcotest.test_case "8-byte path matches bytewise" `Quick test_crc_slices;
          Alcotest.test_case "matches the 256-entry table" `Quick test_crc_table_reference;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest qcheck_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_double_serialize;
          QCheck_alcotest.to_alcotest qcheck_encode_view;
          QCheck_alcotest.to_alcotest qcheck_targets_order;
        ] );
    ]
