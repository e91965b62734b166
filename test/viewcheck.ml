(* Field-by-field comparison of two object-file views, shared by the
   tests that hold {!Objfile.encode} to the decoder. *)

open Cla_core

(* The fields in which [a] and [b] differ, by name: every field of the
   view, and the decoded block of every object.  [] when they agree. *)
let diff (a : Objfile.view) (b : Objfile.view) =
  let open Objfile in
  let fields =
    [
      ("data", String.equal a.data b.data);
      ("strings", a.strings = b.strings);
      ("rvars", a.rvars = b.rvars);
      ("rkeys", a.rkeys = b.rkeys);
      ("rstatics", a.rstatics = b.rstatics);
      ("block_index", a.block_index = b.block_index);
      ("blob_limit", a.blob_limit = b.blob_limit);
      ("rfundefs", a.rfundefs = b.rfundefs);
      ("rindirects", a.rindirects = b.rindirects);
      ("rtargets", a.rtargets = b.rtargets);
      ("rconsts", a.rconsts = b.rconsts);
      ("ropenworld", a.ropenworld = b.ropenworld);
      ("rtuhash", a.rtuhash = b.rtuhash);
      ("rmeta", a.rmeta = b.rmeta);
      ( "blocks",
        n_vars a = n_vars b
        && List.for_all
             (fun v -> read_block a v = read_block b v)
             (List.init (n_vars a) Fun.id) );
    ]
  in
  List.filter_map (fun (name, same) -> if same then None else Some name) fields

(* Fail with the differing fields unless [a] equals [b]. *)
let check msg a b =
  match diff a b with
  | [] -> ()
  | fields -> Alcotest.fail (msg ^ ": views differ in " ^ String.concat ", " fields)
