(* Solution digests pinned per batch workload and scale (see
   [main.exe pin]): each was computed with the bit-vector solver and
   agreed with the worklist solver under Solution.equal. *)

let table =
  [
    ("gimp_batch", false, "b4268f56423535a4f7a5c85487bcdfcc");
    ("gimp_batch", true, "17668c46203b8928f43b834a9e40e518");
    ("emacs_fi_solve", false, "f363446263f478fb383a9750b230aa1d");
    ("emacs_fi_solve", true, "95c0d268b49e71f92c1516c3602a96e1");
  ]

let find workload ~tiny =
  List.find_map
    (fun (w, t, d) -> if w = workload && t = tiny then Some d else None)
    table
