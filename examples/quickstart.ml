(* Quickstart: compile a C snippet, link it, run the pre-transitive
   points-to analysis, and query the result.

   The program is Figure 3 of the paper; the analysis must derive
   y -> {x} (through *z = &x) and z -> {y}.

   Run with: dune exec examples/quickstart.exe *)

open Cla_core

let source =
  {|
int x, *y;
int **z;

void main(void) {
  z = &y;
  *z = &x;
}
|}

let () =
  (* compile + link (any number of files) entirely in memory *)
  let view = Pipeline.compile_link [ ("fig3.c", source) ] in

  (* run Andersen's analysis with the pre-transitive graph solver *)
  let result = Andersen.solve view in
  let solution = result.Andersen.solution in

  Fmt.pr "All non-empty points-to sets:@.%a@." Solution.pp solution;

  (* query a single variable *)
  (match Solution.find solution "y" with
  | Some y ->
      let pts = Solution.points_to solution y in
      Fmt.pr "y can point to %d object(s): %a@." (Lvalset.cardinal pts)
        Fmt.(list ~sep:comma string)
        (List.map (Solution.var_name solution) (Lvalset.to_list pts))
  | None -> Fmt.pr "no variable named y?!@.");

  (* the demand loader's accounting (Table 3's last columns) *)
  let ls = result.Andersen.loader_stats in
  Fmt.pr "loader: %d assignments in file, %d loaded, %d kept in core@."
    ls.Loader.s_in_file ls.Loader.s_loaded ls.Loader.s_in_core
