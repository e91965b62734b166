(* Resolving indirect calls: build a call graph for a dispatch-table style
   C program.  Function pointers are first-class objects in the analysis
   (Section 4's standardized argument/return variables), so the points-to
   set of each called pointer *is* the set of possible callees.

   Run with: dune exec examples/funptr_callgraph.exe *)

open Cla_core
open Cla_ir

let source =
  {|
int data1, data2;

int read_a(int *p) { return *p; }
int read_b(int *p) { return *p; }
int read_c(int *p) { return *p; }

int (*handlers[3])(int *);
int (*current)(int *);

void install(void) {
  handlers[0] = read_a;
  handlers[1] = read_b;
  current = handlers[2];
}

void late_bind(int which) {
  if (which) current = read_c;
}

int dispatch(void) {
  int r;
  r = (*current)(&data1);
  r = handlers[1](&data2);
  return r;
}
|}

let () =
  let view = Pipeline.compile_link [ ("dispatch.c", source) ] in
  let sol = Pipeline.points_to view in

  (* every indirect call site, with its resolved callees *)
  Fmt.pr "=== indirect call sites ===@.";
  Array.iter
    (fun (r : Objfile.indir_rec) ->
      let callees =
        Lvalset.to_list (Solution.points_to sol r.Objfile.iptr)
        |> List.filter (fun v -> view.Objfile.rvars.(v).Objfile.vkind = Var.Func)
        |> List.map (Solution.var_name sol)
      in
      Fmt.pr "call through %s at %a -> {%a}@."
        (Solution.var_name sol r.Objfile.iptr)
        Loc.pp r.Objfile.iiloc
        Fmt.(list ~sep:comma string)
        callees)
    view.Objfile.rindirects;

  (* and the data consequence: both globals reach the readers' parameter *)
  Fmt.pr "@.=== what the handlers' parameter can point to ===@.";
  List.iter
    (fun f ->
      match Solution.find sol "p" with
      | Some _ ->
          (* parameters are function-local; look them up via the fundef
             records instead *)
          Array.iter
            (fun (fd : Objfile.fund_rec) ->
              if Solution.var_name sol fd.Objfile.ffvar = f then
                Array.iter
                  (fun arg ->
                    if arg >= 0 then
                      Fmt.pr "%s's %s -> {%a}@." f
                        (Solution.var_name sol arg)
                        Fmt.(list ~sep:comma string)
                        (List.map (Solution.var_name sol)
                           (Lvalset.to_list (Solution.points_to sol arg))))
                  fd.Objfile.fargs)
            view.Objfile.rfundefs
      | None -> ())
    [ "read_a"; "read_b"; "read_c" ]
