(* Type migration: the paper's motivating application (Section 2).

   Scenario: a legacy code base stores a counter in [short target]; the
   range must grow, so its type must become [int].  Which other objects
   must change with it to avoid data loss through implicit narrowing?

   The program is Figure 1 of the paper; the analysis must report u, w
   and S.x as dependents (through the pointer assignment *v = u), print
   the dependence chains with their source locations, and respect
   "non-targets".

   Run with: dune exec examples/type_migration.exe *)

open Cla_core
module Depend = Cla_depend.Depend

let source =
  {|short target;
struct S { short x; short y; };
short u, *v, w;
struct S s, t;

void update(void) {
  v = &w;
  u = target;
  *v = u;          /* u flows into w through the pointer */
  s.x = w;         /* and on into the x field of struct S */
}

int log_flag;
void log_it(void) {
  log_flag = !target;   /* "none" strength: not a real dependence */
}
|}

let () =
  let view = Pipeline.compile_link [ ("eg1.c", source) ] in
  let pta = Andersen.solve view in
  let dep = Depend.prepare view pta in

  Fmt.pr "=== change the type of 'target' from short to int ===@.";
  (match Depend.query_by_name dep "target" with
  | Some report -> Fmt.pr "%a@." (Depend.pp_report dep) report
  | None -> Fmt.pr "target not found@.");

  (* the user knows w is a red herring: prune chains through it *)
  Fmt.pr "=== same query with 'w' declared a non-target ===@.";
  match Depend.query_by_name dep ~non_targets:[ "w" ] "target" with
  | Some report -> Fmt.pr "%a@." (Depend.pp_report dep) report
  | None -> Fmt.pr "target not found@."
