(** Per-translation-unit variable table.

    Interns variables by their canonical key so that every occurrence of the
    same source object maps to one {!Var.t} with a unit-local [uid].  The
    compile phase writes the table into the object file; the linker merges
    [Extern] entries by key. *)

(* The canonical key {!Var.key} spells, without building the string:
   [scope] is [""] but for file-local variables. *)
module Key = struct
  type t = { kind : Var.kind; scope : string; name : string }

  let equal a b =
    a.kind = b.kind && String.equal a.name b.name && String.equal a.scope b.scope

  let hash k = Hashtbl.hash k.name + (31 * Hashtbl.hash k.scope) + Hashtbl.hash k.kind
end

module Tbl = Hashtbl.Make (Key)

type t = {
  by_key : Var.t Tbl.t;
  mutable vars : Var.t list;  (* in reverse uid order *)
  mutable next : int;
  mutable ntemp : int;
}

let create () = { by_key = Tbl.create 512; vars = []; next = 0; ntemp = 0 }
let size t = t.next

(** [intern t ~scope ~kind ~name] returns the existing variable with the
    same canonical key, or creates one.  [typ] and [loc] are recorded on
    first creation only (the declaration wins over later uses); [typ] is
    only called then. *)
let intern ?(scope = "") ?typ ?(loc = Loc.none)
    ?(linkage : Var.linkage option) ?(defined = true) t ~kind ~name () =
  let key =
    { Key.kind; scope = (match kind with Var.Filelocal -> scope | _ -> ""); name }
  in
  match Tbl.find_opt t.by_key key with
  | Some v ->
      (* definitions are sticky: a later definition upgrades an object
         first seen as an extern declaration, never the other way round *)
      if defined then Var.mark_defined v;
      v
  | None ->
      let linkage =
        match linkage with
        | Some l -> l
        | None -> (
            match (kind : Var.kind) with
            | Global | Field | Func | Arg _ | Ret -> Var.Extern
            | Filelocal | Temp | Heap -> Var.Intern)
      in
      let typ = match typ with Some f -> f () | None -> "" in
      let v =
        { Var.uid = t.next; name; kind; linkage; typ; loc; owner = scope;
          defined }
      in
      t.next <- t.next + 1;
      Tbl.add t.by_key key v;
      t.vars <- v :: t.vars;
      v

(** Fresh compiler temporary; never aliases an existing variable. *)
let fresh_temp ?(loc = Loc.none) t =
  let n = t.ntemp in
  t.ntemp <- n + 1;
  intern t ~kind:Temp ~name:("#" ^ string_of_int n) ~loc ()

(** All variables in increasing [uid] order. *)
let to_array t =
  let a = Array.make t.next None in
  List.iter (fun v -> a.(Var.uid v) <- Some v) t.vars;
  Array.map
    (function Some v -> v | None -> invalid_arg "Vartab.to_array: hole")
    a
