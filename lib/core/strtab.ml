(** Interned string table — the "string section" of a CLA object file.

    Variable names, type spellings, file names and operator spellings are
    stored once and referenced by index everywhere else ("common strings",
    Figure 4). *)

module Tbl = Hashtbl.Make (String)

type t = {
  by_string : int Tbl.t;
  mutable strings : string list;  (* reversed *)
  mutable next : int;
  mutable last : string;  (* [intern_repeated]'s last hit ... *)
  mutable last_id : int;  (* ... and its index *)
}

let create () =
  { by_string = Tbl.create 256; strings = []; next = 0; last = ""; last_id = -1 }

(** Intern [s], returning its stable index. *)
let intern t s =
  match Tbl.find t.by_string s with
  | i -> i
  | exception Not_found ->
      let i = t.next in
      t.next <- i + 1;
      Tbl.add t.by_string s i;
      t.strings <- s :: t.strings;
      i

(** [intern] for a string that most calls repeat physically (a record's
    location file name): a repeat costs one [==]. *)
let intern_repeated t s =
  if s == t.last && t.last_id >= 0 then t.last_id
  else begin
    let i = intern t s in
    t.last <- s;
    t.last_id <- i;
    i
  end

let size t = t.next
let to_array t = Array.of_list (List.rev t.strings)

let write w t =
  let arr = to_array t in
  Binio.u32 w (Array.length arr);
  Array.iter (fun s -> Binio.bytes_ w s) arr

(** Read back as a plain array: readers index it directly. *)
let read r =
  let n = Binio.rcount r in
  Array.init n (fun _ -> Binio.rbytes r)
