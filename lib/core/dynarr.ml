(** Growable int arrays (OCaml 5.1 predates [Dynarray]). *)

type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 8) () = { data = Array.make (max 1 capacity) 0; len = 0 }
let length t = t.len
let get t i =
  if i < 0 || i >= t.len then invalid_arg "Dynarr.get";
  t.data.(i)

let push t x =
  if t.len = Array.length t.data then begin
    let d = Array.make (2 * Array.length t.data) 0 in
    Array.blit t.data 0 d 0 t.len;
    t.data <- d
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let clear t = t.len <- 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let unsafe_get t i = Array.unsafe_get t.data i
let to_array t = Array.sub t.data 0 t.len

(* Never pushed: its data array is empty, so a push that bypassed
   [push_at] fails loudly instead of sharing elements between nodes. *)
let empty = { data = [||]; len = 0 }

let push_at lists i x =
  let d = lists.(i) in
  if d == empty then begin
    let d = create ~capacity:2 () in
    lists.(i) <- d;
    push d x
  end
  else push d x
