(** Interned string table — the "string section" of a CLA object file.

    Variable names, type spellings, file names and operator spellings are
    stored once and referenced by index everywhere else ("common strings",
    Figure 4).

    An open-addressing table: [slots] holds string ids (or [-1]) probed
    linearly from a string's hash; the strings and their hashes live in
    arrays indexed by id, so ids are first-intern order and the table
    writes out without sorting or reversing.  A probe compares cached
    hashes before it compares strings. *)

type t = {
  mutable slots : int array;  (* power-of-two size, at most half full *)
  mutable strings : string array;  (* by id *)
  mutable hashes : int array;  (* by id *)
  mutable next : int;
  mutable last : string;  (* [intern_repeated]'s last hit ... *)
  mutable last_id : int;  (* ... and its index *)
}

let create ?(size = 32) () =
  let cap = ref 32 in
  while !cap < size do
    cap := 2 * !cap
  done;
  {
    slots = Array.make (2 * !cap) (-1);
    strings = Array.make !cap "";
    hashes = Array.make !cap 0;
    next = 0;
    last = "";
    last_id = -1;
  }

(* The slot of [s] (hash [h]): its id's slot, or the empty one it would
   take.  The probe loop is top-level so an intern allocates no
   closure. *)
let rec probe slots mask hashes strings s h i =
  let id = Array.unsafe_get slots i in
  if id < 0
     || (Array.unsafe_get hashes id = h
        && String.equal (Array.unsafe_get strings id) s)
  then i
  else probe slots mask hashes strings s h ((i + 1) land mask)

let find_slot t s h =
  let slots = t.slots in
  let mask = Array.length slots - 1 in
  probe slots mask t.hashes t.strings s h (h land mask)

(* Double the slot array and re-place every id by its cached hash. *)
let grow t =
  let slots = Array.make (2 * Array.length t.slots) (-1) in
  let mask = Array.length slots - 1 in
  for id = 0 to t.next - 1 do
    let rec place i =
      if slots.(i) < 0 then slots.(i) <- id else place ((i + 1) land mask)
    in
    place (t.hashes.(id) land mask)
  done;
  t.slots <- slots;
  let cap = Array.length slots / 2 in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.next;
    b
  in
  t.strings <- extend t.strings "";
  t.hashes <- extend t.hashes 0

(** Intern [s], returning its stable index. *)
let intern t s =
  let h = Hashtbl.hash s in
  let i = find_slot t s h in
  let id = t.slots.(i) in
  if id >= 0 then id
  else begin
    let id = t.next in
    t.slots.(i) <- id;
    t.strings.(id) <- s;
    t.hashes.(id) <- h;
    t.next <- id + 1;
    if 2 * t.next >= Array.length t.slots then grow t;
    id
  end

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
let to_array t = Array.sub t.strings 0 t.next

let get t id =
  if id >= t.next then invalid_arg "Strtab.get";
  t.strings.(id)

let write strings =
  (* a length prefix takes one or two bytes below 16 KB *)
  let size = Array.fold_left (fun n s -> n + 2 + String.length s) 4 strings in
  let w = Binio.writer ~size () in
  Binio.u32 w (Array.length strings);
  Array.iter (Binio.bytes_ w) strings;
  w

(** Read back as a plain array: readers index it directly. *)
let read r =
  let n = Binio.rcount r in
  Array.init n (fun _ -> Binio.rbytes r)
