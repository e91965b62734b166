(** Fault injection for CLA object files and snapshots.

    Robustness harness: mutate serialized {!Sectioned} bytes in ways that
    model real-world corruption — truncated downloads, flipped bits,
    reordered section tables — and check that the reader upholds its
    contract: every mutated file either loads and analyzes to the
    {e identical} solution, or is rejected with a structured
    [Binio.Corrupt] / [Diag.Fail].  Any other exception, out-of-bounds
    access, or runaway allocation is a bug in the reader.

    Mutations are drawn from the deterministic {!Rng}, so a sweep is
    reproducible from its seed. *)

open Cla_core

type mutation =
  | Truncate of int  (** keep only the first [n] bytes *)
  | Byte_flip of int * int  (** xor the byte at [offset] with [mask] *)
  | Table_swap of int * int
      (** swap section-table entries [i] and [j] wholesale *)

let describe = function
  | Truncate n -> Fmt.str "truncate to %d bytes" n
  | Byte_flip (off, mask) -> Fmt.str "flip byte %d with 0x%02x" off mask
  | Table_swap (i, j) -> Fmt.str "swap section-table entries %d and %d" i j

(* The container format of serialized bytes, or None if they are too
   mangled to locate a section table (table mutations are then no-ops). *)
let format_of data =
  List.find_opt
    (fun f -> Sectioned.table f data <> None)
    [ Objfile.format; Snapshot.format ]

let apply data = function
  | Truncate n -> String.sub data 0 (min n (String.length data))
  | Byte_flip (off, mask) ->
      if off >= String.length data then data
      else begin
        let b = Bytes.of_string data in
        Bytes.set b off (Char.chr (Char.code data.[off] lxor (mask land 0xff)));
        Bytes.unsafe_to_string b
      end
  | Table_swap (i, j) -> (
      match Option.bind (format_of data) (fun f -> Sectioned.table f data) with
      | Some (pos, nsec) when nsec >= 2 ->
          let esize = Sectioned.entry_size in
          let i = i mod nsec and j = j mod nsec in
          let b = Bytes.of_string data in
          let oi = pos + (i * esize) and oj = pos + (j * esize) in
          Bytes.blit_string data oj b oi esize;
          Bytes.blit_string data oi b oj esize;
          Bytes.unsafe_to_string b
      | _ -> data)

(* The table checksum deliberately rejects reordered tables, so a
   Table_swap must re-seal the header to test what it is meant to test:
   that the *reader* is order-independent.  Identity on unrecognizable
   bytes. *)
let reseal data =
  match format_of data with Some f -> Sectioned.reseal f data | None -> data

(* The bytes a mutation produces, resealed after a table swap. *)
let mutate data m =
  match m with
  | Table_swap _ -> reseal (apply data m)
  | _ -> apply data m

let random rng data =
  let len = String.length data in
  match Rng.int rng 3 with
  | 0 -> Truncate (Rng.int rng (max 1 len))
  | 1 -> Byte_flip (Rng.int rng (max 1 len), 1 + Rng.int rng 255)
  | _ -> Table_swap (Rng.int rng 64, Rng.int rng 64)

(* ------------------------------------------------------------------ *)
(* Checking                                                            *)
(* ------------------------------------------------------------------ *)

type outcome =
  | Accepted of Solution.t  (** parsed and analyzed *)
  | Rejected of string  (** structured corruption diagnostic *)

(** The reader's contract was broken: a mutation escaped as something
    other than [Binio.Corrupt] / [Diag.Fail]. *)
exception Invariant_violation of mutation * exn

(* Load + analyze mutated bytes.  [demand:false] forces every dynamic
   block through the decoder, so corruption in a block the analysis
   would not otherwise touch is still exercised. *)
let check_bytes mutated =
  match
    let v = Objfile.view_of_string mutated in
    (Andersen.solve ~demand:false v).Andersen.solution
  with
  | sol -> Accepted sol
  | exception Binio.Corrupt msg -> Rejected msg
  | exception Diag.Fail d -> Rejected (Diag.to_string d)

let check data m =
  try check_bytes (mutate data m)
  with e -> raise (Invariant_violation (m, e))

type stats = {
  n_total : int;
  n_accepted : int;  (** loaded and analyzed (identical solution) *)
  n_rejected : int;  (** rejected with a structured diagnostic *)
}

(** Run [n] random mutations of [data] through load + analyze.  When
    [baseline] is given, an accepted mutant whose solution differs from
    it is an {!Invariant_violation} — corruption must never silently
    change analysis results. *)
let sweep ?baseline ~seed ~n data =
  let rng = Rng.create seed in
  let accepted = ref 0 and rejected = ref 0 in
  for _ = 1 to n do
    let m = random rng data in
    match check data m with
    | Accepted sol ->
        (match baseline with
        | Some b when not (Solution.equal b sol) ->
            raise
              (Invariant_violation
                 (m, Failure "accepted mutant with a different solution"))
        | _ -> ());
        incr accepted
    | Rejected _ -> incr rejected
  done;
  { n_total = n; n_accepted = !accepted; n_rejected = !rejected }
