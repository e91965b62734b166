(** Exact per-node sets of target ids (see the .mli).

    Each source has [stride = 1 + inline] words in a chunk of [cells],
    one chunk per [2^chunk_bits] sources, made at the first add to one of
    them (so a graph that grows gains chunks and copies none).  While
    the first word [c] is non-negative the set is inline: [c] targets in
    the words after it.  Once the set outgrows them, the first word is a
    negative tag naming its table or bitmap, and the second word holds
    the count.

    Tables are carved from arena [blocks] of ints, so a node taking or
    growing a table allocates nothing of its own either: a region is
    reused from the free list of its size, or bumped off the end of the
    newest block.  Blocks are never copied.  A table of [2^k] slots holds
    target + 1 per slot, 0 = empty, and is at most half full.  Bitmaps
    are [Bytes], bit [b] for target [b]. *)

let chunk_bits = 12
let chunk_mask = (1 lsl chunk_bits) - 1

(* A table's position is [(block lsl block_bits) lor offset].  Bumped
   blocks grow to [2^block_bits] words; a larger table gets a block of
   its own at offset 0. *)
let block_bits = 16
let block_mask = (1 lsl block_bits) - 1

type t = {
  stride : int;
  mutable cells : int array array;  (* by chunk; [[||]] until first used *)
  mutable blocks : int array array;  (* the first [n_blocks] are in use *)
  mutable n_blocks : int;
  mutable bump : int;  (* the block tables are bumped from, or -1 *)
  mutable top : int;  (* words of it handed out *)
  free : int array;  (* by [k]: a free region of [2^k] words, or -1 *)
  mutable bitmaps : Bytes.t array;  (* the first [n_bitmaps] are in use *)
  mutable n_bitmaps : int;
  mutable hi : int;  (* the largest target added: what a bitmap covers *)
}

type tier = Inline | Table | Bitmap

(* A big set's tag is [-(x + 1)]: [x = (pos lsl 7) lor (k lsl 1)] for
   the table of [2^k] slots at position [pos], [x = (i lsl 1) lor 1]
   for bitmap [i].  The decoders below take [x]. *)
let table_tag pos k = -((pos lsl 7) lor (k lsl 1)) - 1
let bitmap_tag i = -((i lsl 1) lor 1) - 1
let is_table x = x land 1 = 0
let table_pos x = x lsr 7
let table_k x = (x lsr 1) land 63
let bitmap_index x = x lsr 1

let create ?(inline = 3) () =
  let stride = 1 + max 1 inline in
  {
    stride;
    cells = [||];
    blocks = [||];
    n_blocks = 0;
    bump = -1;
    top = 0;
    free = Array.make Sys.int_size (-1);
    bitmaps = [||];
    n_bitmaps = 0;
    hi = 0;
  }

(* The chunk holding source [a], made on first use. *)
let chunk t a =
  if a < 0 then invalid_arg "Edgeset: negative source";
  let i = a lsr chunk_bits in
  if i >= Array.length t.cells then begin
    let cells = Array.make (max (i + 1) (2 * Array.length t.cells)) [||] in
    Array.blit t.cells 0 cells 0 (Array.length t.cells);
    t.cells <- cells
  end;
  let ch = Array.unsafe_get t.cells i in
  if Array.length ch > 0 then ch
  else begin
    let ch = Array.make ((chunk_mask + 1) * t.stride) 0 in
    t.cells.(i) <- ch;
    ch
  end

(* Source [a]'s first word in its chunk. *)
let first_word t a = (a land chunk_mask) * t.stride

let new_block t words =
  if t.n_blocks = Array.length t.blocks then begin
    let blocks = Array.make (max 8 (2 * t.n_blocks)) [||] in
    Array.blit t.blocks 0 blocks 0 t.n_blocks;
    t.blocks <- blocks
  end;
  t.blocks.(t.n_blocks) <- Array.make words 0;
  t.n_blocks <- t.n_blocks + 1;
  t.n_blocks - 1

(* A zeroed region of [2^k] words.  A free region is all zero but for
   its first word, the next region on its list. *)
let alloc_table t k =
  let cap = 1 lsl k in
  let pos = t.free.(k) in
  if pos >= 0 then begin
    let blk = t.blocks.(pos lsr block_bits) and off = pos land block_mask in
    t.free.(k) <- blk.(off);
    blk.(off) <- 0;
    pos
  end
  else if cap > 1 lsl block_bits then new_block t cap lsl block_bits
  else begin
    if t.bump < 0 || t.top + cap > Array.length t.blocks.(t.bump) then begin
      (* bumped blocks double from 1K words, so small graphs stay small *)
      let last = if t.bump < 0 then 512 else Array.length t.blocks.(t.bump) in
      t.bump <- new_block t (max cap (min (2 * last) (1 lsl block_bits)));
      t.top <- 0
    end;
    let pos = (t.bump lsl block_bits) lor t.top in
    t.top <- t.top + cap;
    pos
  end

(* [pos]'s region must be all zero. *)
let free_table t pos k =
  t.blocks.(pos lsr block_bits).(pos land block_mask) <- t.free.(k);
  t.free.(k) <- pos

let add_bitmap t bits =
  if t.n_bitmaps = Array.length t.bitmaps then begin
    let bitmaps = Array.make (max 8 (2 * t.n_bitmaps)) Bytes.empty in
    Array.blit t.bitmaps 0 bitmaps 0 t.n_bitmaps;
    t.bitmaps <- bitmaps
  end;
  t.bitmaps.(t.n_bitmaps) <- bits;
  t.n_bitmaps <- t.n_bitmaps + 1;
  bitmap_tag (t.n_bitmaps - 1)

(* Fibonacci hashing, folded so the low bits depend on the high ones. *)
let slot b mask =
  let h = b * 0x9E3779B97F4A7C1 in
  (h lxor (h lsr 32)) land mask

(* The index in [blk] holding key [b + 1] in the table at [off] or the
   empty one it would take; tables stay at most half full, so the probe
   ends. *)
let rec probe blk off mask key i =
  let cur = Array.unsafe_get blk (off + i) in
  if cur = 0 || cur = key then off + i
  else probe blk off mask key ((i + 1) land mask)

let table_slot blk off k b =
  let mask = (1 lsl k) - 1 in
  probe blk off mask (b + 1) (slot b mask)

let rec scan cells i stop b =
  i < stop && (Array.unsafe_get cells i = b || scan cells (i + 1) stop b)

let bit_mem bits b =
  let byte = b lsr 3 in
  byte < Bytes.length bits
  && Char.code (Bytes.unsafe_get bits byte) land (1 lsl (b land 7)) <> 0

(* [b] must be covered by [bits]. *)
let bit_set bits b =
  let byte = b lsr 3 in
  Bytes.unsafe_set bits byte
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get bits byte) lor (1 lsl (b land 7))))

let rec log2_at_least k n = if 1 lsl k >= n then k else log2_at_least (k + 1) n

(* A new, empty home for a set outgrowing its storage: a table of [2^k]
   slots, or a bitmap covering every target added so far once that is
   no larger than the table.  Returns its tag. *)
let rehome t k =
  let bytes = (t.hi lsr 3) + 1 in
  if bytes <= 8 lsl k then add_bitmap t (Bytes.make bytes '\000')
  else table_tag (alloc_table t k) k

(* Insert [b], which must be absent and covered, into the big set
   [tag]; the count is the caller's. *)
let put t tag b =
  let x = -tag - 1 in
  if is_table x then begin
    let pos = table_pos x in
    let blk = t.blocks.(pos lsr block_bits) in
    Array.unsafe_set blk
      (table_slot blk (pos land block_mask) (table_k x) b)
      (b + 1)
  end
  else bit_set t.bitmaps.(bitmap_index x) b

let promote t cells base c b =
  (* room to double before the table is half full *)
  let tag = rehome t (log2_at_least 2 (4 * (c + 1))) in
  for i = base + 1 to base + c do
    put t tag (Array.unsafe_get cells i)
  done;
  put t tag b;
  cells.(base) <- tag;
  cells.(base + 1) <- c + 1

(* The full table at [pos] plus [b] move to a table twice the size, or
   to a bitmap; the old region is zeroed as it is read. *)
let regrow t cells base pos k n b =
  let tag = rehome t (k + 1) in
  let blk = t.blocks.(pos lsr block_bits) and off = pos land block_mask in
  for i = off to off + (1 lsl k) - 1 do
    let key = Array.unsafe_get blk i in
    if key <> 0 then begin
      Array.unsafe_set blk i 0;
      put t tag (key - 1)
    end
  done;
  put t tag b;
  free_table t pos k;
  cells.(base) <- tag;
  cells.(base + 1) <- n + 1

let add t a b =
  let cells = chunk t a and base = first_word t a in
  if b > t.hi then t.hi <- b;
  let c = Array.unsafe_get cells base in
  if c >= 0 then begin
    if scan cells (base + 1) (base + 1 + c) b then false
    else begin
      if c + 1 < t.stride then begin
        Array.unsafe_set cells (base + 1 + c) b;
        Array.unsafe_set cells base (c + 1)
      end
      else promote t cells base c b;
      true
    end
  end
  else begin
    let x = -c - 1 and n = Array.unsafe_get cells (base + 1) in
    if is_table x then begin
      let k = table_k x and pos = table_pos x in
      let blk = t.blocks.(pos lsr block_bits) in
      let s = table_slot blk (pos land block_mask) k b in
      if Array.unsafe_get blk s <> 0 then false
      else begin
        if 2 * (n + 1) <= 1 lsl k then begin
          Array.unsafe_set blk s (b + 1);
          Array.unsafe_set cells (base + 1) (n + 1)
        end
        else regrow t cells base pos k n b;
        true
      end
    end
    else begin
      let i = bitmap_index x in
      let bits = t.bitmaps.(i) in
      if bit_mem bits b then false
      else begin
        if b lsr 3 < Bytes.length bits then bit_set bits b
        else begin
          let wider =
            Bytes.make (max ((b lsr 3) + 1) (2 * Bytes.length bits)) '\000'
          in
          Bytes.blit bits 0 wider 0 (Bytes.length bits);
          bit_set wider b;
          t.bitmaps.(i) <- wider
        end;
        Array.unsafe_set cells (base + 1) (n + 1);
        true
      end
    end
  end

(* Source [a]'s chunk if it was ever made, else [[||]]. *)
let find t a =
  let i = a lsr chunk_bits in
  if a >= 0 && i < Array.length t.cells then t.cells.(i) else [||]

let mem t a b =
  let cells = find t a and base = first_word t a in
  Array.length cells > 0
  &&
  let c = cells.(base) in
  if c >= 0 then scan cells (base + 1) (base + 1 + c) b
  else
    let x = -c - 1 in
    if is_table x then
      let pos = table_pos x in
      let blk = t.blocks.(pos lsr block_bits) in
      blk.(table_slot blk (pos land block_mask) (table_k x) b) <> 0
    else bit_mem t.bitmaps.(bitmap_index x) b

let cardinal t a =
  let cells = find t a and base = first_word t a in
  if Array.length cells = 0 then 0
  else
    let c = cells.(base) in
    if c >= 0 then c else cells.(base + 1)

let clear t a =
  let cells = find t a and base = first_word t a in
  if Array.length cells > 0 then begin
    let c = cells.(base) in
    if c < 0 then begin
      let x = -c - 1 in
      if is_table x then begin
        let pos = table_pos x and k = table_k x in
        Array.fill t.blocks.(pos lsr block_bits) (pos land block_mask)
          (1 lsl k) 0;
        free_table t pos k
      end
      else t.bitmaps.(bitmap_index x) <- Bytes.empty
    end;
    cells.(base) <- 0
  end

let tier t a =
  let cells = find t a and base = first_word t a in
  if Array.length cells = 0 || cells.(base) >= 0 then Inline
  else if is_table (-cells.(base) - 1) then Table
  else Bitmap
