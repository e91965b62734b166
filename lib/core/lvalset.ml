(** Shared sets of lvals, in a hybrid representation.

    "Since many lval sets are identical, a mechanism is implemented to
    share common lvals sets.  Such sets are implemented as ordered lists,
    and are linked into a hash table, based on set size." (Section 5)

    Small sets stay sorted, duplicate-free int arrays (cheap to build,
    cache-friendly to merge).  Sets that are both large and dense switch
    to word-packed bitmaps, turning unions into word-ORs and difference
    propagation into word-ANDNOTs.  The representation is {e canonical}
    — a pure function of the set's contents and the pool's threshold —
    so hash-cons sharing and physical-identity shortcuts survive the
    split: equal sets interned in one pool are always the same object in
    the same representation.

    The hash-cons pool is per-solver and is flushed at the beginning of
    each pass through the complex assignments, exactly as in the paper
    (after unifications, stale sets would otherwise pin memory). *)

(* 32 bits per word: power-of-two indexing ([lsr 5] / [land 31]) and
   every word fits an OCaml immediate with room for the popcount and
   merge arithmetic below. *)
let word_bits = 32
let word_shift = 5
let word_mask = 31

type repr =
  | Arr of int array  (* sorted, duplicate-free *)
  | Bits of { words : int array; card : int }
      (* bit [i] of [words.(i lsr 5)] at [i land 31]; the top word is
         non-zero (trimmed), [card] is the population count *)

(* [stamp] is scratch for traversal-time dedup by physical identity (see
   [try_stamp]); it carries no set semantics. *)
type t = { repr : repr; mutable stamp : int }

let no_stamp = min_int
let mk repr = { repr; stamp = no_stamp }
let empty = mk (Arr [||])

(* [stamp] is mutable scratch, so only the immutable [repr] is hashed. *)
let hash s = Hashtbl.hash s.repr

let cardinal s = match s.repr with Arr a -> Array.length a | Bits b -> b.card
let is_bitmap s = match s.repr with Arr _ -> false | Bits _ -> true

(* Population count of a <= 32-bit word.  The final byte-sum runs in
   OCaml's 63-bit ints, so unlike the C idiom the product's high bytes
   survive the shift and must be masked off. *)
let popcount32 w =
  let w = w - ((w lsr 1) land 0x55555555) in
  let w = (w land 0x33333333) + ((w lsr 2) land 0x33333333) in
  let w = (w + (w lsr 4)) land 0x0F0F0F0F in
  ((w * 0x01010101) lsr 24) land 0xFF

(* Index of the single set bit of [low] (a power of two below 2^32): a
   de Bruijn multiply puts a distinct pattern in the top five bits of
   the low 32, which the table maps back to the index. *)
let debruijn_index =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let bit_index low =
  Array.unsafe_get debruijn_index
    (((low * 0x077CB531) land 0xFFFFFFFF) lsr 27)

let full_word = 0xFFFFFFFF

(* Visit the set bits of one word in ascending order, one step per set
   bit: [w land (-w)] isolates the lowest bit, [bit_index] names it and
   [lxor] clears it.  A full word (common in dense sets) is a plain
   count. *)
let iter_word f base w =
  if w = full_word then
    for x = base to base + word_bits - 1 do
      f x
    done
  else begin
    let w = ref w in
    while !w <> 0 do
      let low = !w land - !w in
      f (base + bit_index low);
      w := !w lxor low
    done
  end

let mem x s =
  match s.repr with
  | Arr a ->
      let lo = ref 0 and hi = ref (Array.length a) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if a.(mid) < x then lo := mid + 1 else hi := mid
      done;
      !lo < Array.length a && a.(!lo) = x
  | Bits b ->
      let w = x lsr word_shift in
      x >= 0
      && w < Array.length b.words
      && (Array.unsafe_get b.words w lsr (x land word_mask)) land 1 = 1

let iter f s =
  match s.repr with
  | Arr a -> Array.iter f a
  | Bits b ->
      for w = 0 to Array.length b.words - 1 do
        let word = Array.unsafe_get b.words w in
        if word <> 0 then iter_word f (w lsl word_shift) word
      done

let fold f acc s =
  let acc = ref acc in
  iter (fun x -> acc := f !acc x) s;
  !acc

let to_list s =
  match s.repr with
  | Arr a -> Array.to_list a
  | Bits _ -> List.rev (fold (fun acc x -> x :: acc) [] s)

(* Structural equality across representations.  Canonical representation
   makes the mixed cases impossible within one pool, but solutions built
   with different thresholds (the bench's sorted-array baseline vs the
   hybrid run) must still compare equal content-wise. *)
let equal a b =
  a == b
  ||
  match (a.repr, b.repr) with
  | Arr x, Arr y ->
      Array.length x = Array.length y
      && begin
           let ok = ref true in
           let i = ref 0 and n = Array.length x in
           while !ok && !i < n do
             if Array.unsafe_get x !i <> Array.unsafe_get y !i then ok := false;
             incr i
           done;
           !ok
         end
  | Bits x, Bits y ->
      x.card = y.card
      && Array.length x.words = Array.length y.words
      && begin
           let ok = ref true in
           let i = ref 0 and n = Array.length x.words in
           while !ok && !i < n do
             if Array.unsafe_get x.words !i <> Array.unsafe_get y.words !i
             then ok := false;
             incr i
           done;
           !ok
         end
  | Arr x, Bits _ ->
      Array.length x = cardinal b
      && Array.for_all (fun e -> mem e b) x
  | Bits _, Arr y ->
      cardinal a = Array.length y
      && Array.for_all (fun e -> mem e a) y

(** Iterate the elements of [cur] that are not in [prev].  Points-to sets
    only grow, so drivers remember the set they last processed and visit
    just the delta — difference propagation.  Bitmap/bitmap pairs take a
    word-ANDNOT fast path. *)
let iter_diff ~prev (cur : t) f =
  if prev == cur then ()
  else if cardinal prev = 0 then iter f cur
  else
    match (prev.repr, cur.repr) with
    | Arr p, Arr c ->
        let np = Array.length p and nc = Array.length c in
        let i = ref 0 and j = ref 0 in
        while !j < nc do
          if !i >= np then begin
            f c.(!j);
            incr j
          end
          else if p.(!i) < c.(!j) then incr i
          else if p.(!i) = c.(!j) then begin
            incr i;
            incr j
          end
          else begin
            f c.(!j);
            incr j
          end
        done
    | Bits p, Bits c ->
        let np = Array.length p.words in
        for w = 0 to Array.length c.words - 1 do
          let cw = Array.unsafe_get c.words w in
          if cw <> 0 then begin
            let pw = if w < np then Array.unsafe_get p.words w else 0 in
            let d = cw land lnot pw in
            if d <> 0 then iter_word f (w lsl word_shift) d
          end
        done
    | Arr p, Bits _ ->
        (* both enumerate ascending: walk [prev] with a cursor *)
        let np = Array.length p in
        let i = ref 0 in
        iter
          (fun x ->
            while !i < np && p.(!i) < x do incr i done;
            if !i >= np || p.(!i) <> x then f x)
          cur
    | Bits _, Arr c ->
        Array.iter (fun x -> if not (mem x prev) then f x) c

let try_stamp s q =
  if cardinal s = 0 || s.stamp = q then false
  else begin
    s.stamp <- q;
    true
  end

(* ------------------------------------------------------------------ *)
(* The sharing pool                                                    *)
(* ------------------------------------------------------------------ *)

(* Tunable crossover, overridable per pool (the bench's sorted-array
   baseline sets it to [max_int]).  Not an atomic: it is set once at
   startup, before any solver domain spawns. *)
let default_threshold = ref 64
let set_default_dense_threshold n = default_threshold := max 1 n
let default_dense_threshold () = !default_threshold

type pool = {
  mutable tbl : (int, t list ref) Hashtbl.t;
  threshold : int;
  mutable hits : int;
  mutable misses : int;
  mutable small_sets : int;
  mutable dense_sets : int;
  (* [union_many]'s merge scratch, grown on demand and reused by every
     call; its contents are always copied out before interning *)
  mutable scratch_a : int array;
  mutable scratch_b : int array;
}

type pool_stats = {
  p_hits : int;
  p_misses : int;
  p_small_sets : int;
  p_dense_sets : int;
}

let create_pool ?dense_threshold () =
  {
    tbl = Hashtbl.create 256;
    threshold =
      (match dense_threshold with
      | Some n -> max 1 n
      | None -> !default_threshold);
    hits = 0;
    misses = 0;
    small_sets = 0;
    dense_sets = 0;
    scratch_a = [||];
    scratch_b = [||];
  }

let flush_pool p = p.tbl <- Hashtbl.create 256

let pool_stats p =
  {
    p_hits = p.hits;
    p_misses = p.misses;
    p_small_sets = p.small_sets;
    p_dense_sets = p.dense_sets;
  }

(* The canonical representation rule: a set goes word-packed iff its
   cardinality clears the pool threshold AND it populates its bitmap at
   >= 1 element per word on average (otherwise a sparse tail — a huge
   max element — would make word-ORs slower than merges and the bitmap
   bigger than the array).  The rule is a pure function of (contents,
   threshold) and is closed under union, so sharing stays canonical. *)
let words_for max_elem = (max_elem lsr word_shift) + 1

let is_dense p ~card ~max_elem =
  card > p.threshold && card >= words_for max_elem

let hash_prefix (a : int array) len =
  let h = ref len in
  for i = 0 to len - 1 do
    h := (!h * 31) + Array.unsafe_get a i + 1
  done;
  !h land max_int

let hash_words (w : int array) =
  let h = ref (Array.length w lxor 0x5bd1e995) in
  for i = 0 to Array.length w - 1 do
    h := (!h * 31) + Array.unsafe_get w i + 1
  done;
  !h land max_int

let bucket p key = Hashtbl.find_opt p.tbl key

let insert p key s =
  (match bucket p key with
  | Some b -> b := s :: !b
  | None -> Hashtbl.add p.tbl key (ref [ s ]));
  p.misses <- p.misses + 1;
  (match s.repr with
  | Arr _ -> p.small_sets <- p.small_sets + 1
  | Bits _ -> p.dense_sets <- p.dense_sets + 1);
  s

(* Intern a sorted, duplicate-free prefix as an [Arr] set.  On a pool
   miss the backing store is [Array.sub]'d out of [buf] unless [copy] is
   false and the prefix covers the whole array — callers passing
   reusable scratch buffers must keep [copy = true]. *)
let intern_arr p ~copy (buf : int array) len =
  let key = hash_prefix buf len in
  let matches s =
    match s.repr with
    | Arr a ->
        Array.length a = len
        && begin
             let ok = ref true in
             let i = ref 0 in
             while !ok && !i < len do
               if Array.unsafe_get a !i <> Array.unsafe_get buf !i then
                 ok := false;
               incr i
             done;
             !ok
           end
    | Bits _ -> false
  in
  let miss () =
    let a =
      if (not copy) && len = Array.length buf then buf else Array.sub buf 0 len
    in
    insert p key (mk (Arr a))
  in
  match bucket p key with
  | Some b -> (
      match List.find_opt matches !b with
      | Some s ->
          p.hits <- p.hits + 1;
          s
      | None -> miss ())
  | None -> miss ()

(* Intern a trimmed bitmap. *)
let intern_bits p (words : int array) card =
  let key = hash_words words in
  let matches s =
    match s.repr with
    | Bits b ->
        b.card = card
        && Array.length b.words = Array.length words
        && begin
             let ok = ref true in
             let i = ref 0 and n = Array.length words in
             while !ok && !i < n do
               if Array.unsafe_get b.words !i <> Array.unsafe_get words !i
               then ok := false;
               incr i
             done;
             !ok
           end
    | Arr _ -> false
  in
  match bucket p key with
  | Some b -> (
      match List.find_opt matches !b with
      | Some s ->
          p.hits <- p.hits + 1;
          s
      | None -> insert p key (mk (Bits { words; card })))
  | None -> insert p key (mk (Bits { words; card }))

(* Build the bitmap of a sorted prefix (top word non-zero because the
   max element is [buf.(len-1)]). *)
let words_of_prefix (buf : int array) len =
  let words = Array.make (words_for buf.(len - 1)) 0 in
  for i = 0 to len - 1 do
    let x = Array.unsafe_get buf i in
    let w = x lsr word_shift in
    Array.unsafe_set words w
      (Array.unsafe_get words w lor (1 lsl (x land word_mask)))
  done;
  words

(* Intern a sorted dup-free prefix under the canonical rule. *)
let intern_prefix p ~copy buf len =
  if len = 0 then empty
  else if is_dense p ~card:len ~max_elem:buf.(len - 1) then
    intern_bits p (words_of_prefix buf len) len
  else intern_arr p ~copy buf len

(* Finalize a freshly-built (trimmed) bitmap: keep it word-packed when
   the canonical rule says dense, otherwise unpack to a sorted array.
   Unions can leave the dense regime when a small set contributes a far
   max element (sparse tail), so this check is what keeps interning
   canonical. *)
let intern_words p (words : int array) card =
  if card = 0 then empty
  else if card > p.threshold && card >= Array.length words then
    intern_bits p words card
  else begin
    let a = Array.make card 0 in
    let k = ref 0 in
    for w = 0 to Array.length words - 1 do
      let word = Array.unsafe_get words w in
      if word <> 0 then
        iter_word
          (fun x ->
            Array.unsafe_set a !k x;
            incr k)
          (w lsl word_shift) word
    done;
    intern_arr p ~copy:false a card
  end

(** Return the pooled representative of [a] (which must already be
    sorted and duplicate-free).  [a] may be retained as backing store. *)
let share pool (a : int array) : t =
  intern_prefix pool ~copy:false a (Array.length a)

(* Sort the first [len] cells of [buf] and squeeze out duplicates in
   place; returns the length of the sorted, duplicate-free prefix. *)
let sort_dedup (buf : int array) len =
  if len = 0 then 0
  else begin
    Intsort.sort buf len;
    let w = ref 1 in
    for r = 1 to len - 1 do
      if buf.(r) <> buf.(!w - 1) then begin
        buf.(!w) <- buf.(r);
        incr w
      end
    done;
    !w
  end

(** Sort + dedup a scratch buffer of candidate members into a shared
    set.  The first [len] cells of [buf] are clobbered (sorted in
    place), but [buf] is never retained — callers may reuse it. *)
let of_dyn pool (buf : int array) (len : int) : t =
  intern_prefix pool ~copy:true buf (sort_dedup buf len)

let of_list pool l =
  let a = Array.of_list l in
  of_dyn pool a (Array.length a)

(* OR [src]'s words into [dst] (dst at least as long). *)
let or_words ~dst (src : int array) =
  for i = 0 to Array.length src - 1 do
    Array.unsafe_set dst i (Array.unsafe_get dst i lor Array.unsafe_get src i)
  done

let set_bit (words : int array) x =
  let w = x lsr word_shift in
  Array.unsafe_set words w
    (Array.unsafe_get words w lor (1 lsl (x land word_mask)))

let popcount_words (words : int array) =
  let c = ref 0 in
  for i = 0 to Array.length words - 1 do
    c := !c + popcount32 (Array.unsafe_get words i)
  done;
  !c

(* max element of a non-empty set *)
let max_elem s =
  match s.repr with
  | Arr a -> a.(Array.length a - 1)
  | Bits b -> ((Array.length b.words - 1) lsl word_shift) + word_bits - 1

(* Merge the sorted dup-free prefixes [x.(0..nx)] and [y.(0..ny)] into
   [out]; returns the length of the union. *)
let merge_into (x : int array) nx (y : int array) ny (out : int array) =
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < nx && !j < ny do
    let xv = Array.unsafe_get x !i and yv = Array.unsafe_get y !j in
    if xv <= yv then begin
      Array.unsafe_set out !k xv;
      incr i;
      if xv = yv then incr j
    end
    else begin
      Array.unsafe_set out !k yv;
      incr j
    end;
    incr k
  done;
  let rest = nx - !i in
  Array.blit x !i out !k rest;
  let k = !k + rest in
  let rest = ny - !j in
  Array.blit y !j out k rest;
  k + rest

(** Merge-union of two shared sets; returns one of its arguments
    physically when the other is a subset.  Bitmap pairs are word-ORs. *)
let union pool (a : t) (b : t) : t =
  if cardinal a = 0 then b
  else if cardinal b = 0 then a
  else if a == b then a
  else
    match (a.repr, b.repr) with
    | Arr x, Arr y ->
        let nx = Array.length x and ny = Array.length y in
        let out = Array.make (nx + ny) 0 in
        let k = merge_into x nx y ny out in
        if k = nx then a
        else if k = ny then b
        else intern_prefix pool ~copy:false out k
    | Bits x, Bits y ->
        let nx = Array.length x.words and ny = Array.length y.words in
        let words = Array.make (max nx ny) 0 in
        or_words ~dst:words x.words;
        or_words ~dst:words y.words;
        let card = popcount_words words in
        if card = x.card then a
        else if card = y.card then b
        else intern_words pool words card
    | Arr small, Bits big | Bits big, Arr small ->
        (* the result is a superset of the dense side *)
        let nw = max (Array.length big.words) (words_for small.(Array.length small - 1)) in
        let words = Array.make nw 0 in
        or_words ~dst:words big.words;
        Array.iter (fun e -> set_bit words e) small;
        let card = popcount_words words in
        if card = big.card then if cardinal a > cardinal b then a else b
        else intern_words pool words card

(* Grow both scratch buffers to hold at least [need] cells. *)
let reserve_scratch p need =
  if Array.length p.scratch_a < need then begin
    let cap = max need (2 * Array.length p.scratch_a) in
    p.scratch_a <- Array.make cap 0;
    p.scratch_b <- Array.make cap 0
  end

(* A merge step (compare, store, advance) costs about a quarter of what
   the accumulator spends per word or element (allocate, OR, popcount,
   unpack, hash): on FB gimp the merges win, on the solver bench's
   small-universe shapes with a hundred inputs the accumulator does. *)
let merge_factor = 4

(* The first of [sets.(0..n)] whose cardinality is [card]: every input
   is a subset of the union, so such an input IS the union. *)
let winner (sets : t array) n card =
  let rec go i =
    if i = n then None
    else if cardinal sets.(i) = card then Some sets.(i)
    else go (i + 1)
  in
  go 0

(** N-way union of [n] shared sets plus a raw element buffer — the
    reachability walk's SCC-result construction.  The buffer may be
    unsorted and contain duplicates; it is clobbered.  Three paths (see
    the interface): small gather, scratch merge, word accumulator. *)
let union_many pool (sets : t array) n (buf : int array) len : t =
  if n = 0 then of_dyn pool buf len
  else if n = 1 && len = 0 then sets.(0)
  else begin
    (* [merge_cost] bounds the cells the pairwise merges write: input
       [i]'s merge writes at most the raw elements plus inputs [0 .. i] *)
    let total = ref len and any_bits = ref false and merge_cost = ref 0 in
    for i = 0 to n - 1 do
      total := !total + cardinal sets.(i);
      merge_cost := !merge_cost + !total;
      if is_bitmap sets.(i) then any_bits := true
    done;
    if !total <= pool.threshold then begin
      (* everything is small: gather, sort, dedup *)
      reserve_scratch pool !total;
      let gather = pool.scratch_a in
      let k = ref 0 in
      for i = 0 to n - 1 do
        iter
          (fun x ->
            gather.(!k) <- x;
            incr k)
          sets.(i)
      done;
      Array.blit buf 0 gather !k len;
      of_dyn pool gather !total
    end
    else begin
      let maxe = ref 0 in
      for i = 0 to n - 1 do
        if cardinal sets.(i) > 0 then maxe := max !maxe (max_elem sets.(i))
      done;
      for i = 0 to len - 1 do
        maxe := max !maxe buf.(i)
      done;
      let nwords = words_for !maxe in
      if (not !any_bits) && !merge_cost <= merge_factor * (nwords + !total)
      then begin
        (* sort + dedup the raw elements, then fold the inputs in by
           merges that alternate between the two scratch buffers *)
        reserve_scratch pool !total;
        let cur = ref buf and cur_len = ref (sort_dedup buf len) in
        for i = 0 to n - 1 do
          match sets.(i).repr with
          | Arr a ->
              let out =
                if !cur == pool.scratch_a then pool.scratch_b else pool.scratch_a
              in
              cur_len := merge_into !cur !cur_len a (Array.length a) out;
              cur := out
          | Bits _ -> assert false
        done;
        match winner sets n !cur_len with
        | Some s -> s
        | None -> intern_prefix pool ~copy:true !cur !cur_len
      end
      else begin
        let words = Array.make nwords 0 in
        for i = 0 to n - 1 do
          match sets.(i).repr with
          | Bits b -> or_words ~dst:words b.words
          | Arr a -> Array.iter (fun e -> set_bit words e) a
        done;
        for i = 0 to len - 1 do
          set_bit words buf.(i)
        done;
        let card = popcount_words words in
        match winner sets n card with
        | Some s -> s
        | None -> intern_words pool words card
      end
    end
  end
