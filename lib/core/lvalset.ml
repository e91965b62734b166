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

(* visit the set bits of one word in ascending order *)
let iter_word f base w =
  let w = ref w and bit = ref 0 in
  while !w <> 0 do
    if !w land 1 = 1 then f (base + !bit);
    w := !w lsr 1;
    incr bit
  done

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

(** Sort + dedup a scratch buffer of candidate members into a shared
    set.  The first [len] cells of [buf] are clobbered (sorted in
    place), but [buf] is never retained — callers may reuse it. *)
let of_dyn pool (buf : int array) (len : int) : t =
  if len = 0 then empty
  else begin
    Intsort.sort buf len;
    let w = ref 1 in
    for r = 1 to len - 1 do
      if buf.(r) <> buf.(!w - 1) then begin
        buf.(!w) <- buf.(r);
        incr w
      end
    done;
    intern_prefix pool ~copy:true buf !w
  end

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
        let i = ref 0 and j = ref 0 and k = ref 0 in
        while !i < nx && !j < ny do
          let xv = x.(!i) and yv = y.(!j) in
          if xv < yv then (out.(!k) <- xv; incr i)
          else if yv < xv then (out.(!k) <- yv; incr j)
          else (out.(!k) <- xv; incr i; incr j);
          incr k
        done;
        while !i < nx do out.(!k) <- x.(!i); incr i; incr k done;
        while !j < ny do out.(!k) <- y.(!j); incr j; incr k done;
        if !k = nx then a
        else if !k = ny then b
        else intern_prefix pool ~copy:false out !k
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

(** N-way union of [n] shared sets plus a raw element buffer, built in a
    single pass — the reachability walk's SCC-result construction.  The
    buffer may be unsorted and contain duplicates; it is clobbered. *)
let union_many pool (sets : t array) n (buf : int array) len : t =
  if n = 0 then of_dyn pool buf len
  else if n = 1 && len = 0 then sets.(0)
  else begin
    let total = ref len in
    for i = 0 to n - 1 do
      total := !total + cardinal sets.(i)
    done;
    if !total <= pool.threshold then begin
      (* everything is small: gather, sort, dedup *)
      let gather = Array.make !total 0 in
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
      (* bitmap accumulator sized to the widest input *)
      let maxe = ref 0 in
      for i = 0 to n - 1 do
        if cardinal sets.(i) > 0 then maxe := max !maxe (max_elem sets.(i))
      done;
      for i = 0 to len - 1 do
        maxe := max !maxe buf.(i)
      done;
      let words = Array.make (words_for !maxe) 0 in
      for i = 0 to n - 1 do
        match sets.(i).repr with
        | Bits b -> or_words ~dst:words b.words
        | Arr a -> Array.iter (fun e -> set_bit words e) a
      done;
      for i = 0 to len - 1 do
        set_bit words buf.(i)
      done;
      let card = popcount_words words in
      (* physical fast path: an input set of the same cardinality IS the
         union (every input is a subset of the union) *)
      let winner = ref None in
      for i = 0 to n - 1 do
        if !winner = None && cardinal sets.(i) = card then winner := Some sets.(i)
      done;
      match !winner with Some s -> s | None -> intern_words pool words card
    end
  end
