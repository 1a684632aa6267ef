(* Vector timestamps: a shared base array plus the components that differ
   from it.

   Every barrier ends with all nodes of a cluster holding the same clock,
   the supremum of the epoch, and most clocks made in the next epoch
   (interval timestamps, lock requests, subtree minima, the next
   barrier's snapshot) differ from it in a few components.  So a clock
   is:

   - [base], an [int array] that is never written while it is shared:
     the cluster's published epoch base ({!Epoch}), or a base of the
     clock's own;
   - the touched components: [len] ascending indices in [idx] with their
     values in [vals], each DIFFERENT from the base's value (the strict
     invariant).  A component written back to its base value leaves the
     set, so two clocks on one base are equal iff their touched sets
     are;
   - [own]: [base] belongs to this clock alone, so mutators write it in
     place and the touched set is empty.  [zero] and a fold (below)
     create owned bases; [copy] and [blit_into] share the base and end
     the ownership.  A touched set that would grow past [limit] (a
     sixteenth of the width, at least 4) is folded into a fresh owned
     base: a clock fed by a long lock chain costs one dense copy, then
     O(1) reads and writes.

   Two clocks on the same base are compared, merged and measured by
   walking the union of their touched sets; clocks on different bases
   take one dense walk ([first_diff]).

   Besides the components a clock caches:

   - [sum], the component sum, maintained by every mutator.  [order] on
     concurrent clocks tie-breaks by (sum, lex), and the domination cases
     are themselves sum-ordered (if [a <= b] componentwise with any
     strict component then [sum a < sum b]), so the whole total order
     collapses to "compare sums, then lex" — O(1) whenever the sums
     differ;

   - [ver], a content version: bumped on every content change, it gives
     a cheap identity for "has this clock changed since I looked";

   - epoch stamps and the delta cache.  At the completion of barrier [e]
     EVERY node's clock equals the same global supremum, and each node
     records it as its last-barrier snapshot, stamped by [rebase] with
     epoch [e].  The number of components in which a clock differs from
     such a snapshot is then a pure function of (the clock's content,
     [e]), so [delta_size_bytes] caches it on the clock keyed by ([e],
     [ver]) when the two clocks sit on different bases.  A snapshot
     mutated after stamping fails the [epoch_ver = ver] guard. *)

type t = {
  mutable base : int array;
  mutable own : bool;  (* [base] is this clock's alone; then [len] = 0 *)
  mutable idx : int array;  (* touched components, ascending *)
  mutable vals : int array;  (* their values, each <> the base's *)
  mutable len : int;
  mutable sum : int;
  mutable ver : int;
  mutable epoch : int;  (* >= 0 iff this clock is a stamped epoch base *)
  mutable epoch_ver : int;  (* [ver] at the moment of stamping *)
  mutable dcache_epoch : int;  (* epoch of the cached delta count, -1 none *)
  mutable dcache_ver : int;  (* [ver] when the count was cached *)
  mutable dcache : int;  (* differing components vs that epoch's content *)
}

(* A fresh clock: version 0, no epoch stamp (being an epoch base is not
   inherited by copies), and no cached delta count. *)
let make base ~own ~idx ~vals ~len ~sum =
  { base; own; idx; vals; len; sum; ver = 0; epoch = -1; epoch_ver = 0;
    dcache_epoch = -1; dcache_ver = 0; dcache = 0 }

let zero ~nprocs =
  if nprocs <= 0 then invalid_arg "Vc.zero: nprocs must be positive";
  make (Array.make nprocs 0) ~own:true ~idx:[||] ~vals:[||] ~len:0 ~sum:0

let nprocs t = Array.length t.base

(* Touched sets fold into an owned base beyond this many components. *)
let limit t = Int.max 4 (Array.length t.base lsr 4)

(* Position of component [i] in [idx.(lo..hi-1)], or [-(insertion
   point) - 1] when it is not there. *)
let rec search (idx : int array) (i : int) lo hi =
  if lo >= hi then -lo - 1
  else
    let mid = (lo + hi) lsr 1 in
    let x = Array.unsafe_get idx mid in
    if x = i then mid else if x < i then search idx i (mid + 1) hi
    else search idx i lo mid

let get t i =
  if t.len = 0 then t.base.(i)
  else
    let k = search t.idx i 0 t.len in
    if k >= 0 then t.vals.(k) else t.base.(i)

let dense t =
  let d = Int_array.copy t.base in
  for k = 0 to t.len - 1 do
    d.(t.idx.(k)) <- t.vals.(k)
  done;
  d

(* Move the touched set into a fresh base of the clock's own. *)
let fold t =
  t.base <- dense t;
  t.own <- true;
  t.len <- 0

let copy t =
  t.own <- false;
  make t.base ~own:false ~idx:(Array.sub t.idx 0 t.len)
    ~vals:(Array.sub t.vals 0 t.len) ~len:t.len ~sum:t.sum

let version t = t.ver

(* Write [v] into component [i], found at [search] result [k] of a
   clock without an owned base, keeping the touched set strict.  [v]
   differs from the current value; the caller accounts [sum] and [ver]. *)
let write_at t k i v =
  if k >= 0 then begin
    if v = t.base.(i) then begin
      let idx = t.idx and vals = t.vals in
      for j = k to t.len - 2 do
        Array.unsafe_set idx j (Array.unsafe_get idx (j + 1));
        Array.unsafe_set vals j (Array.unsafe_get vals (j + 1))
      done;
      t.len <- t.len - 1
    end
    else t.vals.(k) <- v
  end
  else if t.len >= limit t then begin
    fold t;
    t.base.(i) <- v
  end
  else begin
    let k = -k - 1 in
    if t.len = Array.length t.idx then begin
      let cap = Int.min (limit t) (Int.max 4 (2 * t.len)) in
      let idx = Array.make cap 0 and vals = Array.make cap 0 in
      Int_array.blit t.idx 0 idx 0 t.len;
      Int_array.blit t.vals 0 vals 0 t.len;
      t.idx <- idx;
      t.vals <- vals
    end;
    (* [k <= len < capacity]: the shift stays inside both arrays. *)
    let idx = t.idx and vals = t.vals in
    for j = t.len downto k + 1 do
      Array.unsafe_set idx j (Array.unsafe_get idx (j - 1));
      Array.unsafe_set vals j (Array.unsafe_get vals (j - 1))
    done;
    idx.(k) <- i;
    vals.(k) <- v;
    t.len <- t.len + 1
  end

let write t i v =
  if t.own then t.base.(i) <- v else write_at t (search t.idx i 0 t.len) i v

let set t i v =
  let k = if t.own || t.len = 0 then -1 else search t.idx i 0 t.len in
  let old = if k >= 0 then t.vals.(k) else t.base.(i) in
  if old <> v then begin
    if t.own then t.base.(i) <- v
    else write_at t k i v;
    t.sum <- t.sum + v - old;
    t.ver <- t.ver + 1
  end

let tick t ~proc = set t proc (get t proc + 1)

(* The walks behind every two-clock operation.  [first_diff a b f] calls
   [f i ai bi] on each component [i] where the clocks differ, ascending,
   and returns the first non-zero result, or 0.  On a shared base it
   walks the union of the touched sets (off the union both clocks equal
   the base); otherwise every component.  Top-level recursions, so that
   no walk allocates a closure. *)
let rec union_walk f (base : int array) n a b ka kb =
  let ia = if ka < a.len then a.idx.(ka) else n
  and ib = if kb < b.len then b.idx.(kb) else n in
  if ia < ib then
    let r = f ia a.vals.(ka) base.(ia) in
    if r <> 0 then r else union_walk f base n a b (ka + 1) kb
  else if ib < ia then
    let r = f ib base.(ib) b.vals.(kb) in
    if r <> 0 then r else union_walk f base n a b ka (kb + 1)
  else if ia = n then 0
  else
    let x = a.vals.(ka) and y = b.vals.(kb) in
    let r = if x <> y then f ia x y else 0 in
    if r <> 0 then r else union_walk f base n a b (ka + 1) (kb + 1)

let rec base_walk f n (x : int array) (y : int array) i =
  if i = n then 0
  else if x.(i) = y.(i) then base_walk f n x y (i + 1)
  else
    let r = f i x.(i) y.(i) in
    if r <> 0 then r else base_walk f n x y (i + 1)

let rec dense_walk f n a b i ka kb =
  if i = n then 0
  else
    let ta = ka < a.len && a.idx.(ka) = i
    and tb = kb < b.len && b.idx.(kb) = i in
    let x = if ta then a.vals.(ka) else a.base.(i)
    and y = if tb then b.vals.(kb) else b.base.(i) in
    let r = if x <> y then f i x y else 0 in
    if r <> 0 then r
    else
      dense_walk f n a b (i + 1)
        (if ta then ka + 1 else ka)
        (if tb then kb + 1 else kb)

let first_diff a b f =
  let n = Array.length a.base in
  if a.base == b.base then union_walk f a.base n a b 0 0
  else if a.len = 0 && b.len = 0 then base_walk f n a.base b.base 0
  else dense_walk f n a b 0 0 0

let differ _ _ _ = 1

(* Componentwise maximum ([up]) or minimum into [t].  The changes are
   collected first: writing moves the touched set the walk is reading.
   Many changes fold [t] first, so that they are written in place. *)
let combine ~up ~fn t other =
  if t != other then begin
    if Array.length t.base <> Array.length other.base then
      invalid_arg ("Vc." ^ fn ^ ": size mismatch");
    let changes = ref [] and n = ref 0 in
    ignore
      (first_diff t other (fun i x y ->
           if if up then y > x else y < x then begin
             changes := (i, x, y) :: !changes;
             incr n
           end;
           0));
    if !n > 0 then begin
      if (not t.own) && t.len + !n > limit t then fold t;
      List.iter
        (fun (i, x, y) ->
          write t i y;
          t.sum <- t.sum + y - x)
        !changes;
      t.ver <- t.ver + 1
    end
  end

let merge_into t other = combine ~up:true ~fn:"merge_into" t other

let min_into t other = combine ~up:false ~fn:"min_into" t other

let blit_into ~src ~dst =
  if Array.length src.base <> Array.length dst.base then
    invalid_arg "Vc.blit_into: size mismatch";
  if src != dst then begin
    src.own <- false;
    dst.own <- false;
    dst.base <- src.base;
    if Array.length dst.idx < src.len then begin
      dst.idx <- Array.sub src.idx 0 src.len;
      dst.vals <- Array.sub src.vals 0 src.len
    end
    else begin
      Int_array.blit src.idx 0 dst.idx 0 src.len;
      Int_array.blit src.vals 0 dst.vals 0 src.len
    end;
    dst.len <- src.len;
    dst.sum <- src.sum
  end;
  dst.ver <- dst.ver + 1

(* The first [n] entries of two touched sets are equal from [k] on. *)
let rec same_touched (i : int array) (v : int array) i' v' k n =
  k = n
  || (i.(k) = i'.(k) && v.(k) = v'.(k) && same_touched i v i' v' (k + 1) n)

(* Same components; on a shared base, the same touched sets. *)
let same_components a b =
  if a.base == b.base then
    a.len = b.len && same_touched a.idx a.vals b.idx b.vals 0 a.len
  else first_diff a b differ = 0

let equal a b =
  a == b
  || (Array.length a.base = Array.length b.base
     && a.sum = b.sum
     && same_components a b)

let rebase ~epoch t ~base =
  if not (equal t base) then invalid_arg "Vc.rebase: clock differs from base";
  base.epoch <- epoch;
  base.epoch_ver <- base.ver

let leq a b =
  a == b
  ||
  (if Array.length a.base <> Array.length b.base then
     invalid_arg "Vc.leq: size mismatch";
   if a.sum > b.sum then false
   else if a.sum = b.sum then
     (* Equal sums: domination with any strict component is impossible,
        so [a <= b] iff the clocks are equal. *)
     same_components a b
   else first_diff a b (fun _ x y -> if x > y then 1 else 0) = 0)

let concurrent a b = (not (leq a b)) && not (leq b a)

let sum t = t.sum

(* The historical order was: dominated-first, concurrent clocks broken by
   (sum, lex).  Domination implies a strictly smaller sum, concurrency
   with distinct sums is already decided by the sum, and equal sums rule
   out domination entirely — so the whole thing IS "(sum, lex)", with the
   sums cached this is O(1) unless the sums collide.  Lex is decided by
   the first differing component. *)
let order a b =
  if a == b then 0
  else
    let c = Int.compare a.sum b.sum in
    if c <> 0 then c
    else
      first_diff a b (fun _ x y -> Int.compare x y)

let size_bytes t = 4 * Array.length t.base

let differing ~since t =
  let n = ref 0 in
  ignore
    (first_diff since t (fun _ _ _ ->
         incr n;
         0));
  !n

(* Delta encoding against a clock the receiver is known to share (the
   sender's last-barrier knowledge): an 8-byte header plus an
   (index, value) pair per differing component. *)
let delta_size_bytes ~since t =
  if Array.length since.base <> Array.length t.base then
    invalid_arg "Vc.delta_size_bytes: size mismatch";
  let changed =
    if since.base == t.base then
      (* Off the touched sets both equal the base, and a touched
         component differs from it: against an untouched [since] the
         count is [t]'s touched set. *)
      if since.len = 0 then t.len
      else if t.len = 0 then since.len
      else differing ~since t
    else if since.epoch >= 0 && since.epoch_ver = since.ver then begin
      (* [since] is a current epoch snapshot, so the count against it is
         a pure function of ([t]'s content, the epoch): cache it on [t].
         A timestamp relayed to many receivers is scanned once instead
         of O(receivers) times. *)
      if t.dcache_epoch <> since.epoch || t.dcache_ver <> t.ver then begin
        t.dcache <- differing ~since t;
        t.dcache_epoch <- since.epoch;
        t.dcache_ver <- t.ver
      end;
      t.dcache
    end
    else differing ~since t
  in
  8 + (8 * changed)

let pp ppf t =
  Format.fprintf ppf "<%a>"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    (Array.to_list (dense t))

module Epoch = struct
  type clock = t

  (* [base] is published by the first node to leave barrier [epoch];
     [didx]/[dvals] list the components where it differs from [parent],
     the base published one barrier earlier, so that a clock on the
     parent base is checked against it in O(touched). *)
  type t = {
    zeros : int array;
    mutable epoch : int;
    mutable base : clock;  (* untouched and never mutated *)
    mutable parent : int array;
    mutable didx : int array;
    mutable dvals : int array;
  }

  let on base ~sum = make base ~own:false ~idx:[||] ~vals:[||] ~len:0 ~sum

  let create ~nprocs =
    if nprocs <= 0 then invalid_arg "Vc.Epoch.create: nprocs must be positive";
    let zeros = Array.make nprocs 0 in
    { zeros; epoch = 0; base = on zeros ~sum:0; parent = zeros; didx = [||];
      dvals = [||] }

  let zero es = on es.zeros ~sum:0

  let base es = on es.base.base ~sum:es.base.sum

  let adopted es (c : clock) = c.base == es.base.base

  let adopt es (c : clock) =
    c.base <- es.base.base;
    c.own <- false;
    c.len <- 0

  let publish es ~epoch (c : clock) =
    let parent = es.base.base in
    if c.base == parent then begin
      es.didx <- Array.sub c.idx 0 c.len;
      es.dvals <- Array.sub c.vals 0 c.len
    end
    else begin
      let d = ref [] in
      ignore
        (first_diff es.base c (fun i _ v ->
             d := (i, v) :: !d;
             0));
      let d = Array.of_list (List.rev !d) in
      es.didx <- Array.map fst d;
      es.dvals <- Array.map snd d
    end;
    (* An owned base is handed over as is: [adopt] below ends the
       ownership, and nothing writes a base it does not own. *)
    let b = if c.own then c.base else dense c in
    es.base <- on b ~sum:c.sum;
    es.parent <- parent;
    es.epoch <- epoch;
    adopt es c

  let matches es (c : clock) =
    if c.base == es.parent then
      c.len = Array.length es.didx
      && same_touched c.idx c.vals es.didx es.dvals 0 c.len
    else equal c es.base

  let leave es ~epoch (c : clock) =
    if epoch > es.epoch then publish es ~epoch c
    else if not (adopted es c && c.len = 0) then
      if epoch = es.epoch && matches es c then adopt es c
      else
        failwith
          (Printf.sprintf
             "Vc.Epoch.leave: a clock leaving barrier %d differs from the \
              epoch-%d base"
             epoch es.epoch)
end
