(* Vector timestamps with a cached sum and a per-epoch delta cache.

   A clock is a dense [int array] plus bookkeeping that makes the
   large-n hot paths cheap without changing any observable result:

   - [sum], the cached component sum, maintained incrementally by every
     mutator.  [order] on concurrent clocks tie-breaks by (sum, lex), and
     the domination cases are themselves sum-ordered (if [a <= b]
     componentwise with any strict component then [sum a < sum b]), so
     the whole total order collapses to "compare sums, then lex" — O(1)
     whenever the sums differ, which is the common case on the
     diff-apply and interval-sort paths.

   - [ver], a content version: bumped on every content change, it gives
     a cheap identity for "has this clock changed since I looked".

   - epoch stamps and the delta cache.  At the completion of barrier
     [e], EVERY node's clock equals the same global supremum, and each
     node records it as its last-barrier snapshot, stamped by [rebase]
     with epoch [e]: all current epoch-[e] snapshots therefore have
     identical components.  The number of components in which a clock
     differs from such a snapshot is then a pure function of (the
     clock's content, [e]), so [delta_size_bytes] caches it on the clock
     keyed by ([e], [ver]).  A snapshot mutated after stamping fails the
     [epoch_ver = ver] guard and is scanned densely. *)

type t = {
  c : int array;
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
let make c ~sum =
  { c; sum; ver = 0; epoch = -1; epoch_ver = 0; dcache_epoch = -1;
    dcache_ver = 0; dcache = 0 }

let zero ~nprocs =
  if nprocs <= 0 then invalid_arg "Vc.zero: nprocs must be positive";
  make (Array.make nprocs 0) ~sum:0

let copy t = make (Int_array.copy t.c) ~sum:t.sum

let nprocs t = Array.length t.c

let get t i = t.c.(i)

let touched t =
  t.ver <- t.ver + 1

let version t = t.ver

let set t i v =
  if t.c.(i) <> v then begin
    t.sum <- t.sum + v - t.c.(i);
    t.c.(i) <- v;
    touched t
  end

let tick t ~proc =
  t.c.(proc) <- t.c.(proc) + 1;
  t.sum <- t.sum + 1;
  touched t

let merge_into t other =
  if t != other then begin
    if Array.length t.c <> Array.length other.c then
      invalid_arg "Vc.merge_into: size mismatch";
    let changed = ref false in
    for i = 0 to Array.length t.c - 1 do
      if other.c.(i) > t.c.(i) then begin
        t.sum <- t.sum + other.c.(i) - t.c.(i);
        t.c.(i) <- other.c.(i);
        changed := true
      end
    done;
    if !changed then touched t
  end

let blit_into ~src ~dst =
  if Array.length src.c <> Array.length dst.c then
    invalid_arg "Vc.blit_into: size mismatch";
  Int_array.blit src.c 0 dst.c 0 (Array.length src.c);
  dst.sum <- src.sum;
  touched dst

let min_into t other =
  if t != other then begin
    if Array.length t.c <> Array.length other.c then
      invalid_arg "Vc.min_into: size mismatch";
    let changed = ref false in
    for i = 0 to Array.length t.c - 1 do
      if other.c.(i) < t.c.(i) then begin
        t.sum <- t.sum + other.c.(i) - t.c.(i);
        t.c.(i) <- other.c.(i);
        changed := true
      end
    done;
    if !changed then touched t
  end

let rebase ~epoch t ~base =
  if t.sum <> base.sum then invalid_arg "Vc.rebase: clock differs from base";
  base.epoch <- epoch;
  base.epoch_ver <- base.ver

let same_components a b =
  let n = Array.length a.c in
  let rec go i = i = n || (a.c.(i) = b.c.(i) && go (i + 1)) in
  go 0

let equal a b =
  a == b
  || (Array.length a.c = Array.length b.c
     && a.sum = b.sum
     && same_components a b)

let leq a b =
  a == b
  ||
  (if Array.length a.c <> Array.length b.c then
     invalid_arg "Vc.leq: size mismatch";
   if a.sum > b.sum then false
   else if a.sum = b.sum then
     (* Equal sums: domination with any strict component is impossible,
        so [a <= b] iff the clocks are equal. *)
     same_components a b
   else
     let n = Array.length a.c in
     let rec go i = i = n || (a.c.(i) <= b.c.(i) && go (i + 1)) in
     go 0)

let concurrent a b = (not (leq a b)) && not (leq b a)

let sum t = t.sum

(* Lexicographic comparison on the components, avoiding the polymorphic
   [compare] (the clock sort on every diff-apply path goes through
   [order]). *)
let lex a b =
  let n = Array.length a.c in
  let rec go i =
    if i = n then 0
    else
      let c = Int.compare a.c.(i) b.c.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

(* The historical order was: dominated-first, concurrent clocks broken by
   (sum, lex).  Domination implies a strictly smaller sum, concurrency
   with distinct sums is already decided by the sum, and equal sums rule
   out domination entirely — so the whole thing IS "(sum, lex)", with the
   sums cached this is O(1) unless the sums collide. *)
let order a b =
  if a == b then 0
  else
    let c = Int.compare a.sum b.sum in
    if c <> 0 then c else lex a b

let size_bytes t = 4 * Array.length t.c

let differing ~since t =
  let n = ref 0 in
  for i = 0 to Array.length t.c - 1 do
    if t.c.(i) <> since.c.(i) then incr n
  done;
  !n

(* Delta encoding against a clock the receiver is known to share (the
   sender's last-barrier knowledge): an 8-byte header plus an
   (index, value) pair per differing component. *)
let delta_size_bytes ~since t =
  if Array.length since.c <> Array.length t.c then
    invalid_arg "Vc.delta_size_bytes: size mismatch";
  let changed =
    if since.epoch >= 0 && since.epoch_ver = since.ver then begin
      (* [since] is a current epoch snapshot, so the count against it is
         a pure function of ([t]'s content, the epoch): cache it on [t].
         Interval timestamps are immutable and get sized once per
         receiver they are relayed to — the dense scan runs once instead
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
    (Array.to_list t.c)
