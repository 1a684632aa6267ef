(* Vector timestamps with cached summaries and delta tracking.

   A clock is a dense [int array] plus three kinds of bookkeeping that
   make the large-n hot paths cheap without changing any observable
   result:

   - [sum], the cached component sum, maintained incrementally by every
     mutator.  [order] on concurrent clocks tie-breaks by (sum, lex), and
     the domination cases are themselves sum-ordered (if [a <= b]
     componentwise with any strict component then [sum a < sum b]), so
     the whole total order collapses to "compare sums, then lex" — O(1)
     whenever the sums differ, which is the common case on the
     diff-apply and interval-sort paths.

   - [ver], a last-modified epoch: bumped on every content change, it
     gives a cheap identity for "has this clock changed since I looked".

   - a dirty-component set relative to a [base] clock (the owner's
     last-barrier knowledge, recorded by [rebase]): [delta_size_bytes]
     against that exact base counts only the components touched since
     the barrier instead of scanning all [nprocs].  The fast path is
     taken only when the [since] argument IS the recorded base (same
     physical clock, unchanged [ver]), so the counted bytes are exactly
     what the dense scan would produce; any other pairing falls back to
     the scan. *)

type t = {
  c : int array;
  mutable sum : int;
  mutable ver : int;
  mutable base : t option;
  mutable base_ver : int;
  mutable dirty : int array;  (* distinct component indices, [ndirty] live *)
  mutable ndirty : int;  (* -1 = overflowed: fall back to dense scans *)
  mutable epoch : int;  (* >= 0 iff this clock is a stamped epoch base *)
  mutable epoch_ver : int;  (* [ver] at the moment of stamping *)
  mutable mono : bool;  (* components have only grown since the rebase *)
  mutable dcache_epoch : int;  (* epoch of the cached delta count, -1 none *)
  mutable dcache_ver : int;  (* [ver] when the count was cached *)
  mutable dcache : int;  (* differing components vs that epoch's content *)
}

(* Epoch bases.  At the completion of barrier [e], EVERY node's clock
   equals the same global supremum, and each node records it as its
   last-barrier snapshot: all clocks stamped with epoch [e] therefore
   have identical components.  That turns the base identity from a
   physical one (same clock object) into a logical one — a clock whose
   recorded base carries the same epoch stamp as [since] (both stamps
   current, guarded by the [*_ver] fields) is delta-comparable against
   [since] through its dirty set alone, even on another node.  A clock
   that merely matches epoch NUMBERS from different stampings of the
   same object (the tree barrier blits one object per node forever)
   fails the [base_ver = epoch_ver] guard and falls back to the scan. *)
let same_epoch_base t other_base =
  t.ndirty >= 0
  &&
  match t.base with
  | Some b ->
    (b == other_base && t.base_ver = other_base.ver)
    || (b.epoch >= 0 && b.epoch = other_base.epoch
       && t.base_ver = b.epoch_ver)
  | None -> false

(* Enough slots for a node's own writes plus a few lock-carried merges
   between barriers; overflowing just reverts to the dense behavior. *)
let dirty_cap = 12

let zero ~nprocs =
  if nprocs <= 0 then invalid_arg "Vc.zero: nprocs must be positive";
  {
    c = Array.make nprocs 0;
    sum = 0;
    ver = 0;
    base = None;
    base_ver = 0;
    dirty = [||];
    ndirty = 0;
    epoch = -1;
    epoch_ver = 0;
    mono = false;
    dcache_epoch = -1;
    dcache_ver = 0;
    dcache = 0;
  }

let copy t =
  {
    c = Int_array.copy t.c;
    sum = t.sum;
    ver = 0;
    base = t.base;
    base_ver = t.base_ver;
    dirty = Int_array.copy t.dirty;
    ndirty = t.ndirty;
    epoch = -1;  (* being an epoch base is not inherited *)
    epoch_ver = 0;
    mono = t.mono;
    dcache_epoch = -1;  (* keyed to [ver], which restarts at 0 *)
    dcache_ver = 0;
    dcache = 0;
  }

let nprocs t = Array.length t.c

let get t i = t.c.(i)

let touched t =
  t.ver <- t.ver + 1

let version t = t.ver

let mark_dirty t i =
  if t.ndirty >= 0 then begin
    if Array.length t.dirty = 0 then t.dirty <- Array.make dirty_cap 0;
    let rec known j = j < t.ndirty && (t.dirty.(j) = i || known (j + 1)) in
    if not (known 0) then
      if t.ndirty = Array.length t.dirty then t.ndirty <- -1
      else begin
        t.dirty.(t.ndirty) <- i;
        t.ndirty <- t.ndirty + 1
      end
  end

let set t i v =
  if t.c.(i) <> v then begin
    if v < t.c.(i) then t.mono <- false;
    t.sum <- t.sum + v - t.c.(i);
    t.c.(i) <- v;
    touched t;
    mark_dirty t i
  end

let tick t ~proc =
  t.c.(proc) <- t.c.(proc) + 1;
  t.sum <- t.sum + 1;
  touched t;
  mark_dirty t proc

let merge_into t other =
  if t != other then begin
    if Array.length t.c <> Array.length other.c then
      invalid_arg "Vc.merge_into: size mismatch";
    let changed = ref false in
    let bump i v =
      t.sum <- t.sum + v - t.c.(i);
      t.c.(i) <- v;
      mark_dirty t i;
      changed := true
    in
    (* Same-epoch shortcut: [other]'s non-dirty components equal the
       shared epoch base, and [t] has only grown past that base since
       its own rebase — only [other]'s dirty components can exceed
       [t]'s.  This is the O(active components) merge on the interval
       apply path; anything unprovable takes the dense loop. *)
    let fast =
      t.mono && other.ndirty >= 0
      &&
      match (t.base, other.base) with
      | Some tb, Some ob ->
        tb.epoch >= 0 && tb.epoch = ob.epoch
        && t.base_ver = tb.epoch_ver
        && other.base_ver = ob.epoch_ver
      | _ -> false
    in
    if fast then
      for j = 0 to other.ndirty - 1 do
        let i = other.dirty.(j) in
        if other.c.(i) > t.c.(i) then bump i other.c.(i)
      done
    else
      for i = 0 to Array.length t.c - 1 do
        if other.c.(i) > t.c.(i) then bump i other.c.(i)
      done;
    if !changed then touched t
  end

let blit_into ~src ~dst =
  if Array.length src.c <> Array.length dst.c then
    invalid_arg "Vc.blit_into: size mismatch";
  Int_array.blit src.c 0 dst.c 0 (Array.length src.c);
  dst.sum <- src.sum;
  touched dst;
  (* The overwritten content bears no relation to [dst]'s old base, and
     any epoch stamp it carried no longer describes its content. *)
  dst.base <- None;
  dst.ndirty <- 0;
  dst.epoch <- -1;
  dst.mono <- false

let min_into t other =
  if t != other then begin
    if Array.length t.c <> Array.length other.c then
      invalid_arg "Vc.min_into: size mismatch";
    let changed = ref false in
    for i = 0 to Array.length t.c - 1 do
      if other.c.(i) < t.c.(i) then begin
        t.sum <- t.sum + other.c.(i) - t.c.(i);
        t.c.(i) <- other.c.(i);
        mark_dirty t i;
        changed := true
      end
    done;
    if !changed then begin
      touched t;
      t.mono <- false
    end
  end

let rebase ?(epoch = -1) t ~base =
  if epoch >= 0 then begin
    base.epoch <- epoch;
    base.epoch_ver <- base.ver
  end;
  t.base <- Some base;
  t.base_ver <- base.ver;
  t.ndirty <- 0;
  t.mono <- true

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
     (* Same-epoch shortcut: [a]'s non-dirty components equal the
        shared epoch base, which [b] has only grown past — only [a]'s
        dirty components can decide. *)
     let fast =
       a.ndirty >= 0 && b.mono
       &&
       match (a.base, b.base) with
       | Some ab, Some bb ->
         ab.epoch >= 0 && ab.epoch = bb.epoch
         && a.base_ver = ab.epoch_ver
         && b.base_ver = bb.epoch_ver
       | _ -> false
     in
     if fast then begin
       let rec go j =
         j >= a.ndirty
         ||
         let i = a.dirty.(j) in
         a.c.(i) <= b.c.(i) && go (j + 1)
       in
       go 0
     end
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

(* Delta encoding against a clock the receiver is known to share (the
   sender's last-barrier knowledge): an 8-byte header plus an
   (index, value) pair per differing component.  When [since] is exactly
   the clock's recorded [rebase] base and has not changed since, only the
   components touched since the rebase can differ — count those instead
   of scanning all of them. *)
let delta_size_bytes ~since t =
  if Array.length since.c <> Array.length t.c then
    invalid_arg "Vc.delta_size_bytes: size mismatch";
  let changed = ref 0 in
  let fast =
    same_epoch_base t since
    && (since.epoch < 0 || since.epoch_ver = since.ver)
  in
  if fast then
    for j = 0 to t.ndirty - 1 do
      let i = t.dirty.(j) in
      if t.c.(i) <> since.c.(i) then incr changed
    done
  else if since.epoch >= 0 && since.epoch_ver = since.ver then begin
    (* [since] is a current epoch snapshot, so the count against it is a
       pure function of ([t]'s content, the epoch): cache it on [t].
       Interval timestamps are immutable and get sized once per receiver
       they are relayed to — the dense scan runs once instead of
       O(receivers) times. *)
    if t.dcache_epoch = since.epoch && t.dcache_ver = t.ver then
      changed := t.dcache
    else begin
      for i = 0 to Array.length t.c - 1 do
        if t.c.(i) <> since.c.(i) then incr changed
      done;
      t.dcache_epoch <- since.epoch;
      t.dcache_ver <- t.ver;
      t.dcache <- !changed
    end
  end
  else
    for i = 0 to Array.length t.c - 1 do
      if t.c.(i) <> since.c.(i) then incr changed
    done;
  8 + (8 * !changed)

let pp ppf t =
  Format.fprintf ppf "<%a>"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.pp_print_char ppf ',')
       Format.pp_print_int)
    (Array.to_list t.c)
