(* Packed binary min-heap.

   The heap is the simulator's hottest data structure: every simulated
   event passes through one push and one pop.  Keys are stored packed —
   [keys.(2i)] is the entry's time, [keys.(2i+1)] its sequence number —
   in a single unboxed int array, with the payloads in a parallel value
   array, so a push allocates nothing (the old representation boxed a
   4-word record per entry).  Sifting uses hole insertion: parents or
   children are shifted into the hole and the moving entry is written
   exactly once at its final slot, so each level costs one
   pointer-array write (one write barrier), not a two-slot swap.

   Indices are bounded by [size] by construction, so accesses use the
   unsafe array primitives; every index is derived from [size] or a
   parent/child of a checked one.

   The value array is an [Obj.t] array so the heap stays polymorphic
   without an ['a option] box per slot.  The [Obj] use is confined to
   this module: only values put in by [push] come back out, at the same
   type, and vacated slots are reset to an untyped unit sentinel.  Slots
   at indices >= size are always [nil], so a popped value is never kept
   reachable from the heap (a value retained here would be un-GC-able
   for the rest of the run). *)

type 'a t = {
  mutable keys : int array;  (* 2 cells per entry: time, seq *)
  mutable values : Obj.t array;
  mutable size : int;
}

let nil = Obj.repr ()

let create () = { keys = [||]; values = [||]; size = 0 }

let length h = h.size

let is_empty h = h.size = 0

let grow h =
  let cap = Array.length h.values in
  let cap' = if cap = 0 then 64 else cap * 2 in
  let keys' = Array.make (2 * cap') 0 in
  let values' = Array.make cap' nil in
  Array.blit h.keys 0 keys' 0 (2 * h.size);
  Array.blit h.values 0 values' 0 h.size;
  h.keys <- keys';
  h.values <- values'

let push h ~time ~seq value =
  if h.size = Array.length h.values then grow h;
  let keys = h.keys and values = h.values in
  let v = Obj.repr value in
  (* Sift up: shift preceded parents down into the hole, then write the
     new entry once. *)
  let i = ref h.size in
  h.size <- h.size + 1;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pt = Array.unsafe_get keys (2 * parent) in
    let ps = Array.unsafe_get keys ((2 * parent) + 1) in
    if time < pt || (time = pt && seq < ps) then begin
      Array.unsafe_set keys (2 * !i) pt;
      Array.unsafe_set keys ((2 * !i) + 1) ps;
      Array.unsafe_set values !i (Array.unsafe_get values parent);
      i := parent
    end
    else continue := false
  done;
  Array.unsafe_set keys (2 * !i) time;
  Array.unsafe_set keys ((2 * !i) + 1) seq;
  Array.unsafe_set values !i v

(* Remove the root: take the last entry out, clear its slot (so the
   popped value is not retained by the heap), and sift it down from the
   root — shifting preceding children up into the hole and writing the
   entry once at its final position. *)
let remove_min h =
  let n = h.size - 1 in
  h.size <- n;
  let keys = h.keys and values = h.values in
  if n = 0 then Array.unsafe_set values 0 nil
  else begin
    let time = Array.unsafe_get keys (2 * n) in
    let seq = Array.unsafe_get keys ((2 * n) + 1) in
    let v = Array.unsafe_get values n in
    Array.unsafe_set values n nil;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      if l >= n then continue := false
      else begin
        (* smallest child of the hole *)
        let lt = Array.unsafe_get keys (2 * l) in
        let ls = Array.unsafe_get keys ((2 * l) + 1) in
        let r = l + 1 in
        let c, ct, cs =
          if r < n then begin
            let rt = Array.unsafe_get keys (2 * r) in
            let rs = Array.unsafe_get keys ((2 * r) + 1) in
            if rt < lt || (rt = lt && rs < ls) then (r, rt, rs)
            else (l, lt, ls)
          end
          else (l, lt, ls)
        in
        if ct < time || (ct = time && cs < seq) then begin
          Array.unsafe_set keys (2 * !i) ct;
          Array.unsafe_set keys ((2 * !i) + 1) cs;
          Array.unsafe_set values !i (Array.unsafe_get values c);
          i := c
        end
        else continue := false
      end
    done;
    Array.unsafe_set keys (2 * !i) time;
    Array.unsafe_set keys ((2 * !i) + 1) seq;
    Array.unsafe_set values !i v
  end

let pop_min (type a) (h : a t) =
  if h.size = 0 then None
  else begin
    let time = h.keys.(0) and seq = h.keys.(1) in
    let v : a = Obj.obj h.values.(0) in
    remove_min h;
    Some (time, seq, v)
  end

let min_time_exn h =
  if h.size = 0 then invalid_arg "Eheap.min_time_exn: empty heap";
  h.keys.(0)

let pop_min_exn (type a) (h : a t) =
  if h.size = 0 then invalid_arg "Eheap.pop_min_exn: empty heap";
  let v : a = Obj.obj h.values.(0) in
  remove_min h;
  v

let peek_time h = if h.size = 0 then None else Some h.keys.(0)
