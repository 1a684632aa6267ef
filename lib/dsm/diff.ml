module Page = Adsm_mem.Page

(* A diff is its TreadMarks wire encoding, held in one buffer: run after
   run, a 2-byte offset and a 2-byte length (both in bytes) and then the
   run's words.  Offsets strictly increase and runs never touch (an equal
   word separates any two), so the encoding is canonical: equal diffs
   have equal buffers.  A stored diff costs what it weighs on the wire
   plus one small record; the run count is cached beside the buffer,
   and the modified bytes follow from it — [Stats.diff_created], message
   sizing and the protocol cost model query both on every diff.  The
   header fields use the native 16-bit primitives, which are
   little-endian: [Page] refuses any other host. *)
type t = { enc : Bytes.t; runs : int }

let empty = { enc = Bytes.empty; runs = 0 }

let run_header_bytes = 4 (* 2-byte offset + 2-byte length *)

(* Modifications are detected at 32-bit word granularity, as in TreadMarks:
   a word with any differing byte contributes all four bytes to the diff.
   This is what makes a page of small counter updates diff at nearly the
   full page size (the paper's IS behaviour). *)
let word = 4

(* A page with [m] modified words has at most [min m (1025 - m)] runs,
   so no encoding exceeds one run over the whole page. *)
let max_bytes = run_header_bytes + Page.size

external get16u : Bytes.t -> int -> int = "%caml_bytes_get16u"

external set16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* Runs of at most this many bytes move word by word; longer ones take
   one [Bytes.blit], whose call costs more than a few word moves. *)
let short_run = 32

(* Copy [len] bytes (a multiple of [word]) from [src] at [spos] to [dst]
   at [dpos].  Every caller's indices lie within both buffers by
   construction, so the unchecked primitives are safe. *)
let[@inline] move src spos dst dpos len =
  if len <= short_run then begin
    let i = ref 0 in
    while !i < len do
      set32u dst (dpos + !i) (get32u src (spos + !i));
      i := !i + word
    done
  end
  else Bytes.blit src spos dst dpos len

(* The page scan compares 64 bits at a time and decides run boundaries
   one 32-bit word at a time, so the runs are exactly those of a
   word-at-a-time scan.  [xor] of the pair at even word [w] is zero when
   both words are equal; on a little-endian host word [w] is its low
   half and [w + 1] its high half.  Only equality of same-offset words is
   ever tested, and [=] at the known type [int64] compiles to an unboxed
   register compare (comparing boxed values would go through a C call);
   the indices are bounded by the page size by construction, so the
   unchecked loads are safe. *)
let[@inline] xor a b w = Int64.logxor (get64u a (w * word)) (get64u b (w * word))

let[@inline] low_differs x = Int64.to_int x land 0xFFFF_FFFF <> 0

let[@inline] high_differs x = (Int64.shift_right_logical x 32 : int64) <> 0L

(* First differing word at or after even word [w], or [n] ([n] even). *)
let rec next_diff a b w n =
  if w >= n then n
  else
    let x = xor a b w in
    if (x : int64) = 0L then next_diff a b (w + 2) n
    else if low_differs x then w
    else w + 1

(* First equal word at or after even word [w], every word before [w] in
   the run differing, or [n] if the run reaches the end. *)
let rec run_end a b w n =
  if w >= n then n
  else
    let x = xor a b w in
    if not (low_differs x) then w
    else if not (high_differs x) then w + 1
    else run_end a b (w + 2) n

(* Reusable per-caller working space for [create]: the scan encodes into
   it in a single pass, then copies out the exact-sized buffer.  NOT
   thread-safe — simulations running in separate domains (the [Pool]
   workers) must each use their own scratch; the DSM runtime keeps one
   per cluster. *)
type scratch = Bytes.t

let make_scratch () = Bytes.create max_bytes

let create ?scratch ~twin ~current () =
  let s = match scratch with Some s -> s | None -> make_scratch () in
  let a = Page.raw twin and b = Page.raw current in
  let n = Page.size / word in
  let runs = ref 0 and pos = ref 0 in
  let w = ref (next_diff a b 0 n) in
  while !w < n do
    let start = !w in
    (* An even [start] is the low half of its pair, known to differ; an
       odd one is a high half, so the run goes on from the next pair. *)
    let stop = run_end a b ((start + 1) land lnot 1) n in
    let off = start * word and len = (stop - start) * word in
    set16u s !pos off;
    set16u s (!pos + 2) len;
    move b off s (!pos + run_header_bytes) len;
    pos := !pos + run_header_bytes + len;
    incr runs;
    w := next_diff a b ((stop + 1) land lnot 1) n
  done;
  if !runs = 0 then empty else { enc = Bytes.sub s 0 !pos; runs = !runs }

(* [apply] and [ranges] walk the run headers. *)
let apply t page =
  let raw = Page.raw page and enc = t.enc in
  let pos = ref 0 in
  for _ = 1 to t.runs do
    let off = get16u enc !pos and len = get16u enc (!pos + 2) in
    move enc (!pos + run_header_bytes) raw off len;
    pos := !pos + run_header_bytes + len
  done

let size_bytes t = Bytes.length t.enc

let is_empty t = t.runs = 0

let run_count t = t.runs

let modified_bytes t = Bytes.length t.enc - (run_header_bytes * t.runs)

let ranges t =
  let rec go pos k acc =
    if k = 0 then List.rev acc
    else
      let off = get16u t.enc pos and len = get16u t.enc (pos + 2) in
      go (pos + run_header_bytes + len) (k - 1) ((off, len) :: acc)
  in
  go 0 t.runs []

let pp ppf t =
  Format.fprintf ppf "diff[%d runs, %d bytes]" (run_count t) (modified_bytes t)

let of_ranges ranges page =
  (* Build a diff directly from logged write ranges (software write
     detection): coalesce and word-align the ranges, then capture the
     current contents.  No twin or page scan is needed. *)
  match ranges with
  | [] -> empty
  | _ ->
    let aligned =
      List.map
        (fun (off, len) ->
          let start = off / word * word in
          let stop = (off + len + word - 1) / word * word in
          (start, min Page.size stop))
        ranges
    in
    let sorted =
      List.sort
        (fun ((s1 : int), (e1 : int)) (s2, e2) ->
          if s1 <> s2 then Int.compare s1 s2 else Int.compare e1 e2)
        aligned
    in
    (* Single linear merge pass over the sorted ranges: a range starting
       at or before the previous stop extends it (adjacent ranges
       coalesce too), so runs never touch, as in a scanned diff. *)
    let merged =
      List.fold_left
        (fun acc (start, stop) ->
          match acc with
          | (s, e) :: rest when start <= e -> (s, max e stop) :: rest
          | _ -> (start, stop) :: acc)
        [] sorted
    in
    let runs = List.length merged in
    let enc =
      Bytes.create
        (List.fold_left
           (fun acc (s, e) -> acc + run_header_bytes + e - s)
           0 merged)
    in
    let raw = Page.raw page in
    ignore
      (List.fold_left
         (fun pos (start, stop) ->
           let len = stop - start in
           set16u enc pos start;
           set16u enc (pos + 2) len;
           move raw start enc (pos + run_header_bytes) len;
           pos + run_header_bytes + len)
         0 (List.rev merged));
    { enc; runs }
