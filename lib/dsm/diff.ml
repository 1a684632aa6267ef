module Page = Adsm_mem.Page

(* Flat representation: run [i] covers [offs.(i) .. offs.(i) + lens.(i)),
   offsets strictly increasing, with every run's data concatenated in one
   [payload] buffer — three allocations per diff however many runs it
   has (a fine-grained diff of alternate words has hundreds, and a
   per-run [Bytes.sub] dominated diff creation).  The encoded size and
   modified byte count are computed once at construction —
   [Stats.diff_created], message sizing and the protocol cost model all
   query them on every diff. *)
type t = {
  offs : int array;
  lens : int array;
  payload : Bytes.t;  (* run data, concatenated in run order *)
  size_bytes : int;  (* run headers + payload *)
  modified_bytes : int;  (* payload only *)
}

let empty =
  {
    offs = [||];
    lens = [||];
    payload = Bytes.empty;
    size_bytes = 0;
    modified_bytes = 0;
  }

let run_header_bytes = 4 (* 2-byte offset + 2-byte length *)

(* Modifications are detected at 32-bit word granularity, as in TreadMarks:
   a word with any differing byte contributes all four bytes to the diff.
   This is what makes a page of small counter updates diff at nearly the
   full page size (the paper's IS behaviour). *)
let word = 4

let of_runs ~nruns ~modified_words offs lens payload =
  let modified_bytes = modified_words * word in
  {
    offs;
    lens;
    payload;
    size_bytes = (nruns * run_header_bytes) + modified_bytes;
    modified_bytes;
  }

(* The page scan skips equal words eight bytes at a time and decides run
   boundaries one 32-bit word at a time.  It avoids [Int32.equal] and
   [Int64.equal]: comparing boxed [int32]/[int64] values goes through a C
   call, which dominated the scan, while [Int32.to_int] is a compiler
   primitive and [=] at the known type [int64] compiles to an unboxed
   register compare.  Only *equality* of same-offset words is ever
   tested, so native-endian loads are fine on any architecture, and the
   indices are bounded by the page size by construction, so the
   unchecked primitives are safe. *)

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"

external set32u : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32u"

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let word_equal a b w =
  Int32.to_int (get32u a (w * word)) = Int32.to_int (get32u b (w * word))

(* Words [w] and [w + 1] are both equal ([w] even). *)
let pair_equal a b w = (get64u a (w * word) : int64) = get64u b (w * word)

(* First differing word index >= [w0], or [n] if none ([n] even).  [w0]
   is 0 or the end of a run, whose word is equal, so the scan may start
   at the even word that rounds it up. *)
let[@inline] next_diff a b w0 n =
  let w = ref ((w0 + 1) land lnot 1) in
  while !w < n && pair_equal a b !w do
    w := !w + 2
  done;
  if !w < n && word_equal a b !w then !w + 1 else !w

(* Copy the run of differing words starting at [w0] from [b] into
   [payload] at byte [pos]; return the first equal word index (the end of
   the run), or [n] if none. *)
let[@inline] copy_run a b w0 n payload pos =
  let w = ref w0 in
  while !w < n && not (word_equal a b !w) do
    set32u payload (pos + ((!w - w0) * word)) (get32u b (!w * word));
    incr w
  done;
  !w

(* Reusable per-caller working space for [create]: the scan writes run
   boundaries and payload here in a single pass, then copies out
   exact-sized arrays.  A page of [w] modified words has at most
   [(w+1)/2 <= 512] runs.  NOT thread-safe — simulations running in
   separate domains (the [Pool] workers) must each use their own
   scratch; the DSM runtime keeps one per cluster. *)
type scratch = {
  s_offs : int array;
  s_lens : int array;
  s_payload : Bytes.t;
}

let make_scratch () =
  {
    s_offs = Array.make 512 0;
    s_lens = Array.make 512 0;
    s_payload = Bytes.create Page.size;
  }

let create ?scratch ~twin ~current () =
  let s = match scratch with Some s -> s | None -> make_scratch () in
  let a = Page.raw twin and b = Page.raw current in
  let n = Page.size / word in
  let nruns = ref 0 and pos = ref 0 in
  let w = ref (next_diff a b 0 n) in
  while !w < n do
    let stop = copy_run a b !w n s.s_payload !pos in
    let len = (stop - !w) * word in
    s.s_offs.(!nruns) <- !w * word;
    s.s_lens.(!nruns) <- len;
    pos := !pos + len;
    incr nruns;
    w := next_diff a b stop n
  done;
  if !nruns = 0 then empty
  else
    of_runs ~nruns:!nruns ~modified_words:(!pos / word)
      (Int_array.sub s.s_offs 0 !nruns)
      (Int_array.sub s.s_lens 0 !nruns)
      (Bytes.sub s.s_payload 0 !pos)

let apply t page =
  let raw = Page.raw page in
  let pos = ref 0 in
  for i = 0 to Array.length t.offs - 1 do
    let len = t.lens.(i) in
    Bytes.blit t.payload !pos raw t.offs.(i) len;
    pos := !pos + len
  done

let size_bytes t = t.size_bytes

let is_empty t = Array.length t.offs = 0

let run_count t = Array.length t.offs

let modified_bytes t = t.modified_bytes

let ranges t =
  Array.to_list (Array.mapi (fun i off -> (off, t.lens.(i))) t.offs)

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
       coalesce too). *)
    let max_runs = List.length sorted in
    let starts = Array.make max_runs 0 and stops = Array.make max_runs 0 in
    let count = ref 0 in
    List.iter
      (fun (start, stop) ->
        if !count > 0 && start <= stops.(!count - 1) then begin
          if stop > stops.(!count - 1) then stops.(!count - 1) <- stop
        end
        else begin
          starts.(!count) <- start;
          stops.(!count) <- stop;
          incr count
        end)
      sorted;
    let raw = Page.raw page in
    let nruns = !count in
    let offs = Int_array.sub starts 0 nruns in
    let lens = Array.init nruns (fun i -> stops.(i) - starts.(i)) in
    let modified_bytes = Array.fold_left ( + ) 0 lens in
    let payload = Bytes.create modified_bytes in
    let pos = ref 0 in
    for i = 0 to nruns - 1 do
      Bytes.blit raw offs.(i) payload !pos lens.(i);
      pos := !pos + lens.(i)
    done;
    of_runs ~nruns ~modified_words:(modified_bytes / word) offs lens payload
