type t = {
  proc : int;
  seq : int;
  vc : Vc.t;
  notices : Notice.t list;
  mutable wn_bytes : int;
      (* cached [Notice.size_bytes] total, -1 until first sized: the
         notice list is immutable, and an interval is sized once per
         receiver it is relayed to — without the cache, accounting walks
         every relayed notice again on every hop *)
}

let make ~proc ~vc ~notices =
  { proc; seq = Vc.get vc proc; vc; notices; wn_bytes = -1 }

let size_bytes ?(vc_bytes = Vc.size_bytes) t =
  if t.wn_bytes < 0 then
    t.wn_bytes <-
      List.fold_left (fun acc n -> acc + Notice.size_bytes n) 0 t.notices;
  8 + vc_bytes t.vc + t.wn_bytes

let size_bytes_list ?vc_bytes ts =
  List.fold_left (fun acc t -> acc + size_bytes ?vc_bytes t) 0 ts

let unseen_by vc ts = List.filter (fun t -> t.seq > Vc.get vc t.proc) ts

(* Array-backed, clock-indexed per-processor interval log.

   Intervals of one processor are appended in strictly ascending [seq]
   (every producer path guarantees it: own intervals tick the clock,
   received intervals are fresh — their seq exceeds the receiver's clock
   component, which already covers everything logged).  "Which of p's
   intervals does clock [vc] not cover?" is then a binary search for the
   first seq above [Vc.get vc p] plus a suffix walk, instead of a filter
   over a rebuilt list.  GC and crash truncation reset [len] in place;
   the capacity is kept so steady-state logging stops allocating. *)
module Log = struct
  type interval = t

  type t = { mutable a : interval array; mutable len : int; mutable sorted : bool }

  (* Shared placeholder for vacated slots (releases the interval refs). *)
  let dummy =
    { proc = -1; seq = 0; vc = Vc.zero ~nprocs:1; notices = []; wn_bytes = 0 }

  let create () = { a = [||]; len = 0; sorted = true }

  let length l = l.len

  let get l i =
    if i < 0 || i >= l.len then invalid_arg "Interval.Log.get";
    l.a.(i)

  let append l (iv : interval) =
    (* Every healthy producer appends ascending.  Seeded recovery
       mutations ([Stale_vc_after_restart]) reissue sequence numbers on
       purpose; the log then degrades to the historical linear-filter
       behavior instead of misindexing (or refusing) the duplicates. *)
    if l.len > 0 && iv.seq <= l.a.(l.len - 1).seq then l.sorted <- false;
    if l.len = Array.length l.a then begin
      let a = Array.make (max 8 (2 * l.len)) dummy in
      Array.blit l.a 0 a 0 l.len;
      l.a <- a
    end;
    l.a.(l.len) <- iv;
    l.len <- l.len + 1

  let clear l =
    Array.fill l.a 0 l.len dummy;
    l.len <- 0;
    l.sorted <- true

  (* Index of the first logged interval with [seq > s] (= [len] if
     none): binary search over the ascending seqs, linear scan on a log
     that lost its sortedness. *)
  let first_after l s =
    if l.sorted then begin
      let lo = ref 0 and hi = ref l.len in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if l.a.(mid).seq > s then hi := mid else lo := mid + 1
      done;
      !lo
    end
    else begin
      let i = ref 0 in
      while !i < l.len && l.a.(!i).seq <= s do incr i done;
      !i
    end

  (* Prepend (newest first) every interval [vc] does not cover onto
     [acc].  [proc] is the log's owner — the search key is the sender's
     own clock component.  Appends are oldest-first, so the ascending
     walk prepends into the newest-first orientation the old list
     representation produced. *)
  let unseen_by vc ~proc l acc =
    let s = Vc.get vc proc in
    let acc = ref acc in
    if l.sorted then
      for i = first_after l s to l.len - 1 do
        acc := l.a.(i) :: !acc
      done
    else
      (* Element-for-element what [List.filter] did on the old
         newest-first list. *)
      for i = 0 to l.len - 1 do
        if l.a.(i).seq > s then acc := l.a.(i) :: !acc
      done;
    !acc
end

let pp ppf t =
  Format.fprintf ppf "ival(p%d #%d %a [%d notices])" t.proc t.seq Vc.pp t.vc
    (List.length t.notices)
