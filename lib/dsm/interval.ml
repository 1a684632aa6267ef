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

(* Array-backed, clock-indexed per-processor interval logs.

   Intervals of one processor are appended in strictly ascending [seq]
   (every producer path guarantees it: own intervals tick the clock,
   received intervals are fresh — their seq exceeds the receiver's clock
   component, which already covers everything logged).  "Which of p's
   intervals does clock [vc] not cover?" is then a binary search for the
   first seq above [Vc.get vc p] plus a suffix walk, instead of a filter
   over a rebuilt list.

   A log is a storage array whose first [len] slots hold the intervals,
   oldest first, plus a flag for a log that lost its ascending order.
   Every healthy producer appends ascending.  Seeded recovery mutations
   ([Stale_vc_after_restart]) reissue sequence numbers on purpose; the
   log then degrades to the historical linear-filter behavior instead of
   misindexing (or refusing) the duplicates.  The functions below serve
   both [Log], which keeps the three in a record, and [Logs], which
   keeps them in per-writer arrays. *)

(* [a], or a copy with twice the capacity when its [len] slots are
   full; the spare slots hold [iv], which is about to be appended. *)
let room a len iv =
  if len < Array.length a then a
  else begin
    let b = Array.make (max 1 (2 * len)) iv in
    Array.blit a 0 b 0 len;
    b
  end

(* Index of the first logged interval with [seq > s] (= [len] if
   none): binary search over the ascending seqs, linear scan on a log
   that lost its sortedness. *)
let first_after_in a len ~sorted s =
  if sorted then begin
    let lo = ref 0 and hi = ref len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid).seq > s then hi := mid else lo := mid + 1
    done;
    !lo
  end
  else begin
    let i = ref 0 in
    while !i < len && a.(!i).seq <= s do incr i done;
    !i
  end

(* Prepend (newest first) every interval [vc] does not cover onto
   [acc].  [proc] is the log's owner — the search key is the sender's
   own clock component.  Appends are oldest-first, so the ascending
   walk prepends into the newest-first orientation the old list
   representation produced. *)
let unseen_in vc ~proc a len ~sorted acc =
  let s = Vc.get vc proc in
  let acc = ref acc in
  if sorted then
    for i = first_after_in a len ~sorted s to len - 1 do
      acc := a.(i) :: !acc
    done
  else
    (* Element-for-element what [List.filter] did on the old
       newest-first list. *)
    for i = 0 to len - 1 do
      if a.(i).seq > s then acc := a.(i) :: !acc
    done;
  !acc

module Log = struct
  type interval = t

  type t = { mutable a : interval array; mutable len : int; mutable sorted : bool }

  let create () = { a = [||]; len = 0; sorted = true }

  let length l = l.len

  let get l i =
    if i < 0 || i >= l.len then invalid_arg "Interval.Log.get";
    l.a.(i)

  let append l (iv : interval) =
    if l.len > 0 && iv.seq <= l.a.(l.len - 1).seq then l.sorted <- false;
    l.a <- room l.a l.len iv;
    l.a.(l.len) <- iv;
    l.len <- l.len + 1

  let clear l =
    l.a <- [||];
    l.len <- 0;
    l.sorted <- true

  let first_after l s = first_after_in l.a l.len ~sorted:l.sorted s

  let unseen_by vc ~proc l acc = unseen_in vc ~proc l.a l.len ~sorted:l.sorted acc
end

(* A node's interval logs, indexed by writer id: writer [p]'s intervals
   are the first [lens.(p)] slots of [logs.(p)].  The index grows only
   as far as the highest writer id seen, storage is allocated on a
   writer's first append and released when its log is emptied, and
   [live] lists the writers whose log is non-empty, so walks, GC and
   crash truncation touch only those.  Node set-up allocates no log, and
   a barrier costs O(writers) per node, not O(nprocs). *)
module Logs = struct
  type interval = t

  type t = {
    nprocs : int;
    mutable logs : interval array array;
    mutable lens : int array;
    mutable unsorted : int list;  (* writers whose log lost ascending order *)
    mutable live : int array;  (* [nlive] writers with a non-empty log *)
    mutable nlive : int;
    mutable live_sorted : bool;  (* [live] ascending *)
  }

  let create ~nprocs =
    {
      nprocs;
      logs = [||];
      lens = [||];
      unsorted = [];
      live = [||];
      nlive = 0;
      live_sorted = true;
    }

  let add_live t p =
    if t.nlive = Array.length t.live then begin
      let a = Array.make (max 8 (2 * t.nlive)) 0 in
      Int_array.blit t.live 0 a 0 t.nlive;
      t.live <- a
    end;
    if t.nlive > 0 && t.live.(t.nlive - 1) > p then t.live_sorted <- false;
    t.live.(t.nlive) <- p;
    t.nlive <- t.nlive + 1

  let sorted t p = t.unsorted = [] || not (List.mem p t.unsorted)

  let append t (iv : interval) =
    let p = iv.proc in
    let n = Array.length t.logs in
    if p >= n then begin
      let n' = min t.nprocs (max (p + 1) (2 * n)) in
      let logs = Array.make n' [||] and lens = Array.make n' 0 in
      Array.blit t.logs 0 logs 0 n;
      Int_array.blit t.lens 0 lens 0 n;
      t.logs <- logs;
      t.lens <- lens
    end;
    let a = t.logs.(p) and len = t.lens.(p) in
    if len = 0 then add_live t p
    else if iv.seq <= a.(len - 1).seq && sorted t p then
      t.unsorted <- p :: t.unsorted;
    let a' = room a len iv in
    if a' != a then t.logs.(p) <- a';
    a'.(len) <- iv;
    t.lens.(p) <- len + 1

  let unseen_of t ~proc vc acc =
    if proc < Array.length t.logs then
      unseen_in vc ~proc t.logs.(proc) t.lens.(proc) ~sorted:(sorted t proc) acc
    else acc

  let sort_live t =
    if not t.live_sorted then begin
      let a = Int_array.sub t.live 0 t.nlive in
      Array.sort Int.compare a;
      Int_array.blit a 0 t.live 0 t.nlive;
      t.live_sorted <- true
    end

  (* Live writers are walked from the highest id down, so the result
     lists writer 0's intervals first, each log newest first.  Consumers
     sort by [Vc.order], and that sort is cheapest on this order. *)
  let unseen_by t vc acc =
    sort_live t;
    let acc = ref acc in
    for i = t.nlive - 1 downto 0 do
      acc := unseen_of t ~proc:t.live.(i) vc !acc
    done;
    !acc

  let clear_except t ~keep =
    let kept = ref false in
    for i = 0 to t.nlive - 1 do
      let p = t.live.(i) in
      if p = keep then kept := true
      else begin
        t.logs.(p) <- [||];
        t.lens.(p) <- 0
      end
    done;
    t.nlive <- 0;
    t.live_sorted <- true;
    t.unsorted <- List.filter (Int.equal keep) t.unsorted;
    if !kept then add_live t keep

  let clear t = clear_except t ~keep:(-1)
end

let pp ppf t =
  Format.fprintf ppf "ival(p%d #%d %a [%d notices])" t.proc t.seq Vc.pp t.vc
    (List.length t.notices)
