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

(* Array-backed, clock-indexed per-processor interval logs.

   Intervals of one processor are appended in strictly ascending [seq]
   (every producer path guarantees it: own intervals tick the clock,
   received intervals are fresh — their seq exceeds the receiver's clock
   component, which already covers everything logged).  "Which of p's
   intervals does clock [vc] not cover?" is then a binary search for the
   first seq above [Vc.get vc p] plus a suffix walk, instead of a filter
   over a rebuilt list. *)

(* [a], or a copy with twice the capacity when its [len] slots are
   full; the spare slots hold [iv], which is about to be appended. *)
let room a len iv =
  if len < Array.length a then a
  else begin
    let b = Array.make (max 1 (2 * len)) iv in
    Array.blit a 0 b 0 len;
    b
  end

module Log = struct
  type interval = t

  (* The first [len] slots of [a] hold the intervals, oldest first. *)
  type t = { mutable a : interval array; mutable len : int }

  let create () = { a = [||]; len = 0 }

  let length l = l.len

  let get l i =
    if i < 0 || i >= l.len then invalid_arg "Interval.Log.get";
    l.a.(i)

  let append l (iv : interval) =
    if l.len > 0 && iv.seq <= l.a.(l.len - 1).seq then
      invalid_arg "Interval.Log.append: seq not ascending";
    l.a <- room l.a l.len iv;
    l.a.(l.len) <- iv;
    l.len <- l.len + 1

  let clear l =
    l.a <- [||];
    l.len <- 0

  let first_after l s =
    let lo = ref 0 and hi = ref l.len in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if l.a.(mid).seq > s then hi := mid else lo := mid + 1
    done;
    !lo

  (* Walking oldest first and prepending leaves the result newest first. *)
  let unseen_by vc ~proc l acc =
    let acc = ref acc in
    for i = first_after l (Vc.get vc proc) to l.len - 1 do
      acc := l.a.(i) :: !acc
    done;
    !acc
end

(* A cluster's intervals, stored once: writer [p]'s intervals with seqs
   [base.(p) + 1 .. base.(p) + count.(p)] are the first [count.(p)]
   slots of [ivs.(p)], oldest first.  A writer adds each interval as it
   closes it, so a writer's slots are contiguous in seq.  Node logs
   ([logs] below) read their intervals from here, and each registers its
   floor in [floors] so that the store can trim what no log can still
   contain.

   The same intervals sit a second time in the first [olen] slots of
   [order], ascending in [Vc.order]: the order every receiver applies
   them in, so a walk of it hands them out sorted.  A mark records a
   barrier's clock [mvc], which covers every interval stored when it
   was taken, and [from], the length of [order] then: every interval
   closed later has a clock at or above [mvc] with a larger sum, so it
   sorts at or after [from], and the slots below [from] keep exactly
   the intervals [mvc] covers.  [marks] holds the newest two since the
   last trim, newest first: no node can complete a barrier before every
   node has left the one before, so every clock a walk is asked for
   (a lock request, a barrier's lent clock, a last-barrier clock) covers
   the older of the two, and an older mark would only cost memory.  A
   recovery round's zero clock covers none and walks everything. *)
type store = {
  ivs : t array array;
  base : int array;
  count : int array;
  zero : Vc.t;  (* the floor of a log never purged *)
  mutable floors : Vc.t ref list;
  mutable nlogs : int;
  mutable purged : int;  (* logs purged since the last trim *)
  mutable order : t array;
  mutable olen : int;
  mutable marks : mark list;
  mutable mark_epoch : int;  (* the epoch of the newest mark ever taken *)
}

and mark = { mvc : Vc.t; from : int }

(* A node's interval logs: writer [p]'s log holds the store's seqs
   [!floor.(p) + 1 .. clock.(p)], where [clock] is the node's own clock
   and [floor] its clock at its last purge.  Every producer extends a
   window by advancing the clock (an own close ticks it, [append] sets
   it), so a log holds nothing but its floor; a crash empties windows
   by rolling the clock back to it.  [node] names the log's node in
   failures. *)
and logs = { store : store; node : int; clock : Vc.t; floor : Vc.t ref }

module Store = struct
  type interval = t

  type t = store

  let create ~nprocs =
    {
      ivs = Array.make nprocs [||];
      base = Array.make nprocs 0;
      count = Array.make nprocs 0;
      zero = Vc.zero ~nprocs;
      floors = [];
      nlogs = 0;
      purged = 0;
      order = [||];
      olen = 0;
      marks = [];
      mark_epoch = 0;
    }

  (* The first slot of [order] that sorts after [iv]. *)
  let order_slot s (iv : interval) =
    let lo = ref 0 and hi = ref s.olen in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if Vc.order s.order.(mid).vc iv.vc > 0 then hi := mid else lo := mid + 1
    done;
    !lo

  let add s (iv : interval) =
    let p = iv.proc and n = s.count.(iv.proc) in
    if iv.seq <> s.base.(p) + n + 1 then
      invalid_arg
        (Printf.sprintf "Interval.Store.add: writer %d closed seq %d after %d" p
           iv.seq (s.base.(p) + n));
    let i = order_slot s iv in
    (match s.marks with
    | m :: _ when i < m.from ->
      invalid_arg
        (Printf.sprintf
           "Interval.Store.add: writer %d's interval %d sorts below the epoch-%d \
            mark"
           p iv.seq s.mark_epoch)
    | _ -> ());
    let a = room s.ivs.(p) n iv in
    a.(n) <- iv;
    s.ivs.(p) <- a;
    s.count.(p) <- n + 1;
    let o = room s.order s.olen iv in
    Array.blit o i o (i + 1) (s.olen - i);
    o.(i) <- iv;
    s.order <- o;
    s.olen <- s.olen + 1

  let mark s ~epoch vc =
    if epoch > s.mark_epoch then begin
      Array.iteri
        (fun p n ->
          let top = s.base.(p) + n in
          if n > 0 && top > Vc.get vc p then
            invalid_arg
              (Printf.sprintf
                 "Interval.Store.mark: the epoch-%d clock lacks writer %d's \
                  interval %d"
                 epoch p top))
        s.count;
      s.mark_epoch <- epoch;
      let m = { mvc = Vc.copy vc; from = s.olen } in
      s.marks <- (match s.marks with newest :: _ -> [ m; newest ] | [] -> [ m ])
    end

  (* The newest mark [vc] covers: every slot below it holds an interval
     [vc] covers. *)
  let rec walk_from vc = function
    | [] -> 0
    | m :: older -> if Vc.leq m.mvc vc then m.from else walk_from vc older

  let holds s (iv : interval) =
    let p = iv.proc in
    let i = iv.seq - s.base.(p) - 1 in
    i >= 0 && i < s.count.(p) && s.ivs.(p).(i) == iv

  (* Writer [p]'s interval [seq], which the store holds. *)
  let get s p seq = s.ivs.(p).(seq - s.base.(p) - 1)

  let length s = Array.fold_left ( + ) 0 s.count

  (* Drop every interval at or below the lowest floor of any log: a
     window lies above its log's floor, and appends to it are fresh.
     [order] keeps the survivors in place, and the marks, whose
     positions no longer hold, go. *)
  let trim s =
    Array.iteri
      (fun p n ->
        if n > 0 then begin
          let f =
            List.fold_left (fun m l -> Int.min m (Vc.get !l p)) max_int s.floors
          in
          let k = Int.min n (f - s.base.(p)) in
          if k > 0 then begin
            s.ivs.(p) <- (if k = n then [||] else Array.sub s.ivs.(p) k (n - k));
            s.base.(p) <- s.base.(p) + k;
            s.count.(p) <- n - k
          end
        end)
      s.count;
    let kept = ref 0 in
    for i = 0 to s.olen - 1 do
      let iv = s.order.(i) in
      if iv.seq > s.base.(iv.proc) then begin
        s.order.(!kept) <- iv;
        incr kept
      end
    done;
    s.order <- Array.sub s.order 0 !kept;
    s.olen <- !kept;
    s.marks <- []

  (* Prepend (newest first) writer [p]'s seqs [lo + 1 .. hi]. *)
  let prepend s ~p ~lo ~hi acc =
    let acc = ref acc in
    for seq = lo + 1 to hi do
      acc := get s p seq :: !acc
    done;
    !acc
end

module Logs = struct
  type interval = t

  type t = logs

  let create store ~node ~clock =
    let floor = ref store.zero in
    store.floors <- floor :: store.floors;
    store.nlogs <- store.nlogs + 1;
    { store; node; clock; floor }

  let append t (iv : interval) =
    let p = iv.proc and top = Vc.get t.clock iv.proc in
    if not (iv.seq = top + 1 && Store.holds t.store iv) then
      invalid_arg
        (Printf.sprintf
           "Interval.Logs.append: writer %d seq %d breaks a window ending at %d" p
           iv.seq top);
    Vc.set t.clock p iv.seq

  let clock_of t ~page ~proc seq =
    let s = t.store in
    let i = seq - s.base.(proc) - 1 in
    if i < 0 || i >= s.count.(proc) then
      invalid_arg
        (Printf.sprintf
           "Interval.Logs.clock_of: node %d, page %d: the store does not hold \
            writer %d's interval %d"
           t.node page proc seq);
    s.ivs.(proc).(i).vc

  let unseen_of t ~proc vc acc =
    Store.prepend t.store ~p:proc
      ~lo:(Int.max (Vc.get !(t.floor) proc) (Vc.get vc proc))
      ~hi:(Vc.get t.clock proc) acc

  (* The store's [order] from the newest mark [vc] covers, walked
     newest first and prepended, so the result comes out in apply
     order. *)
  let unseen_by t vc =
    let s = t.store and floor = !(t.floor) in
    let acc = ref [] in
    for i = s.olen - 1 downto Store.walk_from vc s.marks do
      let iv = s.order.(i) in
      let p = iv.proc in
      if
        iv.seq > Vc.get vc p
        && iv.seq <= Vc.get t.clock p
        && iv.seq > Vc.get floor p
      then acc := iv :: !acc
    done;
    !acc

  let rollback t ~keep =
    let own = Vc.get t.clock keep in
    Vc.blit_into ~src:!(t.floor) ~dst:t.clock;
    Vc.set t.clock keep own

  let clear t =
    t.floor := Vc.copy t.clock;
    let s = t.store in
    s.purged <- s.purged + 1;
    if s.purged >= s.nlogs then begin
      s.purged <- 0;
      Store.trim s
    end
end

let pp ppf t =
  Format.fprintf ppf "ival(p%d #%d %a [%d notices])" t.proc t.seq Vc.pp t.vc
    (List.length t.notices)
