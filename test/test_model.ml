(* Randomized model tests for the large-n data structures.

   The summarized vector clock (cached sum, epoch-stamped snapshots,
   per-epoch delta cache), the array-backed interval log, the
   writer-indexed logs, the writer maps and the last-notice map's
   dominating-slot summary all exist to skip dense rescans; correctness means every observable agrees with the naive
   implementation they replaced.
   Seeded op sequences drive the real structure and a naive reference
   through the same mutations — honoring the documented preconditions
   (stamp a just-taken snapshot, equal components per epoch stamp,
   strictly ascending log appends) — and compare every query.  The
   page-diff scan, which skips equal words eight bytes at a time, is
   checked the same way against a word-at-a-time scan, and its encoding
   against the logged-range encoder. *)

module Vc = Adsm_dsm.Vc
module Interval = Adsm_dsm.Interval
module Notice = Adsm_dsm.Notice
module State = Adsm_dsm.State
module Config = Adsm_dsm.Config
module Diff = Adsm_dsm.Diff
module Page = Adsm_mem.Page

(* ------------------------------------------------------------------ *)
(* Naive vector-clock reference: a plain int array, rescanned fully    *)
(* ------------------------------------------------------------------ *)

let nnodes = 5

let nsum = Array.fold_left ( + ) 0

let nleq a b =
  let ok = ref true in
  Array.iteri (fun i av -> if av > b.(i) then ok := false) a;
  !ok

(* Historical total order: dominated-first, concurrent clocks broken by
   (sum, lexicographic) — which collapses to (sum, lexicographic). *)
let norder a b =
  let c = Int.compare (nsum a) (nsum b) in
  if c <> 0 then c
  else
    let rec go i =
      if i = Array.length a then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

let ndelta ~since a =
  let changed = ref 0 in
  Array.iteri (fun i av -> if av <> since.(i) then incr changed) a;
  8 + (8 * !changed)

let sign c = compare c 0

let check_pair step i j vc nv vc' nv' =
  let name fmt = Printf.sprintf "step %d, clocks (%d,%d): %s" step i j fmt in
  if Vc.leq vc vc' <> nleq nv nv' then Alcotest.fail (name "leq");
  if Vc.leq vc' vc <> nleq nv' nv then Alcotest.fail (name "leq (flipped)");
  if Vc.equal vc vc' <> (nv = nv') then Alcotest.fail (name "equal");
  if Vc.concurrent vc vc' <> ((not (nleq nv nv')) && not (nleq nv' nv)) then
    Alcotest.fail (name "concurrent");
  if sign (Vc.order vc vc') <> sign (norder nv nv') then
    Alcotest.fail (name "order sign");
  if Vc.order vc vc' = 0 && nv <> nv' then Alcotest.fail (name "order zero")

let check_node step i vc nv ~ver =
  let width = Array.length nv in
  let name fmt = Printf.sprintf "step %d, clock %d: %s" step i fmt in
  for p = 0 to width - 1 do
    if Vc.get vc p <> nv.(p) then
      Alcotest.failf "%s" (name (Printf.sprintf "component %d" p))
  done;
  if Vc.sum vc <> nsum nv then Alcotest.fail (name "sum");
  if Vc.version vc <> ver then Alcotest.fail (name "version");
  if Vc.size_bytes vc <> 4 * width then Alcotest.fail (name "size_bytes")

(* [promote]: run a full major collection before the ops and every 50
   steps, so that [blit_into] and [copy] also work on promoted clocks —
   narrow clocks start in the minor heap, clocks over 256 words are
   allocated in the major heap directly.

   Barriers go through [Vc.Epoch], the cluster-level publish/adopt path
   of [Sync.barrier]: every clock must end on the published base, except
   one a perturbed barrier ticks just before adoption, which must keep a
   base of its own (and count as a mismatch).  Clocks start on the
   shared zero base or on a base of their own, alternately.  After every
   step each base published so far must still hold its components: a
   shared base is never written. *)
let vc_model ~width ~seeds ~steps ~promote =
  for seed = 0 to seeds - 1 do
    let rs = Random.State.make [| 0xADC0; seed |] in
    let es = Vc.Epoch.create ~nprocs:width in
    let vcs =
      Array.init nnodes (fun i ->
          if i mod 2 = 0 then Vc.Epoch.zero es else Vc.zero ~nprocs:width)
    in
    let published = ref [] in
    let nvs = Array.init nnodes (fun _ -> Array.make width 0) in
    (* Expected [Vc.version]: bumped by every content change and by
       every [blit_into], restarted at 0 by [copy]. *)
    let vers = Array.make nnodes 0 in
    let bump i changed = if changed then vers.(i) <- vers.(i) + 1 in
    (* Pool of epoch snapshots; delta queries pair every clock with
       every snapshot, so counts cached against one node's snapshot are
       reused against another node's snapshot of the same epoch. *)
    let bases = ref [ (Vc.zero ~nprocs:width, Array.make width 0) ] in
    let push_base b nb =
      bases :=
        (b, nb)
        :: (if List.length !bases > 8 then List.filteri (fun k _ -> k < 7) !bases
            else !bases)
    in
    let epoch = ref 0 and stamp = ref 0 in
    for step = 1 to steps do
      if promote && step mod 50 = 1 then Gc.full_major ();
      let i = Random.State.int rs nnodes in
      let j = Random.State.int rs nnodes in
      (match Random.State.int rs 13 with
      | 0 | 1 ->
        (* set: usually a bump, occasionally a decrease (the API is
           generic even though the protocol only ever moves forward) *)
        let p = Random.State.int rs width in
        let cur = nvs.(i).(p) in
        let v =
          if Random.State.int rs 10 = 0 then max 0 (cur - Random.State.int rs 3)
          else cur + 1 + Random.State.int rs 4
        in
        Vc.set vcs.(i) p v;
        bump i (v <> cur);
        nvs.(i).(p) <- v
      | 2 | 3 | 4 ->
        let p = Random.State.int rs width in
        Vc.tick vcs.(i) ~proc:p;
        bump i true;
        nvs.(i).(p) <- nvs.(i).(p) + 1
      | 5 | 6 ->
        Vc.merge_into vcs.(i) vcs.(j);
        bump i (not (nleq nvs.(j) nvs.(i)));
        Array.iteri (fun p v -> nvs.(i).(p) <- max nvs.(i).(p) v) nvs.(j)
      | 7 ->
        Vc.min_into vcs.(i) vcs.(j);
        bump i (not (nleq nvs.(i) nvs.(j)));
        Array.iteri (fun p v -> nvs.(i).(p) <- min nvs.(i).(p) v) nvs.(j)
      | 8 ->
        Vc.blit_into ~src:vcs.(j) ~dst:vcs.(i);
        bump i true;
        Array.blit nvs.(j) 0 nvs.(i) 0 width
      | 9 ->
        vcs.(i) <- Vc.copy vcs.(j);
        vers.(i) <- 0;
        nvs.(i) <- Array.copy nvs.(j)
      | 10 -> (
        (* mutate a pooled snapshot after stamping, as crash rollback
           does to [last_barrier_vc]: its stamp must lapse, or counts
           cached against its epoch would be served against it *)
        let pool = Array.of_list !bases in
        let bvc, bnv = pool.(Random.State.int rs (Array.length pool)) in
        match Random.State.int rs 3 with
        | 0 ->
          let p = Random.State.int rs width in
          let v = bnv.(p) + 1 + Random.State.int rs 3 in
          Vc.set bvc p v;
          bnv.(p) <- v
        | 1 ->
          Vc.merge_into bvc vcs.(j);
          Array.iteri (fun p v -> bnv.(p) <- max bnv.(p) v) nvs.(j)
        | _ ->
          Vc.blit_into ~src:vcs.(j) ~dst:bvc;
          Array.blit nvs.(j) 0 bnv 0 width)
      | step_kind ->
        (* barrier: every clock becomes the global supremum, leaves
           through the shared-base path and takes an epoch-stamped
           snapshot — the one legitimate way to stamp the same epoch on
           every node.  Kind 12 perturbs one clock other than the first
           to leave (which publishes) just before adoption. *)
        let sup = Vc.copy vcs.(0) in
        Array.iter (fun vc -> Vc.merge_into sup vc) vcs;
        let nsup = Array.make width 0 in
        Array.iter
          (fun nv -> Array.iteri (fun p v -> nsup.(p) <- max nsup.(p) v) nv)
          nvs;
        Array.iteri
          (fun k vc ->
            Vc.blit_into ~src:sup ~dst:vc;
            bump k true;
            Array.blit nsup 0 nvs.(k) 0 width)
          vcs;
        let perturbed =
          if step_kind = 12 then begin
            let k = 1 + Random.State.int rs (nnodes - 1) in
            let p = Random.State.int rs width in
            Vc.tick vcs.(k) ~proc:p;
            bump k true;
            nvs.(k).(p) <- nvs.(k).(p) + 1;
            k
          end
          else -1
        in
        incr epoch;
        Array.iteri
          (fun k vc ->
            match Vc.Epoch.leave es ~epoch:!epoch vc with
            | () ->
              if k = perturbed then
                Alcotest.failf "step %d: clock %d left with a differing \
                                clock" step k
            | exception Failure _ when k = perturbed -> ())
          vcs;
        Array.iteri
          (fun k vc ->
            if Vc.Epoch.adopted es vc <> (k <> perturbed) then
              Alcotest.failf "step %d: clock %d %s the published base" step k
                (if k = perturbed then "adopted" else "did not adopt"))
          vcs;
        published := (Vc.Epoch.base es, Array.copy nsup) :: !published;
        (* Snapshots stamped with one number must be equal: the
           perturbed clock's gets a number of its own. *)
        stamp := !stamp + 2;
        Array.iteri
          (fun k vc ->
            let b = Vc.copy vc in
            Vc.rebase ~epoch:(if k = perturbed then !stamp + 1 else !stamp) vc
              ~base:b;
            push_base b (Array.copy nvs.(k)))
          vcs);
      List.iteri
        (fun k (b, nb) ->
          Array.iteri
            (fun p v ->
              if Vc.get b p <> v then
                Alcotest.failf "step %d: published base %d, component %d \
                                changed" step k p)
            nb)
        !published;
      for a = 0 to nnodes - 1 do
        check_node step a vcs.(a) nvs.(a) ~ver:vers.(a);
        for b = 0 to nnodes - 1 do
          check_pair step a b vcs.(a) nvs.(a) vcs.(b) nvs.(b)
        done;
        (* delta against another live clock (cold path) *)
        let d = Vc.delta_size_bytes ~since:vcs.(j) vcs.(a) in
        if d <> ndelta ~since:nvs.(j) nvs.(a) then
          Alcotest.failf "step %d: delta clock %d since clock %d" step a j;
        (* delta against pooled snapshots (cached per epoch while the
           snapshot's stamp holds, scanned once it has lapsed) *)
        List.iteri
          (fun k (bvc, bnv) ->
            let d = Vc.delta_size_bytes ~since:bvc vcs.(a) in
            if d <> ndelta ~since:bnv nvs.(a) then
              Alcotest.failf "step %d: delta clock %d since base %d" step a k)
          !bases
      done
    done
  done

let test_vc_model () = vc_model ~width:16 ~seeds:10 ~steps:300 ~promote:false

(* [rebase]'s precondition (the clock equals its base) is checked. *)
let test_vc_rebase_guard () =
  let vc = Vc.zero ~nprocs:4 in
  let base = Vc.copy vc in
  Vc.rebase ~epoch:0 vc ~base;
  Vc.tick vc ~proc:2;
  Alcotest.check_raises "differing base"
    (Invalid_argument "Vc.rebase: clock differs from base") (fun () ->
      Vc.rebase ~epoch:1 vc ~base)

let test_vc_wide () =
  List.iter
    (fun width -> vc_model ~width ~seeds:3 ~steps:200 ~promote:true)
    [ 3; 8; 257; 1024 ]

(* ------------------------------------------------------------------ *)
(* Naive interval-log reference: a plain list, filtered fully          *)
(* ------------------------------------------------------------------ *)

let owner = 1

let make_iv seq =
  let vc = Vc.zero ~nprocs:4 in
  Vc.set vc owner seq;
  Interval.make ~proc:owner ~vc ~notices:[]

let seqs = List.map (fun (iv : Interval.t) -> iv.Interval.seq)

let test_log_model () =
  for seed = 0 to 9 do
    let rs = Random.State.make [| 0x106; seed |] in
    let log = Interval.Log.create () in
    let naive = ref [] (* oldest first, like the log's index order *) in
    let last_seq = ref 0 in
    for step = 1 to 400 do
      (match Random.State.int rs 8 with
      | 0 ->
        (* GC/crash truncation: drop everything, keep appending above
           the old seqs (the protocol never reuses a sequence number) *)
        Interval.Log.clear log;
        naive := []
      | 1 | 2 | 3 | 4 | 5 ->
        (* strictly ascending appends, with gaps *)
        let seq = !last_seq + 1 + Random.State.int rs 3 in
        last_seq := seq;
        let iv = make_iv seq in
        Interval.Log.append log iv;
        naive := !naive @ [ iv ]
      | _ -> ());
      let name fmt = Printf.sprintf "seed %d, step %d: %s" seed step fmt in
      let n = List.length !naive in
      if Interval.Log.length log <> n then Alcotest.fail (name "length");
      if n > 0 then begin
        let k = Random.State.int rs n in
        if (Interval.Log.get log k).Interval.seq
           <> (List.nth !naive k).Interval.seq
        then Alcotest.fail (name "get")
      end;
      (* coverage queries across the whole seq range, including exact
         hits, gap values, 0 and past-the-end *)
      let s = Random.State.int rs (!last_seq + 2) in
      let expected_idx =
        let rec go k = function
          | [] -> n
          | (iv : Interval.t) :: tl -> if iv.Interval.seq > s then k else go (k + 1) tl
        in
        go 0 !naive
      in
      if Interval.Log.first_after log s <> expected_idx then
        Alcotest.fail (name (Printf.sprintf "first_after %d" s));
      let vc = Vc.zero ~nprocs:4 in
      Vc.set vc owner s;
      let expected =
        (* prepended onto the accumulator walking oldest-first, so the
           result comes out newest-first — the orientation the old list
           representation produced *)
        List.rev
          (List.filter (fun (iv : Interval.t) -> iv.Interval.seq > s) !naive)
      in
      if seqs (Interval.Log.unseen_by vc ~proc:owner log []) <> seqs expected
      then Alcotest.fail (name (Printf.sprintf "unseen_by %d" s));
      let acc = [ make_iv (!last_seq + 100) ] in
      if seqs (Interval.Log.unseen_by vc ~proc:owner log acc)
         <> seqs (expected @ acc)
      then Alcotest.fail (name (Printf.sprintf "unseen_by %d with acc" s))
    done
  done

(* No seq is ever issued twice, so a log takes only ascending ones. *)
let test_log_rejects_non_ascending () =
  let log = Interval.Log.create () in
  Interval.Log.append log (make_iv 3);
  List.iter
    (fun seq ->
      Alcotest.check_raises (Printf.sprintf "seq %d after 3" seq)
        (Invalid_argument "Interval.Log.append: seq not ascending") (fun () ->
          Interval.Log.append log (make_iv seq)))
    [ 3; 2 ];
  Interval.Log.append log (make_iv 5);
  Alcotest.(check int) "length" 2 (Interval.Log.length log)

(* ------------------------------------------------------------------ *)
(* Store-backed node logs vs one list per (node, writer)               *)
(* ------------------------------------------------------------------ *)

let logs_nodes = 5

let proc_seqs = List.map (fun (iv : Interval.t) -> (iv.Interval.proc, iv.Interval.seq))

type model_node = {
  clock : Vc.t;  (* the node's clock; its log's windows top at it *)
  log : Interval.Logs.t;
  naive : Interval.t list array;  (* per writer, oldest first *)
  mutable floor : int array;  (* the clock at the last purge *)
  mutable down : bool;  (* between a crash and its restart *)
}

(* Node logs driven the way a cluster drives them: every log shares one
   store; a node ticks its clock and stores its own interval, and
   appends received intervals contiguously above its clock.  A GC round
   brings every clock to the supremum (the barrier), then the nodes
   purge one by one, and nodes that already purged go on closing and
   receiving.  A crash ({!Interval.Logs.rollback}) drops every other
   writer's clock component to the node's floor, which truncates the
   log to its own writer; while the node is down the others go on, and
   no GC round runs.  Its restart appends every peer interval above the
   floor, in seq order per writer, to both the log and the reference.
   A barrier, with or without a GC round, brings every clock to the
   supremum and marks the store there ({!Interval.Store.mark}).  Every
   query is compared with one list per (node, writer), every element by
   identity, and [unseen_by] with those lists merged in [Vc.order], for
   clocks both below and above the newest mark; outside a crash each
   window's newest interval is the one its clock names, and inside one
   only the own writer's window is seen.  After each GC round the store
   holds exactly the intervals some log still holds. *)
let test_logs_model () =
  let n = logs_nodes in
  let restored = ref 0 and kept_rounds = ref 0 and down_checks = ref 0 in
  let above_mark = ref 0 and below_mark = ref 0 in
  for seed = 0 to 19 do
    let rs = Random.State.make [| 0x1095; seed |] in
    let store = Interval.Store.create ~nprocs:n in
    let nodes =
      Array.init n (fun _ ->
          let clock = Vc.zero ~nprocs:n in
          {
            clock;
            log = Interval.Logs.create store ~node:0 ~clock;
            naive = Array.make n [];
            floor = Array.make n 0;
            down = false;
          })
    in
    let get x p = Vc.get x.clock p in
    (* the interval issued under each (writer, seq), and each writer's
       highest seq *)
    let issued = Hashtbl.create 64 in
    let top = Array.make n 0 in
    (* the clock of the newest mark since the last trim, and the epoch *)
    let marked = ref None and epoch = ref 0 in
    let append x (iv : Interval.t) =
      Interval.Logs.append x.log iv;
      x.naive.(iv.proc) <- x.naive.(iv.proc) @ [ iv ]
    in
    let close w =
      let x = nodes.(w) in
      Vc.tick x.clock ~proc:w;
      let iv = Interval.make ~proc:w ~vc:(Vc.copy x.clock) ~notices:[] in
      Hashtbl.replace issued (w, iv.seq) iv;
      top.(w) <- max top.(w) iv.seq;
      Interval.Store.add store iv;
      x.naive.(w) <- x.naive.(w) @ [ iv ]
    in
    let receive x p upto =
      for s = get x p + 1 to upto do
        append x (Hashtbl.find issued (p, s))
      done
    in
    let random_op ~among =
      let among = List.filter (fun w -> not nodes.(w).down) among in
      if among <> [] then begin
        let w = List.nth among (Random.State.int rs (List.length among)) in
        if Random.State.bool rs then close w
        else
          let p = Random.State.int rs n in
          let x = nodes.(w) in
          receive x p (get x p + Random.State.int rs (top.(p) - get x p + 1))
      end
    in
    let barrier () =
      Array.iter (fun x -> Array.iteri (fun p t -> receive x p t) top) nodes;
      incr epoch;
      Interval.Store.mark store ~epoch:!epoch nodes.(0).clock;
      (* every later call for the epoch is a no-op *)
      Interval.Store.mark store ~epoch:!epoch nodes.(n - 1).clock;
      marked := Some (Array.copy top)
    in
    let gc_round () =
      barrier ();
      let floor = Array.copy top in
      let order = Array.init n Fun.id in
      for i = n - 1 downto 1 do
        let j = Random.State.int rs (i + 1) in
        let t = order.(i) in
        order.(i) <- order.(j);
        order.(j) <- t
      done;
      Array.iteri
        (fun k w ->
          let x = nodes.(w) in
          Interval.Logs.clear x.log;
          Array.fill x.naive 0 n [];
          x.floor <- Array.init n (get x);
          for _ = 1 to Random.State.int rs 3 do
            random_op ~among:(Array.to_list (Array.sub order 0 (k + 1)))
          done)
        order;
      let held = Hashtbl.create 64 in
      Array.iter
        (fun x ->
          Array.iter
            (List.iter (fun (iv : Interval.t) ->
                 if iv.seq > floor.(iv.proc) then Hashtbl.replace held (iv.proc, iv.seq) ()))
            x.naive)
        nodes;
      if Interval.Store.length store > 0 then incr kept_rounds;
      marked := None;
      Interval.Store.length store = Hashtbl.length held
    in
    let crash w =
      let x = nodes.(w) in
      Interval.Logs.rollback x.log ~keep:w;
      Array.iteri (fun p _ -> if p <> w then x.naive.(p) <- []) x.naive;
      for p = 0 to n - 1 do
        if p <> w && get x p <> x.floor.(p) then
          Alcotest.failf "node %d's writer %d rolled back to %d, floor %d" w p
            (get x p) x.floor.(p)
      done;
      x.down <- true
    in
    let restart w =
      let x = nodes.(w) in
      x.down <- false;
      let seen = Hashtbl.create 64 in
      let replay = Array.make n [] in
      Array.iteri
        (fun y (peer : model_node) ->
          if y <> w then
            Array.iter
              (List.iter (fun (iv : Interval.t) ->
                   if iv.proc <> w && not (Hashtbl.mem seen (iv.proc, iv.seq)) then begin
                     Hashtbl.add seen (iv.proc, iv.seq) ();
                     replay.(iv.proc) <- iv :: replay.(iv.proc)
                   end))
              peer.naive)
        nodes;
      Array.iter
        (fun ivs ->
          if ivs <> [] then incr restored;
          List.iter (append x)
            (List.sort (fun (a : Interval.t) b -> compare a.seq b.seq) ivs))
        replay
    in
    for step = 1 to 300 do
      let name fmt = Printf.sprintf "seed %d, step %d: %s" seed step fmt in
      (* no barrier completes while a node is down *)
      let up = not (Array.exists (fun x -> x.down) nodes) in
      (match Random.State.int rs 16 with
      | 0 ->
        if up && not (gc_round ()) then
          Alcotest.fail (name "the store keeps an interval no log holds")
      | 3 -> if up then barrier ()
      | 1 -> (
        match List.find_opt (fun w -> nodes.(w).down) (List.init n Fun.id) with
        | Some w -> restart w
        | None -> crash (Random.State.int rs n))
      | _ -> random_op ~among:(List.init n Fun.id));
      Array.iteri
        (fun xi x ->
          let nname fmt = name (Printf.sprintf "node %d: %s" xi fmt) in
          let same a b = List.length a = List.length b && List.for_all2 ( == ) a b in
          let zero = Vc.zero ~nprocs:n in
          (* a window's newest interval is the one its clock names *)
          if not x.down then
            for p = 0 to n - 1 do
              match Interval.Logs.unseen_of x.log ~proc:p zero [] with
              | iv :: _ when iv.Interval.seq <> get x p ->
                Alcotest.fail
                  (nname (Printf.sprintf "writer %d's window tops at %d, clock %d" p
                            iv.seq (get x p)))
              | _ -> ()
            done;
          if x.down then incr down_checks;
          (* a random clock: each component below, inside or past its
             log; half of them at or above the newest mark *)
          let vc = Vc.zero ~nprocs:n in
          let low =
            match !marked with
            | Some m when Random.State.bool rs -> m
            | _ -> Array.make n 0
          in
          Array.iteri
            (fun p s -> Vc.set vc p (low.(p) + Random.State.int rs (s - low.(p) + 2)))
            top;
          (match !marked with
          | Some m ->
            if Array.for_all2 ( <= ) m (Array.init n (Vc.get vc)) then
              incr above_mark
            else incr below_mark
          | None -> ());
          let unseen p =
            List.rev
              (List.filter (fun (iv : Interval.t) -> iv.Interval.seq > Vc.get vc p) x.naive.(p))
          in
          let expected =
            List.concat (List.init n unseen)
            |> List.sort (fun (a : Interval.t) b -> Vc.order a.vc b.vc)
          in
          let got = Interval.Logs.unseen_by x.log vc in
          if not (same got expected) then
            Alcotest.fail
              (nname
                 (Printf.sprintf "unseen_by: got %s"
                    (String.concat " "
                       (List.map (fun (p, s) -> Printf.sprintf "%d:%d" p s) (proc_seqs got)))));
          let p = Random.State.int rs n in
          if not (same (Interval.Logs.unseen_of x.log ~proc:p vc []) (unseen p)) then
            Alcotest.fail (nname (Printf.sprintf "unseen_of %d" p)))
        nodes
    done
  done;
  (* the op mix re-appends non-empty windows, trims under live ones and
     queries rolled-back ones *)
  if
    !restored = 0 || !kept_rounds = 0 || !down_checks = 0 || !above_mark = 0
    || !below_mark = 0
  then
    Alcotest.failf
      "restored windows %d, GC rounds keeping intervals %d, rolled-back log checks %d, \
       queries above / below a mark %d / %d"
      !restored !kept_rounds !down_checks !above_mark !below_mark

(* A node log is a window onto the store: an append that skips a seq,
   repeats one, or carries an interval the store does not hold under its
   seq fails, and leaves the window as it was. *)
let test_logs_reject_broken_window () =
  let store = Interval.Store.create ~nprocs:4 in
  let log = Interval.Logs.create store ~node:0 ~clock:(Vc.zero ~nprocs:4) in
  let stored = List.map make_iv [ 1; 2; 3 ] in
  List.iter (Interval.Store.add store) stored;
  Interval.Logs.append log (List.hd stored);
  let breaks what iv =
    match Interval.Logs.append log iv with
    | () -> Alcotest.failf "%s: appended" what
    | exception Invalid_argument _ -> ()
  in
  breaks "skipped seq" (List.nth stored 2);
  breaks "repeated seq" (List.hd stored);
  breaks "unstored interval" (make_iv 2);
  Interval.Logs.append log (List.nth stored 1);
  let vc = Vc.zero ~nprocs:4 in
  let window = Interval.Logs.unseen_by log vc in
  Alcotest.(check bool) "window, oldest first" true
    (List.length window = 2
    && List.for_all2 ( == ) [ List.hd stored; List.nth stored 1 ] window);
  Alcotest.check_raises "reissued seq in the store"
    (Invalid_argument "Interval.Store.add: writer 1 closed seq 2 after 3")
    (fun () -> Interval.Store.add store (make_iv 2))

(* A barrier mark is taken only at a clock that covers every stored
   interval, and an interval closed after it must sort after every one
   stored before; a walk for a clock that covers the mark starts there. *)
let test_store_marks () =
  let store = Interval.Store.create ~nprocs:4 in
  let clock = Vc.zero ~nprocs:4 in
  let log = Interval.Logs.create store ~node:0 ~clock in
  let vc_of a =
    let vc = Vc.zero ~nprocs:4 in
    Array.iteri (Vc.set vc) a;
    vc
  in
  let stored = List.map make_iv [ 1; 2; 3 ] in
  List.iter (Interval.Store.add store) stored;
  List.iter (Interval.Logs.append log) stored;
  Alcotest.check_raises "mark below a stored interval"
    (Invalid_argument
       "Interval.Store.mark: the epoch-1 clock lacks writer 1's interval 3")
    (fun () -> Interval.Store.mark store ~epoch:1 (vc_of [| 0; 2; 0; 0 |]));
  Interval.Store.mark store ~epoch:1 clock;
  let early = Interval.make ~proc:2 ~vc:(vc_of [| 0; 0; 1; 0 |]) ~notices:[] in
  Alcotest.check_raises "interval below the mark"
    (Invalid_argument
       "Interval.Store.add: writer 2's interval 1 sorts below the epoch-1 mark")
    (fun () -> Interval.Store.add store early);
  Alcotest.(check int) "the rejected interval is not stored" 3
    (Interval.Store.length store);
  let late = Interval.make ~proc:2 ~vc:(vc_of [| 0; 3; 1; 0 |]) ~notices:[] in
  Interval.Store.add store late;
  Interval.Logs.append log late;
  let unseen a = Interval.Logs.unseen_by log (vc_of a) in
  Alcotest.(check bool) "a clock on the mark walks from it" true
    (match unseen [| 0; 3; 0; 0 |] with [ iv ] -> iv == late | _ -> false);
  Alcotest.(check (list int)) "a clock below the mark walks from the start"
    [ 2; 3; 1 ]
    (seqs (unseen [| 0; 1; 0; 0 |]))

(* ------------------------------------------------------------------ *)
(* Naive last-notice reference: every writer's clock, scanned densely  *)
(* ------------------------------------------------------------------ *)

(* Writer 0 is the observing node; the rest are remote writers. *)
let nwriters = 12

(* The check the dominating-writer summary replaced: walk every
   (writer, latest clock) slot, collect the writers concurrent with [n]
   and whether [n] covers them all. *)
let dense_scan slots (n : Notice.t) =
  List.fold_left
    (fun (conc, all) (q, m) ->
      let covered = Vc.get n.vc q >= Vc.get m q in
      let conc =
        if q <> n.proc && (not covered) && Vc.get m n.proc < n.seq then q :: conc
        else conc
      in
      (conc, all && covered))
    ([], true) slots

(* The answer and the SET of writers visited (the order may differ). *)
let summarized node e n =
  let seen = ref [] in
  let answer =
    State.check_writers ~visit:(fun q -> seen := q :: !seen) node e n
  in
  (List.sort compare !seen, answer)

let vc_of_array a =
  let vc = Vc.zero ~nprocs:nwriters in
  Array.iteri (fun p v -> if v <> 0 then Vc.set vc p v) a;
  vc

let merge_clock dst src = Array.iteri (fun p v -> dst.(p) <- max dst.(p) v) src

(* The observer, node 0, on a fresh store of [nwriters] writers: the
   only log of the store, so its purge trims it. *)
let observer () =
  let cfg = Config.make ~protocol:Config.Wfs ~nprocs:nwriters () in
  let store = Interval.Store.create ~nprocs:nwriters in
  let node =
    State.make_node ~cfg ~vc_epoch:(Vc.Epoch.create ~nprocs:nwriters) ~store
      ~id:0 ~total_pages:1
  in
  (store, node, State.entry_of node 0)

(* Writer [p] closes its next interval, from its clock [clk.(p)], with
   one notice on page 0, and stores it. *)
let close_interval store clk p =
  clk.(p).(p) <- clk.(p).(p) + 1;
  let vc = vc_of_array clk.(p) in
  let n =
    { Notice.page = 0; proc = p; seq = clk.(p).(p); vc; version = None }
  in
  Interval.Store.add store (Interval.make ~proc:p ~vc ~notices:[ n ]);
  n

(* The naive map: (writer, latest clock), in first-recorded order. *)
let record slots (n : Notice.t) =
  if List.mem_assoc n.proc !slots then
    slots :=
      List.map (fun (p, m) -> if p = n.proc then (p, n.vc) else (p, m)) !slots
  else slots := !slots @ [ (n.proc, n.vc) ]

(* The check against the dense scan; returns whether [n] covers every
   recorded writer. *)
let check_against_dense ~name node e slots (n : Notice.t) =
  let conc, all = dense_scan slots n in
  let conc', answer = summarized node e n in
  if List.sort compare conc <> conc' then
    Alcotest.fail (name "concurrent writers");
  if all <> (answer = State.Covers_all) then
    Alcotest.fail (name "covers every writer");
  if (conc <> []) <> (answer = State.Concurrent) then
    Alcotest.fail (name "concurrent answer");
  all

(* The map holds exactly the naive map's seqs, and the dominating
   writer's notice covers every writer's outside the since-set. *)
let check_map ~name e slots =
  List.iter
    (fun (q, m) ->
      if State.last_seq e q <> Vc.get m q then
        Alcotest.fail (name "latest seq"))
    slots;
  let dom = e.State.nw_dom in
  if dom >= 0 then begin
    let dvc = List.assoc dom slots in
    List.iter
      (fun (q, m) ->
        let in_since = ref false in
        for j = 0 to e.State.nw_nsince - 1 do
          if e.State.nw_since.(j) = q then in_since := true
        done;
        if (not !in_since) && Vc.get dvc q < Vc.get m q then
          Alcotest.fail (name (Printf.sprintf "writer %d not dominated" q)))
      slots
  end

(* Seeded per-page notice streams at one observing node.  Remote writers
   close intervals, sometimes after merging another writer's clock
   (causally ordered — the migratory lock-chain pattern) and sometimes
   without (truly concurrent writers); their notices reach the observer
   in arbitrary order.  Every interval is stored in a real interval
   store, from which the check reads the clocks of the notices it does
   not cover.  The observer closes its own intervals, applies notices
   with or without the check's answer (the already-flagged skip path),
   and occasionally crashes.  Every clock is built by merging whole
   clocks, the transitive-clock invariant the summary relies on (the
   crash's clock rollback is undone by the recovery round before the
   next close, so it is not modelled).  After every step each
   undelivered notice is checked against the dense scan. *)
let test_notice_summary_model () =
  let fast_with_since = ref 0 and overflows = ref 0 and dom_overwrites = ref 0 in
  let reestablished = ref 0 and concurrent_hits = ref 0 in
  for seed = 0 to 19 do
    let rs = Random.State.make [| 0x5107; seed |] in
    let store, node, e = observer () in
    let slots = ref [] in
    let clk = Array.init nwriters (fun _ -> Array.make nwriters 0) in
    let pending = ref [] in
    let last_writer = ref 1 in
    let close = close_interval store clk in
    let check step (n : Notice.t) =
      let name what =
        Printf.sprintf "seed %d, step %d, notice p%d#%d: %s" seed step n.proc
          n.seq what
      in
      let dom = e.State.nw_dom in
      if dom >= 0 && Vc.get n.vc dom >= State.last_seq e dom
         && e.State.nw_nsince > 0
      then incr fast_with_since;
      if fst (dense_scan !slots n) <> [] then incr concurrent_hits;
      check_against_dense ~name node e !slots n
    in
    let apply step (n : Notice.t) =
      let all = check step n in
      let dom_before = e.State.nw_dom and since_before = e.State.nw_nsince in
      (* One apply in six takes the skipped-check path: no answer. *)
      let covers_all = all && Random.State.int rs 6 > 0 in
      State.set_last_notice ~covers_all node e n.proc n.seq;
      record slots n;
      merge_clock clk.(0) (Array.init nwriters (Vc.get n.vc));
      if covers_all && dom_before < 0 then incr reestablished;
      if (not covers_all) && dom_before >= 0 && e.State.nw_dom < 0 then
        if n.proc = dom_before then incr dom_overwrites
        else if since_before = State.since_cap then incr overflows
    in
    for step = 1 to 400 do
      (match Random.State.int rs 20 with
      | 0 | 1 | 2 | 3 ->
        (* causally ordered: see the previous writer's clock, then write *)
        let p = 1 + Random.State.int rs (nwriters - 1) in
        merge_clock clk.(p) clk.(!last_writer);
        if Random.State.bool rs then merge_clock clk.(p) clk.(0);
        last_writer := p;
        pending := !pending @ [ close p ]
      | 4 | 5 | 6 ->
        (* truly concurrent: write without merging anything *)
        let p = 1 + Random.State.int rs (nwriters - 1) in
        pending := !pending @ [ close p ]
      | 7 | 8 ->
        let p = Random.State.int rs nwriters
        and q = Random.State.int rs nwriters in
        merge_clock clk.(p) clk.(q)
      | 9 | 10 ->
        (* own interval close *)
        let n = close 0 in
        State.set_last_notice ~covers_all:false node e 0 n.seq;
        record slots n
      | 11 ->
        (* crash: durable entries keep their latest notices, others
           lose them *)
        State.forget_dominating e;
        if Random.State.bool rs then begin
          State.clear_last_notices e;
          slots := []
        end
      | _ -> (
        match !pending with
        | [] -> ()
        | l ->
          (* mostly oldest first, sometimes out of order *)
          let k =
            if Random.State.int rs 3 = 0 then Random.State.int rs (List.length l)
            else 0
          in
          let n = List.nth l k in
          pending := List.filteri (fun i _ -> i <> k) l;
          apply step n));
      List.iter (fun n -> ignore (check step n)) !pending;
      check_map e !slots ~name:(fun what ->
          Printf.sprintf "seed %d, step %d: %s" seed step what)
    done
  done;
  (* The streams must actually reach every path the summary has. *)
  let reached name count =
    if count = 0 then Alcotest.failf "model never exercised: %s" name
  in
  reached "fast path with a non-empty since-set" !fast_with_since;
  reached "since-set overflow" !overflows;
  reached "dominating writer recorded again" !dom_overwrites;
  reached "summary re-established" !reestablished;
  reached "concurrent writers" !concurrent_hits

(* GC rounds under the same streams: a barrier delivers every pending
   notice and brings every clock to the supremum, and the observer's
   purge, the store's only log, trims every interval.  The latest
   notices recorded before the barrier keep naming trimmed intervals,
   but every notice closed after it covers them, so checks against the
   dense scan never ask the store for one. *)
let test_notice_summary_after_trim () =
  let trims = ref 0 and concurrent_hits = ref 0 in
  for seed = 0 to 9 do
    let rs = Random.State.make [| 0x7219; seed |] in
    let store, node, e = observer () in
    let slots = ref [] in
    let clk = Array.init nwriters (fun _ -> Array.make nwriters 0) in
    let pending = ref [] in
    let step = ref 0 in
    let name what = Printf.sprintf "seed %d, step %d: %s" seed !step what in
    let apply (n : Notice.t) =
      let all = check_against_dense ~name node e !slots n in
      State.set_last_notice ~covers_all:all node e n.proc n.seq;
      record slots n;
      merge_clock clk.(0) (Array.init nwriters (Vc.get n.vc))
    in
    for _round = 1 to 6 do
      for _ = 1 to 40 do
        incr step;
        (match Random.State.int rs 6 with
        | 0 | 1 ->
          let p = 1 + Random.State.int rs (nwriters - 1)
          and q = Random.State.int rs nwriters in
          if Random.State.bool rs then merge_clock clk.(p) clk.(q);
          pending := !pending @ [ close_interval store clk p ]
        | 2 ->
          let n = close_interval store clk 0 in
          State.set_last_notice ~covers_all:false node e 0 n.seq;
          record slots n
        | _ -> (
          match !pending with
          | [] -> ()
          | n :: rest ->
            pending := rest;
            if fst (dense_scan !slots n) <> [] then incr concurrent_hits;
            apply n));
        check_map ~name e !slots
      done;
      (* The barrier: every pending notice, then every clock at the
         supremum, the observer's included; then the purge. *)
      List.iter apply !pending;
      pending := [];
      let sup = Array.make nwriters 0 in
      Array.iter (merge_clock sup) clk;
      Array.iter (fun c -> Array.blit sup 0 c 0 nwriters) clk;
      Array.iteri (fun p v -> Vc.set node.State.vc p v) sup;
      Interval.Logs.clear node.State.intervals;
      if Interval.Store.length store <> 0 then
        Alcotest.fail (name "store not trimmed");
      incr trims
    done
  done;
  if !concurrent_hits = 0 then
    Alcotest.fail "model never exercised: concurrent writers";
  Alcotest.(check int) "trims" 60 !trims

(* Asked for a trimmed interval, the clock accessor fails naming the
   node, page, writer and seq — and so does a check against a notice
   that does not cover a trimmed latest notice, which no run applies. *)
let test_trimmed_clock_fails () =
  let store, node, e = observer () in
  let clk = Array.init nwriters (fun _ -> Array.make nwriters 0) in
  let n = close_interval store clk 3 in
  State.set_last_notice ~covers_all:true node e 3 n.seq;
  Vc.set node.State.vc 3 n.seq;
  Interval.Logs.clear node.State.intervals;
  Alcotest.(check int) "trimmed" 0 (Interval.Store.length store);
  let missing =
    Invalid_argument
      "Interval.Logs.clock_of: node 0, page 0: the store does not hold writer \
       3's interval 1"
  in
  Alcotest.check_raises "accessor" missing (fun () ->
      ignore (Interval.Logs.clock_of node.State.intervals ~page:0 ~proc:3 1));
  let stale = close_interval store clk 5 in
  Alcotest.check_raises "check against an uncovering notice" missing (fun () ->
      ignore (State.check_writers node e stale))

(* ------------------------------------------------------------------ *)
(* Writer maps: every form against a dense array                       *)
(* ------------------------------------------------------------------ *)

module Wmap = Adsm_dsm.Wmap

(* Widths on both sides of the dense threshold, one not a power of two. *)
let wmap_widths = [ 3; 8; 64; 512; 1000 ]

(* A random order of the writers [0, n). *)
let shuffled rs n =
  let order = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int rs (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  order

(* A writer map driven next to a dense array.  First every writer is
   set once, in a random order, so the map grows through each form its
   width allows; then random sets (some to 0), resets, and snapshots of
   the map, which must read back unchanged after later sets on it.
   After every step the map must read back as the dense array, writer
   by writer, and be no larger than the dense form; below 9 nodes a
   non-empty map is dense. *)
let prop_writer_map =
  QCheck.Test.make ~name:"writer map = dense array" ~count:30 QCheck.int
    (fun seed ->
      let rs = Random.State.make [| 0x3A9; seed |] in
      List.for_all
        (fun nprocs ->
          let m = ref Wmap.empty in
          let dense = Array.make nprocs 0 in
          let forms = ref [] in
          let reads_as m a =
            Array.for_all Fun.id (Array.mapi (fun q v -> Wmap.get m q = v) a)
          in
          let agrees () =
            let f = Wmap.form !m in
            if not (List.mem f !forms) then forms := f :: !forms;
            reads_as !m dense
            && Obj.size (Obj.repr !m) <= nprocs + 1
            && (nprocs > 8 || f = Wmap.Empty || f = Wmap.Dense)
          in
          let set q v =
            m := Wmap.set !m ~nprocs q v;
            dense.(q) <- v
          in
          let grown =
            agrees ()
            && Array.for_all
                 (fun q ->
                   set q (1 + Random.State.int rs 1000);
                   agrees ())
                 (shuffled rs nprocs)
          in
          let expected =
            List.sort compare
              (if nprocs <= 8 then [ Wmap.Empty; Wmap.Dense ]
               else [ Wmap.Empty; Wmap.Linear; Wmap.Hashed; Wmap.Dense ])
          in
          let step _ =
            (match Random.State.int rs 50 with
            | 0 ->
              m := Wmap.empty;
              Array.fill dense 0 nprocs 0
            | 1 | 2 | 3 ->
              let snap = Wmap.copy !m and was = Array.copy dense in
              for _ = 1 to 3 do
                set (Random.State.int rs nprocs) (1 + Random.State.int rs 1000)
              done;
              if not (reads_as snap was) then
                QCheck.Test.fail_reportf "nprocs %d: a later set moved a snapshot"
                  nprocs
            | k ->
              set (Random.State.int rs nprocs)
                (if k < 15 then 0 else 1 + Random.State.int rs 1000));
            agrees ()
          in
          grown
          && List.sort compare !forms = expected
          && List.for_all step (List.init 200 Fun.id))
        wmap_widths)

(* [e]'s reflected view reads as [a], writer by writer. *)
let view_reads e a =
  Array.for_all Fun.id (Array.mapi (fun q v -> State.reflected_get e q = v) a)

(* A shipped view reads as [a], through a fresh entry. *)
let shipped_reads (r : Adsm_dsm.Msg.reflected) a =
  let e = State.make_entry ~page:2 ~home:0 in
  State.reflected_install e r;
  view_reads e a

(* An entry's reflected view (a frozen writer map plus the map above
   it) driven next to a dense array.  First every writer is raised
   once, in a random order; then random raises, resets, installs of
   another entry's shipped view (raised and shipped over a few rounds,
   so it may carry a frozen map, a map above it, or both), and shipped
   copies of the view itself, which must read back unchanged after
   later raises on it.  After every step the view must read back as the
   dense array, writer by writer, its map be no larger than the dense
   form, and its frozen map be empty or dense. *)
let prop_reflected_view =
  QCheck.Test.make ~name:"reflected view = dense array" ~count:30 QCheck.int
    (fun seed ->
      let rs = Random.State.make [| 0x5E1; seed |] in
      List.for_all
        (fun nprocs ->
          let e = State.make_entry ~page:0 ~home:0 in
          let dense = Array.make nprocs 0 in
          let agrees () =
            view_reads e dense
            && Obj.size (Obj.repr e.State.reflected) <= nprocs + 1
            &&
            match Wmap.form e.State.reflected_frozen with
            | Wmap.Empty | Wmap.Dense -> true
            | Wmap.Linear | Wmap.Hashed -> false
          in
          let raise_on e a q =
            let v = a.(q) + 1 + Random.State.int rs 1000 in
            State.reflected_set e ~nprocs q v;
            a.(q) <- v
          in
          let grown =
            Array.for_all
              (fun q ->
                raise_on e dense q;
                agrees ())
              (shuffled rs nprocs)
          in
          let step _ =
            (match Random.State.int rs 50 with
            | 0 ->
              State.reflected_reset e;
              Array.fill dense 0 nprocs 0
            | 1 | 2 | 3 ->
              let src = State.make_entry ~page:1 ~home:0 in
              let a = Array.make nprocs 0 in
              for _ = 0 to Random.State.int rs 3 do
                for _ = 1 to Random.State.int rs (nprocs + 1) do
                  raise_on src a (Random.State.int rs nprocs)
                done;
                ignore (State.reflected_ship src ~nprocs : Adsm_dsm.Msg.reflected)
              done;
              for _ = 1 to Random.State.int rs 4 do
                raise_on src a (Random.State.int rs nprocs)
              done;
              State.reflected_install e (State.reflected_ship src ~nprocs);
              Array.blit a 0 dense 0 nprocs
            | 4 | 5 | 6 ->
              let snap = State.reflected_ship e ~nprocs
              and was = Array.copy dense in
              for _ = 1 to 3 do
                raise_on e dense (Random.State.int rs nprocs)
              done;
              if not (shipped_reads snap was) then
                QCheck.Test.fail_reportf "nprocs %d: a later set moved a snapshot"
                  nprocs
            | _ -> raise_on e dense (Random.State.int rs nprocs));
            agrees ()
          in
          grown && List.for_all step (List.init 200 Fun.id))
        wmap_widths)

(* Shipping a dense map freezes it: the first time the map itself moves
   into the frozen slot, and the next time the map frozen before merges
   into the new dense map.  Either way the entry goes on with an empty
   map above the frozen one, and every view shipped so far, and every
   entry that installed one, reads unchanged after later sets on the
   server's entry. *)
let test_shipped_view_isolated () =
  List.iter
    (fun nprocs ->
      let name what = Printf.sprintf "%d nodes: %s" nprocs what in
      let check what b = Alcotest.(check bool) (name what) true b in
      let e = State.make_entry ~page:0 ~home:0 in
      let view () = Array.init nprocs (State.reflected_get e) in
      let empty_above () = Wmap.form e.State.reflected = Wmap.Empty in
      for q = 0 to nprocs - 1 do
        State.reflected_set e ~nprocs q (q + 1)
      done;
      let m = e.State.reflected in
      let expect1 = view () in
      let shipped1 = State.reflected_ship e ~nprocs in
      check "a first freeze moves the map"
        (shipped1.frozen == m && e.State.reflected_frozen == m);
      check "nothing above the first freeze"
        (empty_above () && Wmap.form shipped1.above = Wmap.Empty);
      let receiver = State.make_entry ~page:0 ~home:1 in
      State.reflected_install receiver shipped1;
      (* Half the writers raised: a dense map at every width here. *)
      for q = 0 to nprocs - 1 do
        if q mod 2 = 0 then State.reflected_set e ~nprocs q (q + 1 + nprocs)
      done;
      let above = e.State.reflected in
      check "half the writers make a dense map" (Wmap.form above = Wmap.Dense);
      let expect2 = view () in
      let shipped2 = State.reflected_ship e ~nprocs in
      check "a second freeze merges into the dense map"
        (shipped2.frozen == above && empty_above ());
      check "the merged view" (shipped_reads shipped2 expect2);
      check "the first frozen map, after the merge"
        (shipped_reads shipped1 expect1 && view_reads receiver expect1);
      (* One writer above the frozen map: a sparse map from 9 nodes up,
         which a reply copies. *)
      State.reflected_set e ~nprocs 1 (expect2.(1) + 5);
      let expect3 = view () in
      let shipped3 = State.reflected_ship e ~nprocs in
      State.reflected_set e ~nprocs 1 (expect3.(1) + 5);
      State.reflected_set e ~nprocs 0 (expect3.(0) + 5);
      check "the server reads its sets"
        (State.reflected_get e 1 = expect3.(1) + 5
        && State.reflected_get e 0 = expect3.(0) + 5);
      check "every shipped view, after later sets on the server"
        (shipped_reads shipped3 expect3
        && shipped_reads shipped2 expect2
        && shipped_reads shipped1 expect1
        && view_reads receiver expect1))
    [ 3; 8; 64; 512 ]

(* The view only rises: a set below the value the view reads raises,
   whether the map or the frozen map holds it, and a set to the same
   value is a no-op. *)
let test_reflected_set_only_raises () =
  let nprocs = 16 in
  let e = State.make_entry ~page:0 ~home:0 in
  let lowers what q v =
    match State.reflected_set e ~nprocs q v with
    | exception Failure _ -> ()
    | () -> Alcotest.failf "a set that lowers %s did not raise" what
  in
  State.reflected_set e ~nprocs 2 5;
  lowers "a map value" 2 4;
  State.reflected_set e ~nprocs 2 5;
  Alcotest.(check int) "an equal set is a no-op" 5 (State.reflected_get e 2);
  (* Five more writers make the map dense, and shipping freezes it. *)
  for q = 3 to 7 do
    State.reflected_set e ~nprocs q 7
  done;
  ignore (State.reflected_ship e ~nprocs : Adsm_dsm.Msg.reflected);
  Alcotest.(check bool) "the map is frozen" true
    (Wmap.form e.State.reflected = Wmap.Empty);
  lowers "a frozen value" 3 6;
  lowers "a frozen value to 0" 3 0;
  State.reflected_set e ~nprocs 3 9;
  Alcotest.(check int) "a raise above the frozen map" 9
    (State.reflected_get e 3);
  Alcotest.(check int) "the rest of the frozen map" 7 (State.reflected_get e 4);
  Alcotest.(check int) "a writer neither map holds" 0 (State.reflected_get e 8)

(* ------------------------------------------------------------------ *)
(* Page diff: the pairwise scan vs a word-at-a-time reference          *)
(* ------------------------------------------------------------------ *)

let page_words = Page.size / 4

(* Runs of 32-bit words on which the pages differ in any byte. *)
let naive_ranges twin current =
  let a = Page.raw twin and b = Page.raw current in
  let differs w = Bytes.sub a (4 * w) 4 <> Bytes.sub b (4 * w) 4 in
  let runs = ref [] and w = ref 0 in
  while !w < page_words do
    if differs !w then begin
      let start = !w in
      while !w < page_words && differs !w do
        incr w
      done;
      runs := (4 * start, 4 * (!w - start)) :: !runs
    end
    else incr w
  done;
  List.rev !runs

(* [pattern] picks which words change: 0 sparse, 1 dense, 2 every
   [period]-th word from a random phase (period 2 alternates), 3 the
   edge words 0 and 1023 plus a few others.  A changed word gets one
   random byte flipped, so runs are found at word granularity even when
   a single byte moves. *)
let diff_pages (pattern, seed) =
  let rng = Random.State.make [| seed |] in
  let twin =
    Page.of_bytes
      (Bytes.init Page.size (fun _ -> Char.chr (Random.State.int rng 256)))
  in
  let current = Page.copy twin in
  let change w =
    let i = (4 * w) + Random.State.int rng 4 in
    let c = Bytes.get (Page.raw current) i in
    Bytes.set (Page.raw current) i
      (Char.chr ((Char.code c + 1 + Random.State.int rng 255) land 255))
  in
  let sparse k =
    for _ = 1 to k do
      change (Random.State.int rng page_words)
    done
  in
  (match pattern with
  | 0 -> sparse (Random.State.int rng 24)
  | 1 ->
    for w = 0 to page_words - 1 do
      if Random.State.int rng 10 > 0 then change w
    done
  | 2 ->
    let period = 2 + Random.State.int rng 3 in
    let phase = Random.State.int rng period in
    for w = 0 to page_words - 1 do
      if w mod period = phase then change w
    done
  | _ ->
    change 0;
    change (page_words - 1);
    sparse (Random.State.int rng 8));
  (twin, current)

(* A diff's heap is its wire encoding plus a small record: no per-run
   arrays.  [Obj.reachable_words] counts every block with its header. *)
let retained_bytes d = 8 * Obj.reachable_words (Obj.repr d)

let memory_is_wire_size d = retained_bytes d <= Diff.size_bytes d + 64

let prop_diff_scan =
  QCheck.Test.make ~name:"Diff.create = word-at-a-time scan" ~count:400
    QCheck.(pair (int_range 0 3) int)
    (fun gen ->
      let twin, current = diff_pages gen in
      let d = Diff.create ~scratch:(Diff.make_scratch ()) ~twin ~current () in
      let ranges = naive_ranges twin current in
      let modified = List.fold_left (fun acc (_, len) -> acc + len) 0 ranges in
      let applied = Page.copy twin and reference = Page.copy twin in
      Diff.apply d applied;
      List.iter
        (fun (off, len) ->
          Bytes.blit (Page.raw current) off (Page.raw reference) off len)
        ranges;
      Diff.ranges d = ranges
      && Diff.run_count d = List.length ranges
      && Diff.modified_bytes d = modified
      && Diff.size_bytes d = (4 * List.length ranges) + modified
      && Page.equal applied reference
      && Page.equal applied current
      (* The encoding is canonical: logged writes covering exactly the
         modified words encode the same runs, byte for byte, and so does
         a scan without the caller's scratch. *)
      && Diff.of_ranges ranges current = d
      && Diff.create ~twin ~current () = d
      && (Diff.is_empty d || memory_is_wire_size d))

(* The two extreme pages: every word modified (one run, the largest
   encoding) and every other word (the most runs).  They, and a page of
   256 one-word runs, retain about their wire size. *)
let test_diff_extremes () =
  let twin = Page.create () in
  let every k =
    let current = Page.create () in
    for w = 0 to page_words - 1 do
      if w mod k = 0 then Page.set_i32 current (4 * w) 1l
    done;
    Diff.create ~twin ~current ()
  in
  let full = every 1 and alternate = every 2 and quarter = every 4 in
  Alcotest.(check int) "full page: one run" 1 (Diff.run_count full);
  Alcotest.(check int) "full page: 4,100 bytes" 4100 (Diff.size_bytes full);
  Alcotest.(check int) "alternate words: 512 runs" 512
    (Diff.run_count alternate);
  Alcotest.(check int) "alternate words: 4,096 bytes" 4096
    (Diff.size_bytes alternate);
  Alcotest.(check int) "alternate words: 2,048 modified" 2048
    (Diff.modified_bytes alternate);
  Alcotest.(check int) "every fourth word: 2,048 bytes" 2048
    (Diff.size_bytes quarter);
  List.iter
    (fun (name, d) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d B retained for %d B encoded" name
           (retained_bytes d) (Diff.size_bytes d))
        true (memory_is_wire_size d))
    [
      ("full page", full);
      ("alternate words", alternate);
      ("every fourth word", quarter);
    ]

(* ------------------------------------------------------------------ *)
(* Int_array: write-barrier-free int copies = the stdlib ones         *)
(* ------------------------------------------------------------------ *)

module Int_array = Adsm_dsm.Int_array

let prop_int_array =
  QCheck.Test.make ~name:"Int_array = Array blit/sub/copy" ~count:200
    QCheck.int (fun seed ->
      let rs = Random.State.make [| seed |] in
      (* Widths on both sides of the 256-word minor-heap limit. *)
      let n = Random.State.int rs (if Random.State.bool rs then 12 else 600) in
      let a = Array.init n (fun _ -> Random.State.bits rs) in
      let m = n + Random.State.int rs 4 in
      let b = if Random.State.bool rs then a else Array.init m (fun i -> -i) in
      Gc.full_major ();
      let spos = Random.State.int rs (n + 3) - 1
      and dpos = Random.State.int rs (Array.length b + 3) - 1
      and len = Random.State.int rs (n + 3) - 1 in
      let outcome f x =
        match f x with r -> Ok r | exception Invalid_argument _ -> Error ()
      in
      let a' = Array.copy a in
      let b' = if b == a then a' else Array.copy b in
      let blitted =
        outcome (fun () -> Int_array.blit a spos b dpos len) ()
        = outcome (fun () -> Array.blit a' spos b' dpos len) ()
      in
      blitted && a = a' && b = b'
      && outcome (Int_array.sub a spos) len = outcome (Array.sub a spos) len
      && Int_array.copy a = Array.copy a)

let () =
  Alcotest.run "model"
    [
      ( "vc",
        [
          Alcotest.test_case "summarized vs naive (seeded)" `Quick test_vc_model;
          Alcotest.test_case "wide promoted clocks vs naive (seeded)" `Quick
            test_vc_wide;
          Alcotest.test_case "rebase rejects a differing base" `Quick
            test_vc_rebase_guard;
        ] );
      ( "interval-log",
        [
          Alcotest.test_case "indexed vs naive (seeded)" `Quick test_log_model;
          Alcotest.test_case "rejects a non-ascending seq" `Quick
            test_log_rejects_non_ascending;
        ] );
      ( "interval-logs",
        [
          Alcotest.test_case "writer index vs per-writer lists (seeded)" `Quick
            test_logs_model;
          Alcotest.test_case "append rejects a broken window" `Quick
            test_logs_reject_broken_window;
          Alcotest.test_case "marks bound the walk" `Quick test_store_marks;
        ] );
      ( "notice-summary",
        [
          Alcotest.test_case "dominating slot vs dense scan (seeded)" `Quick
            test_notice_summary_model;
          Alcotest.test_case "checks after a trim never miss (seeded)" `Quick
            test_notice_summary_after_trim;
          Alcotest.test_case "a trimmed clock fails loudly" `Quick
            test_trimmed_clock_fails;
        ] );
      ( "writer-map",
        [
          QCheck_alcotest.to_alcotest prop_writer_map;
          QCheck_alcotest.to_alcotest prop_reflected_view;
          Alcotest.test_case "a shipped view stays put" `Quick
            test_shipped_view_isolated;
          Alcotest.test_case "the view only rises" `Quick
            test_reflected_set_only_raises;
        ] );
      ("diff-scan", [ QCheck_alcotest.to_alcotest prop_diff_scan ]);
      ( "diff-encoding",
        [ Alcotest.test_case "extreme pages" `Quick test_diff_extremes ] );
      ("int-array", [ QCheck_alcotest.to_alcotest prop_int_array ]);
    ]
