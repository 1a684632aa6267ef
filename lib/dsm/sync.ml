(* Synchronization over the LRC substrate: distributed locks (a
   home-rooted distributed queue), the global barrier (a combining tree
   rooted at node 0, of which the paper's central manager is the
   one-level shape), and diff garbage collection (piggybacked on a
   barrier round).

   Protocol policy enters only through {!Dispatch.for_cluster}: interval
   closure runs the protocol's [close_page], and the GC validation phase
   asks the protocol which copies survive. *)

module Perm = Adsm_mem.Perm
module Engine = Adsm_sim.Engine
module Proc = Adsm_sim.Proc
open State

let end_interval cl node ~charge =
  Lrc_core.end_interval cl (Dispatch.for_cluster cl) node ~charge

let end_interval_local cl node =
  end_interval cl node ~charge:(fun ns -> Proc.sleep cl.engine ns)

(* Put a batch gathered from several senders into apply order.  A batch
   read off one log is in it already; only the barrier root's combined
   arrivals and a recovery round's replies need this. *)
let sort_intervals ivals =
  List.stable_sort (fun (a : Interval.t) b -> Vc.order a.vc b.vc) ivals

(* ------------------------------------------------------------------ *)
(* Crash recovery (see FAULTS.md)                                     *)
(* ------------------------------------------------------------------ *)

(* Failure model: fail-stop at DSM-operation granularity.  A crash event
   ([arm_crashes] below) sets [node.crash_pending]; the next operation
   boundary (page fault, lock, unlock, barrier, compute) performs the
   actual fail-stop — wipe volatile state, roll the clock back, sleep
   out the remaining downtime in the node's wait slot, run a recovery
   round — via [crash_pause] below.

   Durability model (what "local stable storage" holds):
   - the node's own closed intervals and their diffs: a write-behind log
     flushed at every interval close.  Implementation: own intervals
     and the entries' own diffs are kept;
   - the committed frame of every page the node is the designated copy
     holder for ([is_owner], or [owner = self] after an adaptive MW
     drop): peers' Page/Diff requests parked during the downtime must
     still be servable after restart;
   - directory fields (version, owner hint, copyset, mode bits): a
     page's directory claim survives so no page becomes ownerless.
   Everything else — non-owned frames, twins, the fetched-diff account,
   remote interval logs, pending notices, TLB — is volatile and lost.

   The rollback point is the log's floor, the clock at the node's last
   GC purge (zero before any), for every writer but the node itself:
   what the node knows is its clock plus its log, and the log keeps
   nothing below the floor.  Notice lists are NOT saved — a
   pending-notice snapshot is only meaningful relative to the page
   copies it was taken against, and the crash wipes those.  Instead the
   recovery round below rebuilds them from the peers' retained interval
   logs, which stay alive while the node is down: no GC round can
   complete because barriers block on it. *)

(* A peer's view of a restarted node's recovery round: return every
   closed interval the given clock does not cover.  No interval close
   is needed first — the requester's pre-crash VC can only cover closed
   intervals, never a peer's still-open one. *)
let handle_recover_req cl node ~vc respond =
  let intervals = Lrc_core.collect_unseen node vc in
  Lrc_core.respond_msg cl node respond (Msg.Recover_reply { intervals })

(* The fail-stop itself.  Runs in the application process's context at
   an operation boundary; [node.crash_pending] is already set. *)
let crash_pause cl node =
  node.crash_pending <- false;
  (* Flush the write-behind log: close the interval in progress so the
     writes already performed are durably diffed and noticed. *)
  end_interval_local cl node;
  if checking cl then observe cl ~node:node.id Adsm_check.Obs.Crash;
  let mutation = cl.cfg.Config.mutation in
  (* Wipe volatile state.  Every entry loses its pending notices.
     Pages whose committed frame is durable (we are the designated copy
     holder) keep the rest; all other entries lose frame, twin,
     permissions, versions, reflected view and last notices.  Directory
     fields survive (durable directory claim). *)
  iter_entries node (fun (e : entry) ->
      (* Durable entries keep their last-notice slots while the clock
         rolls back below, so the transitive-clock invariant behind the
         dominating-slot summary no longer holds for them: drop it. *)
      forget_dominating e;
      e.notices <- [];
      if not (e.is_owner || e.owner = node.id) then begin
        drop_copy e;
        e.twin <- None;
        e.dirty <- false;
        clear_last_notices e
      end);
  tlb_reset node;
  (* The fetched diffs and remote interval logs are volatile.  The
     fetched diffs leave the node's byte account, which the GC trigger
     reads; its own diffs are durable. *)
  if node.fetched_diffs > 0 then begin
    Stats.diffs_dropped cl.stats ~count:node.fetched_diffs
      ~time:(Engine.now cl.engine);
    node.fetched_diffs <- 0;
    node.fetched_bytes <- 0
  end;
  (* Roll the vector clock back to the log's floor, which empties every
     window — except our own component, whose intervals are in the
     durable log (rolling it back would reuse sequence numbers).  The
     [Stale_vc_after_restart] mutation models the restart that rolls it
     back to the last barrier too, without reissuing a number: the next
     [own_seq - b] intervals the node closes are the ones a stale clock
     would have numbered as pre-crash ones ([b] the last-barrier
     component), and peers drop their notices as duplicates
     ([Lrc_core.apply_intervals]). *)
  let own_seq = Vc.get node.vc node.id in
  Interval.Logs.rollback node.intervals ~keep:node.id;
  if mutation = Some Config.Stale_vc_after_restart then
    node.stale_seqs <-
      (own_seq, (2 * own_seq) - Vc.get node.last_barrier_vc node.id);
  (* Sleep out the rest of the downtime.  If this boundary was reached
     at or after the scheduled restart (the process was blocked the
     whole window), the effective downtime is zero but the wipe and
     recovery above/below still happened. *)
  if Engine.now cl.engine < node.crash_restart_at then begin
    let ivar = Proc.Ivar.create () in
    block node (Restart ivar);
    Proc.Ivar.await ivar
  end;
  (* Recovery round: ask every peer for its FULL retained interval log
     (a zero request clock).  Every log's floor is the same GC barrier
     clock and every peer's own window holds its intervals above it, so
     the replies, sorted into apply order, hold every interval the
     rolled-back clock lacks.  One [apply_intervals] re-appends those,
     once each however many peers retain them, and applies their
     notices, which rebuilds every notice list: [apply_notice] consults
     the per-entry reflected view, so notices a durable frame already
     contains are skipped.  A dropped page's next base copy can come from
     an arbitrarily stale holder, so its notice list must cover every
     retained write for diffs to chain from whatever base arrives (the
     zero page is the ultimate fallback base).  Affected pages end up
     invalid and re-fetch on demand through the normal validate path.
     Requests to a peer that is itself down park at its network
     interface and are answered after its restart.

     The [Skip_notice_replay] mutation asks only for what the
     last-barrier clock misses, moves the clock there without applying
     a notice, and then applies the replies — the classic recovery bug
     where the restarted node trusts its clock to tell it what it is
     missing. *)
  let skip = mutation = Some Config.Skip_notice_replay in
  let vc =
    if skip then begin
      let vc = Vc.copy node.last_barrier_vc in
      Vc.set vc node.id own_seq;
      vc
    end
    else Vc.Epoch.zero cl.vc_epoch
  in
  let batches = ref [] in
  (* One request record serves every peer: the payload is immutable and
     the network never retains it past delivery. *)
  let req = Msg.Recover_req { vc } in
  for p = node.nprocs - 1 downto 0 do
    if p <> node.id then begin
      match Lrc_core.call cl ~src:node.id ~dst:p req with
      | Msg.Recover_reply { intervals } -> batches := intervals :: !batches
      | _ -> failwith "Proto: unexpected recover reply"
    end
  done;
  if skip then Vc.blit_into ~src:vc ~dst:node.vc;
  Lrc_core.apply_intervals cl node (sort_intervals (List.concat !batches));
  (* The round must bring back everything the last barrier covered. *)
  if not (Vc.leq node.last_barrier_vc node.vc) then begin
    let p =
      List.find
        (fun p -> Vc.get node.vc p < Vc.get node.last_barrier_vc p)
        (List.init node.nprocs Fun.id)
    in
    failwith
      (Printf.sprintf
         "Proto: node %d recovered writer %d's clock to %d, below its last \
          barrier's %d"
         node.id p (Vc.get node.vc p) (Vc.get node.last_barrier_vc p))
  end;
  if checking cl then observe cl ~node:node.id Adsm_check.Obs.Restart

(* Operation-boundary hook: one predictable-false branch on the
   fault-free path. *)
let pause_if_crashed cl node = if node.crash_pending then crash_pause cl node

(* Crash and restart are engine events.  The crash parks the node's
   subsequent deliveries and marks it, so its next DSM operation
   boundary fail-stops ([crash_pause]).  The restart flushes the parked
   queue and wakes a process waiting out the downtime; it leaves any
   other wait alone — the flush may just have filled a lock wait. *)
let arm_crashes cl crashes =
  let net = Adsm_net.Rpc.network cl.rpc in
  List.iter
    (fun { Adsm_net.Fault.node = id; at; downtime } ->
      let node = cl.nodes.(id) in
      Engine.schedule_at cl.engine ~time:at (fun () ->
          Adsm_net.Network.fault_crash net ~node:id;
          node.crash_pending <- true;
          node.crash_restart_at <- at + downtime);
      Engine.schedule_at cl.engine ~time:(at + downtime) (fun () ->
          Adsm_net.Network.fault_restart net ~node:id;
          match node.wait with
          | Restart ivar ->
            node.wait <- Running;
            Proc.Ivar.fill cl.engine ivar ()
          | _ -> ()))
    crashes

(* ------------------------------------------------------------------ *)
(* Locks                                                              *)
(* ------------------------------------------------------------------ *)

(* Grant a lock to [requester]: close our interval (charging its cost as
   extra latency on the grant when running in event context) and send every
   interval the requester has not seen. *)
let lock_grant_now cl node lock requester req_vc ~charge_delay =
  (* Claim the token before any suspension point so no concurrent handler
     can decide to grant the same lock again. *)
  let ls = lock_state node ~home:(home_of_lock cl lock) lock in
  ls.have_token <- false;
  ls.next <- None;
  let delay = ref 0 in
  let charge =
    match charge_delay with
    | `Sleep -> fun ns -> Proc.sleep cl.engine ns
    | `Delay -> fun ns -> delay := !delay + ns
  in
  end_interval cl node ~charge;
  let intervals = Lrc_core.collect_unseen node req_vc in
  let send () =
    Lrc_core.cast cl ~src:node.id ~dst:requester
      (Msg.Lock_grant { lock; intervals })
  in
  if !delay = 0 then send () else Engine.schedule cl.engine ~delay:!delay send

let handle_lock_forward cl node ~requester ~vc lock =
  let ls = lock_state node ~home:(home_of_lock cl lock) lock in
  if ls.have_token && not ls.held then
    lock_grant_now cl node lock requester vc ~charge_delay:`Delay
  else begin
    assert (ls.next = None);
    ls.next <- Some (requester, vc)
  end

let handle_lock_acquire cl node ~src ~vc lock =
  (* We are the home: append [src] to the distributed queue. *)
  let ls = lock_state node ~home:(home_of_lock cl lock) lock in
  let prev = if ls.home_tail = -1 then node.id else ls.home_tail in
  ls.home_tail <- src;
  if prev = node.id then handle_lock_forward cl node ~requester:src ~vc lock
  else
    Lrc_core.cast cl ~src:node.id ~dst:prev
      (Msg.Lock_forward { lock; requester = src; vc })

let lock cl node l =
  pause_if_crashed cl node;
  let t0 = Engine.now cl.engine in
  let ls = lock_state node ~home:(home_of_lock cl l) l in
  if ls.have_token && not ls.held then ls.held <- true
  else begin
    end_interval_local cl node;
    let ivar = Proc.Ivar.create () in
    block node (Lock (l, ivar));
    let vc = Vc.copy node.vc in
    let home = home_of_lock cl l in
    if home = node.id then handle_lock_acquire cl node ~src:node.id ~vc l
    else
      Lrc_core.cast cl ~src:node.id ~dst:home
        (Msg.Lock_acquire { lock = l; vc });
    let intervals = Proc.Ivar.await ivar in
    node.wait <- Running;
    Lrc_core.apply_intervals cl node intervals;
    ls.have_token <- true;
    ls.held <- true
  end;
  if tracing cl then
    emit cl ~node:node.id (Adsm_trace.Event.Lock_acquire { lock = l });
  if checking cl then observe cl ~node:node.id (Adsm_check.Obs.Acquire { lock = l });
  Stats.add_time cl.stats ~category:Stats.Lock ~ns:(Engine.now cl.engine - t0)

let unlock cl node l =
  pause_if_crashed cl node;
  let ls = lock_state node ~home:(home_of_lock cl l) l in
  if not ls.held then invalid_arg "Dsm.unlock: lock not held";
  if tracing cl then
    emit cl ~node:node.id (Adsm_trace.Event.Lock_release { lock = l });
  if checking cl then observe cl ~node:node.id (Adsm_check.Obs.Release { lock = l });
  ls.held <- false;
  match ls.next with
  | Some (requester, vc) ->
    lock_grant_now cl node l requester vc ~charge_delay:`Sleep
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Barriers and garbage collection                                    *)
(* ------------------------------------------------------------------ *)

(* Rule 3 (Section 3.1.2): at a barrier, a write notice that dominates all
   other write notices — including this node's own recent writes — means
   false sharing has stopped. *)
let rule3_scan cl node =
  if Mode.adaptive cl then
    iter_entries node
      (fun (e : entry) ->
        match e.notices with
        | [] -> ()
        | notices ->
          let dominates (n : Notice.t) =
            List.for_all
              (fun (m : Notice.t) ->
                Notice.same_write n m || Notice.covers ~by:n m)
              notices
            (* [last_seq] is the seq of this node's latest writing
               interval on the page (0 if none): O(1) coverage (see
               [Notice.covers]). *)
            && Vc.get n.vc node.id >= last_seq e node.id
          in
          if List.exists dominates notices then
            Mode.set_fs_active cl ~node:node.id e false)

(* Pick the copy-fetch hint for a dropped page: the writer of the latest
   pending notice (necessarily a GC validator, since its diff is live). *)
let gc_fetch_hint (pending : Notice.t list) fallback =
  match pending with
  | [] -> fallback
  | n :: rest ->
    let best =
      List.fold_left
        (fun (acc : Notice.t) (m : Notice.t) ->
          if Vc.order m.vc acc.vc > 0 then m else acc)
        n rest
    in
    best.proc

(* Validation phase of garbage collection (runs in process context inside
   the barrier).  The protocol decides which copies survive: MW keeps every
   copy whose node has live own diffs; the adaptive protocols keep only the
   last owner's.  All other copies are dropped. *)
let gc_validate cl node =
  let (module P : Protocol_intf.PROTOCOL) = Dispatch.for_cluster cl in
  (* Copies are downgraded or dropped wholesale below. *)
  tlb_reset node;
  iter_entries node
    (fun (e : entry) ->
      let pending = List.filter (Lrc_core.notice_relevant node e) e.notices in
      if pending = [] then e.notices <- []
      else if P.gc_validator cl node e then begin
        (* Bring the copy fully up to date. *)
        if e.data = None then ignore (frame e);
        Lrc_core.fetch_and_apply_diffs cl node e;
        e.perm <- Perm.Read_only;
        e.content_version <- e.version;
        e.committed_version <- e.version
      end
      else begin
        let hint = gc_fetch_hint pending e.owner in
        if tracing cl then
          emit cl ~node:node.id (Adsm_trace.Event.Gc_drop { page = e.page });
        drop_copy e;
        if P.gc_retarget_owner_on_drop then e.owner <- hint
      end)

(* Purge the diff store and twins after everyone has validated. *)
let gc_purge cl node =
  let bytes = ref node.fetched_bytes and count = ref node.fetched_diffs in
  iter_entries node (fun e ->
      List.iter
        (fun (_, _, diff) ->
          bytes := !bytes + Diff.size_bytes diff;
          incr count)
        e.own_diffs;
      e.own_diffs <- []);
  node.own_bytes <- 0;
  node.fetched_diffs <- 0;
  node.fetched_bytes <- 0;
  Stats.diffs_dropped cl.stats ~count:!count ~time:(Engine.now cl.engine);
  if tracing cl then
    emit cl ~node:node.id
      (Adsm_trace.Event.Diff_gc { count = !count; bytes = !bytes });
  (* Interval logs are globally known at this point; drop them so grants
     stay small.  Vector clocks keep the ordering information.  Once
     every node has purged, the store drops what no log still holds. *)
  Interval.Logs.clear node.intervals

(* ------------------------------------------------------------------ *)
(* Barrier: a combining tree rooted at node 0                         *)
(* ------------------------------------------------------------------ *)

(* Node i's parent is (i-1)/fanout and its children are i*fanout+1 ..
   i*fanout+fanout.  A node folds its own arrival and each direct child
   subtree's combined arrival into one (min-clock, concatenated-intervals,
   OR'd gc flag) record and forwards a single Barrier_arrive to its
   parent.  The subtree MINIMUM clock is the right summary: it covers an
   interval iff every subtree member does, so collect_unseen against it
   returns the union of what the members are missing — over-sending to
   an individual member is harmless because apply_intervals skips covered
   intervals.  Only interior nodes fold: a leaf lends its own clock, and
   the root forwards nothing.

   Interior nodes only BUFFER interval lists on the way up (they apply
   nothing, in no particular order), and the root sorts the full
   combined batch into apply order and applies it in ONE step: applying
   arrivals one at a time would merge one node's clock (which covers
   other nodes' intervals) before those intervals' notices have been
   applied, silently dropping them.  Releases fan back down: the root
   sends them from the handler that completed the barrier; every other
   node, after applying its own release (which makes its knowledge
   complete — its release was computed against its subtree minimum),
   recomputes each direct child's missing set from the child's lent
   clock.  A release is read off the interval store in apply order, so
   no receiver sorts; the walk starts at the newest barrier mark the
   child's clock covers ([Interval.Store.mark], taken by the first node
   to leave each barrier), which for a node released after that mark
   was taken is the previous barrier's.

   The paper's barrier (a manager at node 0 that every node reports to
   directly) is the one-level tree, [Config.make]'s default fanout
   [max 2 nprocs]: the same 2(n-1) messages with the same contents. *)

(* A barrier arrival lends a clock by reference instead of copying it —
   the leaf's own, or an interior node's subtree minimum: the lender is
   blocked until its release, and nothing mutates a blocked node's clock
   before then.  The releases are computed from the lent clocks, so a
   handler that broke that rule would silently release the wrong
   intervals: fail loudly instead, comparing the clock's version with
   the one the arrival recorded when it was sent. *)
let check_lent ~src vc version =
  if Vc.version vc <> version then
    failwith
      (Printf.sprintf "Proto: node %d's clock changed while lent to a barrier" src)

let tree_parent cl node = (node.id - 1) / cl.cfg.Config.barrier_fanout

(* A node's direct children are [tree_first_child ..] onwards,
   [tree_children] of them. *)
let tree_first_child cl node = (node.id * cl.cfg.Config.barrier_fanout) + 1

let tree_children cl node =
  let first = tree_first_child cl node in
  if first >= node.nprocs then 0
  else min cl.cfg.Config.barrier_fanout (node.nprocs - first)

(* Fold one arrival (the node's own, or a child subtree's combined one)
   into the local combining state.  An interior node copies clock
   components into [tb_vcmin], allocated at its first barrier and reused
   after.  The clocks folded share the epoch base, so the blit and the
   minimum walk only the components that moved since the last barrier. *)
let tree_contribute cl node ~epoch ~vc ~intervals ~gc_wanted =
  let tb = node.tb in
  let first = tb.tb_arrived = 0 && not tb.tb_self_arrived in
  if first then tb.tb_epoch <- epoch
  else if epoch <> tb.tb_epoch then
    failwith
      (Printf.sprintf "Proto: barrier epoch mismatch (%d vs %d)" epoch
         tb.tb_epoch);
  if node.id <> 0 && tree_children cl node > 0 then begin
    let vcmin =
      match tb.tb_vcmin with
      | Some m -> m
      | None ->
        let m = Vc.Epoch.zero cl.vc_epoch in
        tb.tb_vcmin <- Some m;
        m
    in
    if first then Vc.blit_into ~src:vc ~dst:vcmin else Vc.min_into vcmin vc
  end;
  (* Order is irrelevant: the root sorts the combined batch once. *)
  tb.tb_intervals <- List.rev_append intervals tb.tb_intervals;
  if gc_wanted then tb.tb_gc_wanted <- true

(* Send each direct child the intervals its lent clock misses, in arrival
   order, and reset the combining state for the next barrier. *)
let tree_release_children cl node ~epoch ~gc_round =
  let tb = node.tb in
  List.iter
    (fun (child, cvc, version) ->
      check_lent ~src:child cvc version;
      let intervals = Lrc_core.collect_unseen node cvc in
      Lrc_core.cast cl ~src:node.id ~dst:child
        (Msg.Barrier_release { epoch; intervals; gc_round }))
    (List.rev tb.tb_child_vcs);
  tb.tb_arrived <- 0;
  tb.tb_self_arrived <- false;
  tb.tb_intervals <- [];
  tb.tb_gc_wanted <- false;
  tb.tb_child_vcs <- []

(* Root completion: apply the whole combined batch, send the children's
   releases, and only then wake the root's own process — the order in
   which the paper's manager released its nodes. *)
let tree_root_complete cl node =
  let tb = node.tb in
  Lrc_core.apply_intervals cl node
    (sort_intervals tb.tb_intervals);
  let gc_round = tb.tb_gc_wanted in
  if gc_round then Stats.gc_started cl.stats;
  let epoch = tb.tb_epoch in
  tree_release_children cl node ~epoch ~gc_round;
  wake cl node (Msg.Barrier_release { epoch; intervals = []; gc_round })

let tree_maybe_forward cl node =
  let tb = node.tb in
  if tb.tb_self_arrived && tb.tb_arrived = tree_children cl node then
    if node.id = 0 then tree_root_complete cl node
    else
      let vc = Option.value tb.tb_vcmin ~default:node.vc in
      Lrc_core.cast cl ~src:node.id
        ~dst:(tree_parent cl node)
        (Msg.Barrier_arrive
           {
             epoch = tb.tb_epoch;
             vc;
             vc_version = Vc.version vc;
             intervals = tb.tb_intervals;
             gc_wanted = tb.tb_gc_wanted;
           })

let handle_barrier_arrive cl node ~src ~vc ~vc_version ~intervals ~gc_wanted
    epoch =
  let tb = node.tb in
  tree_contribute cl node ~epoch ~vc ~intervals ~gc_wanted;
  tb.tb_arrived <- tb.tb_arrived + 1;
  tb.tb_child_vcs <- (src, vc, vc_version) :: tb.tb_child_vcs;
  tree_maybe_forward cl node

(* GC completion fans down the static tree. *)
let handle_gc_complete cl node epoch =
  let tb = node.tb in
  let msg = Msg.Gc_complete { epoch } in
  let first = tree_first_child cl node in
  for c = first to first + tree_children cl node - 1 do
    Lrc_core.cast cl ~src:node.id ~dst:c msg
  done;
  tb.tb_gc_done <- 0;
  tb.tb_self_gc_done <- false;
  wake cl node msg

(* Combine Gc_done up the tree: forwarded once this node AND every direct
   child subtree have finished validating. *)
let tree_gc_maybe_up cl node ~epoch =
  let tb = node.tb in
  if tb.tb_self_gc_done && tb.tb_gc_done = tree_children cl node then
    if node.id = 0 then handle_gc_complete cl node epoch
    else
      Lrc_core.cast cl ~src:node.id
        ~dst:(tree_parent cl node)
        (Msg.Gc_done { epoch })

let handle_gc_done cl node epoch =
  node.tb.tb_gc_done <- node.tb.tb_gc_done + 1;
  tree_gc_maybe_up cl node ~epoch

let barrier cl node =
  pause_if_crashed cl node;
  let t0 = Engine.now cl.engine in
  if tracing cl then
    emit cl ~node:node.id
      (Adsm_trace.Event.Barrier_enter { epoch = node.barrier_epoch });
  if checking cl then
    observe cl ~node:node.id
      (Adsm_check.Obs.Barrier_enter { epoch = node.barrier_epoch });
  end_interval_local cl node;
  let gc_wanted = diff_bytes node > cl.cfg.Config.gc_threshold_bytes in
  let ivar = Proc.Ivar.create () in
  block node (Barrier ivar);
  let epoch = node.barrier_epoch in
  node.barrier_epoch <- epoch + 1;
  let own_intervals =
    Interval.Logs.unseen_of node.intervals ~proc:node.id node.last_barrier_vc []
  in
  tree_contribute cl node ~epoch ~vc:node.vc ~intervals:own_intervals
    ~gc_wanted;
  node.tb.tb_self_arrived <- true;
  tree_maybe_forward cl node;
  (match Proc.Ivar.await ivar with
  | Msg.Barrier_release { intervals; gc_round; _ } ->
    Lrc_core.apply_intervals cl node intervals;
    (* Knowledge is complete now; release the children before the
       (possibly long) rule-3 scan and GC work below.  The root released
       its children when it completed the barrier. *)
    if node.id <> 0 then tree_release_children cl node ~epoch ~gc_round;
    (* Every node completing this barrier holds the same supremum: the
       first to get here publishes it as the cluster's epoch base, the
       others check their clock against it and share it (epochs count
       from 1; 0 is the all-zeros base of [make_node]).  The snapshot
       below is then a copy of no components, and the epoch stamp lets
       the sparse-VC delta count of a clock on an older base be cached
       once per epoch instead of rescanned per receiver.  The first to
       leave also marks the interval store: every interval closed from
       here on sorts after every one stored so far. *)
    Vc.Epoch.leave cl.vc_epoch ~epoch:(epoch + 1) node.vc;
    Interval.Store.mark cl.interval_store ~epoch:(epoch + 1) node.vc;
    Vc.blit_into ~src:node.vc ~dst:node.last_barrier_vc;
    Vc.rebase node.vc ~base:node.last_barrier_vc ~epoch:(epoch + 1);
    rule3_scan cl node;
    if gc_round then begin
      let gc_ivar = Proc.Ivar.create () in
      block node (Gc gc_ivar);
      gc_validate cl node;
      node.tb.tb_self_gc_done <- true;
      tree_gc_maybe_up cl node ~epoch;
      Proc.Ivar.await gc_ivar;
      gc_purge cl node
    end
  | _ -> failwith "Proto: unexpected barrier reply");
  if tracing cl then
    emit cl ~node:node.id (Adsm_trace.Event.Barrier_leave { epoch });
  if checking cl then
    observe cl ~node:node.id (Adsm_check.Obs.Barrier_leave { epoch });
  Stats.add_time cl.stats ~category:Stats.Barrier
    ~ns:(Engine.now cl.engine - t0)
