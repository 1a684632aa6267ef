(* The lazy-release-consistency substrate shared by every protocol:
   interval closure, vector-clock plumbing, write-notice application, diff
   fetch/apply, page validation, and the server-side page/diff service.

   Protocol policy enters through two seams: {!end_interval} threads the
   cluster's protocol module (a {!Protocol_intf.t}) into the per-page close
   step, and {!close_page_default} exposes the twin/diff machinery with the
   per-protocol choices (diff sink, clean-page closure, granularity
   measurement) as parameters.

   Conventions inherited from the paper (Section 3):
   - an interval is closed (diffs / owner write notices created) at every
     release *and* before applying remotely received notices, so
     [apply_notice] never encounters a dirty page;
   - diffs are created eagerly at interval close (a documented
     simplification of TreadMarks's lazy diffing): [close_page_default]
     is the one place a closed interval's diff is created;
   - an owner that grants ownership does NOT learn the new version number;
     it propagates only through owner write notices, which is what makes
     the ownership-refusal test detect false sharing (paper Section 3.1.1,
     second example). *)

module Page = Adsm_mem.Page
module Perm = Adsm_mem.Perm
module Engine = Adsm_sim.Engine
module Proc = Adsm_sim.Proc
module Rpc = Adsm_net.Rpc
open State

(* ------------------------------------------------------------------ *)
(* Sending helpers                                                    *)
(* ------------------------------------------------------------------ *)

(* Wire-size accounting for one outgoing message.  Under [sparse_vc]
   every piggybacked vector clock is charged at its delta-encoded size
   relative to the sender's last-barrier clock — knowledge the receiver
   provably shares — instead of 4 dense bytes per processor; a clock
   relayed to many receivers is counted once per barrier epoch.  Pure
   cost model: message content and protocol behaviour are unchanged. *)
let msg_bytes cl ~src msg =
  let node = cl.nodes.(src) in
  if cl.cfg.Config.sparse_vc then
    Msg.size_bytes
      ~vc_bytes:(Vc.delta_size_bytes ~since:node.last_barrier_vc)
      ~nprocs:node.nprocs msg
  else Msg.size_bytes ~nprocs:node.nprocs msg

let cast cl ~src ~dst msg =
  Rpc.cast cl.rpc ~src ~dst ~bytes:(msg_bytes cl ~src msg)
    ~kind:(Msg.kind msg) msg

let call cl ~src ~dst msg =
  Rpc.call cl.rpc ~src ~dst ~bytes:(msg_bytes cl ~src msg)
    ~kind:(Msg.kind msg) msg

let call_async cl ~src ~dst msg =
  Rpc.call_async cl.rpc ~src ~dst ~bytes:(msg_bytes cl ~src msg)
    ~kind:(Msg.kind msg) msg

(* [node] is the responder: its last-barrier clock is the delta base. *)
let respond_msg cl node respond msg =
  respond ~bytes:(msg_bytes cl ~src:node.id msg) ~kind:(Msg.kind msg) msg

(* ------------------------------------------------------------------ *)
(* Interval closure (release side)                                    *)
(* ------------------------------------------------------------------ *)

(* Default diff sink: keep the diff on the page's entry (TreadMarks).
   [vc] is the snapshot [end_interval] also hands to [Interval.make]:
   the diff's clock is its interval's timestamp, not a copy.  Seqs only
   grow, so the page's list stays newest first. *)
let store_diff _cl node (e : entry) ~seq ~vc diff =
  (match e.own_diffs with
   | (newest, _, _) :: _ when newest >= seq ->
     failwith
       (Printf.sprintf "Proto: node %d stored diff %d of page %d after %d"
          node.id seq e.page newest)
   | _ -> ());
  e.own_diffs <- (seq, vc, diff) :: e.own_diffs;
  node.own_bytes <- node.own_bytes + Diff.size_bytes diff

(* Default closure of a dirty page with neither twin nor write log: a
   single-writer page the node owned while writing (it may have transferred
   ownership away mid-interval under SW).  Emits an owner write notice.
   The interval has no diff, so the reflected view does not record it:
   the page's versions track owner writes. *)
let close_owned cl node (e : entry) ~seq:_ =
  e.committed_version <- e.version;
  if e.content_version < e.version then e.content_version <- e.version;
  if cl.cfg.Config.nprocs > 1 && e.is_owner then begin
    e.perm <- Perm.Read_only;
    tlb_reset node
  end;
  let v = e.version in
  if e.drop_at_release then begin
    (* Ownership refusal or WFS+WG sharing trigger: emit a final owner
       notice, then drop to MW mode. *)
    e.drop_at_release <- false;
    Mode.leave_sw cl node e
  end;
  Some v

(* The twin/diff close step shared by every protocol's [close_page]:
   [sink] receives each created diff (stored locally by default, flushed to
   the home by HLRC); [close_clean] closes a dirty page with neither twin
   nor write log (an owned SW-mode page by default, the master copy under
   HLRC); [measure] enables the WFS+WG write-granularity measurement. *)
let close_page_default ?(measure = false) ?(sink = store_diff)
    ?(close_clean = close_owned) cl node (e : entry) ~seq ~vc ~charge =
  let twin = e.twin in
  if Option.is_none twin && Option.is_none e.write_log then
    close_clean cl node e ~seq
  else begin
    let diff, cost =
      match twin with
      | Some twin ->
        (* MW-mode page: eager twin/diff.  The diff holds its own copy
           of the modified words, so the twin buffer goes back to the
           page pool. *)
        e.twin <- None;
        let diff =
          Diff.create ~scratch:cl.diff_scratch ~twin ~current:(frame e) ()
        in
        recycle_page cl twin;
        (diff, Config.diff_create_ns)
      | None ->
        (* Software write detection: build the diff from the logged
           ranges — no twin, no page scan; the cost is the per-write
           logging plus a small assembly cost per range. *)
        let log = Option.get e.write_log in
        let diff = Diff.of_ranges log.ranges (frame e) in
        let cost =
          (log.words * Config.write_log_ns)
          + (Diff.run_count diff * Config.diff_run_ns)
        in
        e.write_log <- None;
        (diff, cost)
    in
    charge cost;
    let bytes = Diff.size_bytes diff in
    let modified = Diff.modified_bytes diff in
    Stats.diff_created cl.stats ~bytes ~modified ~time:(Engine.now cl.engine);
    if tracing cl then begin
      emit cl ~node:node.id
        (Adsm_trace.Event.Diff_create { page = e.page; seq; bytes; modified });
      if Option.is_some twin then
        emit cl ~node:node.id (Adsm_trace.Event.Twin_free { page = e.page })
    end;
    sink cl node e ~seq ~vc diff;
    reflected_set e ~nprocs:node.nprocs node.id seq;
    e.perm <- Perm.Read_only;
    tlb_reset node;
    (* Write-granularity measurement (Section 3.2).  A flip of [wg_large]
       is not a mode change: the page changes mode only when a later
       transition acts on it ([Mode.switched]). *)
    if measure then begin
      e.measured <- true;
      e.wg_large <- modified > cl.cfg.Config.wg_threshold_bytes
    end;
    None
  end

(* Close the node's current interval: run the protocol's [close_page] on
   every dirty page and append the resulting write notices as a new
   interval.

   The state update is ATOMIC — no suspension point inside — because other
   events (e.g. a lock-forward handler granting a different lock) may run
   interleaved and must observe a consistent interval state.  The total CPU
   cost is passed to [charge] once at the end: in process context it
   sleeps, in event context it becomes added latency on the triggered
   reply. *)
let end_interval cl (module P : Protocol_intf.PROTOCOL) node ~charge =
  let total_cost = ref 0 in
  let charge_later ns = total_cost := !total_cost + ns in
  if node.dirty_pages <> [] then begin
    Vc.tick node.vc ~proc:node.id;
    let vc_snapshot = Vc.copy node.vc in
    let seq = Vc.get node.vc node.id in
    let notices = ref [] in
    (* [mark_page_dirty] lists a page only while its [dirty] flag is off,
       and only [close_page] and the crash wipe (which runs after the
       interval closed) clear it: no page is listed twice. *)
    let close_page page =
      let e = entry_of node page in
      assert e.dirty;
      e.dirty <- false;
      Stats.note_write cl.stats ~page;
      set_last_notice ~covers_all:false node e node.id seq;
      let version =
        P.close_page cl node e ~seq ~vc:vc_snapshot ~charge:charge_later
      in
      (* Mutation seam (testing only): lose odd pages' write notices —
         the modification happened and was diffed, but nobody is told. *)
      let dropped =
        match cl.cfg.Config.mutation with
        | Some Config.Drop_write_notice -> page land 1 = 1
        | _ -> false
      in
      if not dropped then
        notices :=
          { Notice.page; proc = node.id; seq; vc = vc_snapshot; version }
          :: !notices
    in
    List.iter close_page node.dirty_pages;
    node.dirty_pages <- [];
    (* The interval owns the snapshot its notices already share; the
       tick above already extended the node's own window over it. *)
    Interval.Store.add cl.interval_store
      (Interval.make ~proc:node.id ~vc:vc_snapshot ~notices:(List.rev !notices))
  end;
  if !total_cost > 0 then charge !total_cost

(* ------------------------------------------------------------------ *)
(* Notice application (acquire side)                                  *)
(* ------------------------------------------------------------------ *)

(* Note false sharing if any recorded writer is concurrent with [n];
   returns whether [n] covers every recorded writer, for [set_last_notice]
   (false when the check is skipped). *)
let note_concurrent_writers cl node (e : entry) (n : Notice.t) =
  (* Both effects of a detected concurrent writer are idempotent — the
     stats note is a set insert, and flipping an already-active fs mode
     is a no-op — so noting them once per notice is the same as once per
     concurrent writer, and once the page's false sharing is committed
     to the stats AND (for adaptive protocols) this entry's fs mode is
     already active, the check can have no observable effect: skip it. *)
  if
    (not (Stats.page_false_shared cl.stats ~page:n.page))
    || (Mode.adaptive cl && not e.fs_active)
  then
    match check_writers node e n with
    | Covers_all -> true
    | Uncovered -> false
    | Concurrent ->
      Stats.note_false_sharing cl.stats ~page:n.page;
      if Mode.adaptive cl then Mode.set_fs_active cl ~node:node.id e true;
      false
  else false

(* Is notice [n]'s modification still missing from this node's copy?
   Plain notices are tracked per applied diff (reflected sequence numbers);
   owner notices by the version the local contents reflect. *)
let notice_relevant node (e : entry) (n : Notice.t) =
  n.proc <> node.id
  &&
  match n.version with
  | Some v -> v > e.content_version
  | None -> n.seq > reflected_get e n.proc

(* [notices] without those [n] covers (on-the-fly GC below), physically
   unchanged when it drops none. *)
let rec drop_covered (n : Notice.t) = function
  | [] -> []
  | m :: rest as l ->
    let rest' = drop_covered n rest in
    if Notice.covers ~by:n m then rest'
    else if rest' == rest then l
    else m :: rest'

(* Some pending notice of another writer is concurrent with [n]. *)
let rec other_concurrent (n : Notice.t) = function
  | [] -> false
  | (m : Notice.t) :: rest ->
    (m.proc <> n.proc && Notice.concurrent m n) || other_concurrent n rest

let apply_notice cl node (n : Notice.t) =
  let e = entry_of node n.page in
  let covers_all = note_concurrent_writers cl node e n in
  set_last_notice ~covers_all node e n.proc n.seq;
  if notice_relevant node e n then begin
    (match n.version with
    | Some v ->
      if v > e.version then begin
        e.version <- v;
        e.owner <- n.proc;
        if e.is_owner then
          (* Someone re-established ownership elsewhere (post-GC). *)
          e.is_owner <- false
      end;
      (* On-the-fly garbage collection: notices covered by an owner write
         notice are reflected in the owner's copy and can be discarded. *)
      e.notices <- drop_covered n e.notices;
      (* Rule 2 (Section 3.1.2): a fresh owner notice with no concurrent
         secondary notices means false sharing has stopped.  Our own recent
         writes count as secondary notices here: an owner notice concurrent
         with them does NOT end the false sharing.  Our latest notice's
         clock is read only when [n] does not cover it. *)
      let own = last_seq e node.id in
      let own_concurrent =
        Vc.get n.vc node.id < own
        && Vc.get
             (Interval.Logs.clock_of node.intervals ~page:n.page ~proc:node.id own)
             n.proc
           < n.seq
      in
      if
        Mode.adaptive cl && (not own_concurrent)
        && not (other_concurrent n e.notices)
      then Mode.set_fs_active cl ~node:node.id e false
    | None -> ());
    (* No pending notice arrives twice: a notice belongs to exactly one
       interval, the freshness guard applies each interval at most once
       per node, and a crash wipe, which rolls the clock back over
       applied intervals, empties every entry's pending notices. *)
    e.notices <- n :: e.notices;
    if Perm.allows_read e.perm then begin
      e.perm <- Perm.No_access;
      tlb_reset node
    end
  end

let rec apply_notices cl node = function
  | [] -> ()
  | n :: rest ->
    apply_notice cl node n;
    apply_notices cl node rest

(* Mutation seam (testing only): under [Stale_vc_after_restart] peers
   take a restarted writer's first intervals for duplicates of the
   pre-crash ones a stale clock would have reissued: they log them and
   merge their clocks, but drop their notices. *)
let taken_for_duplicate cl (iv : Interval.t) =
  match cl.cfg.Config.mutation with
  | Some Config.Stale_vc_after_restart ->
    let lo, hi = cl.nodes.(iv.proc).stale_seqs in
    iv.seq > lo && iv.seq <= hi
  | _ -> false

(* Apply intervals received on a lock grant, barrier release or recovery
   round, in the order given, which must be [Vc.order]: the store keeps
   them in it, so a batch read off a log arrives sorted.  Duplicates
   (already covered by our vector clock) are skipped.  Neighbours whose
   sums are inverted fail loudly: that is every inversion that can put
   an interval before one it depends on, since a dominated clock has the
   smaller sum.  Equal neighbours pass (a recovery round hears one
   interval from several peers). *)
let rec apply_intervals cl node = function
  | [] -> ()
  | (iv : Interval.t) :: rest ->
    (match rest with
    | (next : Interval.t) :: _ when Vc.sum iv.vc > Vc.sum next.vc ->
      failwith
        (Printf.sprintf
           "Proto: node %d got writer %d's interval %d before writer %d's \
            interval %d, out of timestamp order"
           node.id iv.proc iv.seq next.proc next.seq)
    | _ -> ());
    if iv.seq > Vc.get node.vc iv.proc then begin
      (* The append advances the sender component of the clock, which
         is the whole clock merge.  Interval chains are transitively
         complete: a dependency of [iv] — [p]'s interval [iv.vc.(p)] —
         is either already covered here (its retention site GC'd it only
         once every node covered it) or rides the same chain with a
         dominated timestamp, hence was just applied ([Vc.order]
         extends happened-before).  Either way every component of
         [iv.vc] except [iv.proc]'s is at or below ours by the time [iv]
         applies, and that one is exactly [iv.seq]. *)
      Interval.Logs.append node.intervals iv;
      if not (taken_for_duplicate cl iv) then
        apply_notices cl node iv.notices
    end;
    apply_intervals cl node rest

(* All intervals this node knows that [vc] does not cover, in apply
   order. *)
let collect_unseen node vc = Interval.Logs.unseen_by node.intervals vc

(* ------------------------------------------------------------------ *)
(* Page validation (access-miss side)                                 *)
(* ------------------------------------------------------------------ *)

(* Install a received page copy as the new base of the local frame.
   The copy was its message's until now; the frame holds it from here
   on, so its buffer goes back to the page pool. *)
let install_copy cl node e ~data ~version ~committed ~reflected =
  Proc.sleep cl.engine Config.page_install_ns;
  Page.blit ~src:data ~dst:(frame e);
  recycle_page cl data;
  e.has_base <- true;
  if version > e.version then e.version <- version;
  (* Only the version whose interval the copy fully contains dominates
     owner write notices; a dirty owner's current frame holds a PARTIAL
     newer interval that must not be claimed. *)
  if committed > e.content_version then e.content_version <- committed;
  if committed > e.committed_version then e.committed_version <- committed;
  reflected_install e reflected;
  e.notices <- List.filter (notice_relevant node e) e.notices

(* Fetch (in parallel, one request per writer) and apply, in timestamp
   order, every pending diff for the page.  Runs in process context. *)
let fetch_and_apply_diffs cl node (e : entry) =
  let pending = List.filter (notice_relevant node e) e.notices in
  let plain = List.filter (fun n -> not (Notice.is_owner n)) pending in
  (* Own committed modifications not reflected in the (possibly freshly
     installed) base copy must be merged back from our own diffs. *)
  let own_missing =
    List.filter (fun (seq, _, _) -> seq > reflected_get e node.id) e.own_diffs
  in
  if plain <> [] || own_missing <> [] then begin
    (* Group the missing diffs by their writer. *)
    let by_writer = Hashtbl.create 8 in
    let record (n : Notice.t) =
      let prev = Option.value ~default:[] (Hashtbl.find_opt by_writer n.proc) in
      Hashtbl.replace by_writer n.proc (n.seq :: prev)
    in
    List.iter record plain;
    let requests =
      Hashtbl.fold
        (fun writer seqs acc ->
          let seqs = List.sort compare seqs in
          let msg =
            Msg.Diff_req
              { page = e.page; seqs; sees_sw = Mode.sees_page_as_sw e }
          in
          (writer, seqs, call_async cl ~src:node.id ~dst:writer msg) :: acc)
        by_writer []
    in
    (* Await the replies.  A fetched diff is applied from its reply and
       then only accounted: nothing reads it back. *)
    let fetched =
      List.concat_map
        (fun (writer, seqs, ivar) ->
          match Proc.Ivar.await ivar with
          | Msg.Diff_reply { diffs; _ }
            when List.map (fun (seq, _, _) -> seq) diffs = seqs ->
            List.map
              (fun (seq, vc, diff) ->
                node.fetched_diffs <- node.fetched_diffs + 1;
                node.fetched_bytes <- node.fetched_bytes + Diff.size_bytes diff;
                Stats.diff_fetched cl.stats ~time:(Engine.now cl.engine);
                (vc, diff, writer, seq))
              diffs
          | Msg.Diff_reply _ ->
            failwith
              (Printf.sprintf "Proto: node %d's reply lacks a diff of page %d"
                 writer e.page)
          | _ -> failwith "Proto: unexpected reply to Diff_req")
        requests
    in
    (* Apply every pending diff — remote and our own — in timestamp order. *)
    let to_apply =
      fetched
      @ List.map (fun (seq, vc, diff) -> (vc, diff, node.id, seq)) own_missing
    in
    let to_apply =
      List.sort (fun (va, _, _, _) (vb, _, _, _) -> Vc.order va vb) to_apply
    in
    let target = frame e in
    List.iter
      (fun (_, diff, proc, seq) ->
        Proc.sleep cl.engine
          (Config.diff_apply_base_ns
          + (Diff.modified_bytes diff * Config.diff_apply_byte_ns));
        (* Mutation seam (testing only): skip the memory effect of remote
           diffs while keeping every cost, message and bookkeeping step, so
           only the consistency oracle can tell the difference. *)
        let skipped =
          match cl.cfg.Config.mutation with
          | Some Config.Skip_diff_apply -> proc <> node.id
          | _ -> false
        in
        if not skipped then Diff.apply diff target;
        if tracing cl then
          emit cl ~node:node.id
            (Adsm_trace.Event.Diff_apply { page = e.page; writer = proc; seq });
        if seq > reflected_get e proc then reflected_set e ~nprocs:node.nprocs proc seq)
      to_apply
  end;
  e.notices <- []

(* Make the page readable: fetch a base copy if needed (from the processor
   named in the owner write notice with the highest version, or from the
   copy-fetch hint), then fetch and apply pending diffs.  Used by every
   protocol except HLRC, whose homes serve whole current pages instead. *)
let validate cl node (e : entry) =
  if not (Perm.allows_read e.perm) then begin
    let pending = List.filter (notice_relevant node e) e.notices in
    let owner_notices = List.filter Notice.is_owner pending in
    (* The local frame (or the implicit initial zero page) is a valid diff
       base; a whole-page fetch is needed only after a GC dropped the copy,
       or when an owner write notice says a fresher whole-page copy exists. *)
    let need_base = not e.has_base || owner_notices <> [] in
    if need_base then begin
      let target =
        match owner_notices with
        | [] -> e.owner
        | ns ->
          let best =
            List.fold_left
              (fun (acc : Notice.t) (n : Notice.t) ->
                match (acc.version, n.version) with
                | Some va, Some vb -> if vb > va then n else acc
                | _ -> acc)
              (List.hd ns) (List.tl ns)
          in
          best.proc
      in
      if target = node.id then
        failwith
          (Printf.sprintf
             "Proto: node %d needs a base for page %d but is its own fetch \
              hint"
             node.id e.page)
      else begin
        match call cl ~src:node.id ~dst:target (Msg.Page_req { page = e.page }) with
        | Msg.Page_reply { data; version; committed; reflected; _ } ->
          install_copy cl node e ~data ~version ~committed ~reflected
        | _ -> failwith "Proto: unexpected reply to Page_req"
      end
    end;
    fetch_and_apply_diffs cl node e;
    e.perm <- Perm.Read_only
  end

(* ------------------------------------------------------------------ *)
(* Write-side helpers                                                 *)
(* ------------------------------------------------------------------ *)

let mark_page_dirty node (e : entry) =
  e.perm <- Perm.Read_write;
  if not e.dirty then begin
    e.dirty <- true;
    node.dirty_pages <- e.page :: node.dirty_pages
  end

(* A twin comes from the page pool: an MW run twins and diffs the same
   pages interval after interval, and a fresh page-sized buffer per twin
   is major-heap allocation the GC must then reclaim.  Twins and page
   copies in messages share the pool; frames never enter it, because a
   software-TLB slot may still hold a frame's buffer after the entry
   lets it go. *)
let make_twin cl node (e : entry) =
  assert (Option.is_none e.twin);
  Proc.sleep cl.engine Config.twin_ns;
  let twin = pooled_copy cl (frame e) in
  e.twin <- Some twin;
  Stats.twin_created cl.stats;
  if tracing cl then
    emit cl ~node:node.id (Adsm_trace.Event.Twin_create { page = e.page })

(* Become (or re-become) owner locally: bump the version, as ownership is
   being (re)acquired (Section 2.3). *)
let acquire_ownership_locally cl node (e : entry) =
  e.version <- e.version + 1;
  e.content_version <- e.version;
  e.is_owner <- true;
  e.owner <- node.id;
  e.owned_at <- Engine.now cl.engine

(* The version an ownership grant hands over (SW transfer and adaptive
   grant alike).  Mutation seam (testing only): a stale version, so the new
   owner's version bump collides with what peers already hold and its
   owner write notices are silently discarded as dominated. *)
let granted_version cl (e : entry) =
  match cl.cfg.Config.mutation with
  | Some Config.Stale_ownership_grant -> e.version - 1
  | _ -> e.version

(* MW-mode write path: valid copy + twin (or, with software write
   detection enabled, a write log instead of a twin). *)
let mw_write_path cl node (e : entry) =
  validate cl node e;
  if cl.cfg.Config.write_ranges then begin
    if Option.is_none e.write_log then
      e.write_log <- Some { ranges = []; words = 0 };
    (* A cached writable slot would bypass the write log. *)
    tlb_reset node
  end
  else make_twin cl node e;
  mark_page_dirty node e

(* ------------------------------------------------------------------ *)
(* Server-side page and diff service (event context: never block)     *)
(* ------------------------------------------------------------------ *)

let serve_page cl node ~src page respond =
  let e = entry_of node page in
  match committed_copy e with
  | None ->
    failwith
      (Printf.sprintf
         "Proto: node %d has no copy of page %d to serve (src=%d perm=%s \
          owner=%d version=%d is_owner=%b notices=%d)"
         node.id page src
         (Perm.to_string e.perm)
         e.owner e.version e.is_owner
         (List.length e.notices))
  | Some copy ->
    respond_msg cl node respond
      (Msg.Page_reply
         {
           page;
           data = pooled_copy cl copy;
           version = e.version;
           committed = e.committed_version;
           reflected = reflected_ship e ~nprocs:node.nprocs;
         })

let serve_diffs cl node ~page ~seqs respond =
  let e = entry_of node page in
  (* [seqs] is ascending and the page's diffs newest first: one walk
     down the list from the last seq. *)
  let rec pick acc wanted held =
    match (wanted, held) with
    | [], _ -> acc
    | w :: ws, ((seq, _, _) as d) :: _ when seq = w -> pick (d :: acc) ws held
    | w :: _, (seq, _, _) :: older when seq > w -> pick acc wanted older
    | w :: _, _ ->
      failwith
        (Printf.sprintf "Proto: node %d asked for missing diff %d/%d" node.id
           page w)
  in
  let diffs = pick [] (List.rev seqs) e.own_diffs in
  respond_msg cl node respond (Msg.Diff_reply { page; diffs })
