(* The adaptive protocols (paper Section 3): WFS adapts between SW and MW
   per page on write-write false sharing, detected with the
   ownership-refusal protocol; WFS+WG adds write-granularity adaptation
   (pages with large measured diffs stay single-writer).  Both share this
   module — {!Mode.prefers_sw} and the [measure] flag read the configured
   variant.  The migratory-detection extension also lives here.

   Each transition is written once: a page leaves and re-enters SW mode
   through {!Mode}, a requester asks for ownership through
   [request_ownership], and the owner answers through [handle_own_req]'s
   [grant] and [refuse]. *)

module Perm = Adsm_mem.Perm
open State

let close_page cl node (e : entry) ~seq ~vc ~charge =
  Lrc_core.close_page_default ~measure:(Mode.is_wfs_wg cl) cl node e ~seq ~vc
    ~charge

(* Owner-side reaction to the page becoming shared before its granularity
   has been measured (WFS+WG only): switch it to MW mode, after emitting a
   final owner notice if there are unreleased writes.  Returns whether it
   fired. *)
let wg_sharing_trigger cl node (e : entry) =
  let fire =
    Mode.is_wfs_wg cl && e.is_owner && (not e.measured) && e.version > 0
  in
  if fire then begin
    e.measured <- true;
    Mode.leave_sw_at_release cl node e
  end;
  fire

(* The ownership-refusal protocol, requester side (Section 3.1.1): one
   Own_req/Own_reply exchange with the last known owner.  A copy carried by
   the reply is installed; a grant brings it up to date and makes this
   node the owner, a refusal records its cause.  The caller lands on the
   returned verdict. *)
let request_ownership cl node (e : entry) ~want_data =
  Stats.ownership_request cl.stats;
  if tracing cl then
    emit cl ~node:node.id
      (Adsm_trace.Event.Own_request
         { page = e.page; owner = e.owner; version = e.version });
  match
    Lrc_core.call cl ~src:node.id ~dst:e.owner
      (Msg.Own_req { page = e.page; version = e.version; want_data })
  with
  | Msg.Own_reply { result; version; committed; data; _ } ->
    (match data with
    | Some (data, reflected) ->
      Lrc_core.install_copy cl node e ~data ~version ~committed ~reflected
    | None -> ());
    (match result with
    | Msg.Granted ->
      Lrc_core.fetch_and_apply_diffs cl node e;
      e.version <- version;
      Lrc_core.acquire_ownership_locally cl node e
    | Msg.Refused_measure -> e.measured <- true
    | Msg.Refused_fs ->
      Stats.ownership_refused cl.stats;
      Stats.note_false_sharing cl.stats ~page:e.page;
      Mode.set_fs_active cl ~node:node.id e true);
    result
  | _ -> failwith "Proto: unexpected reply to Own_req"

(* Adaptive write fault.  [Lrc_core.validate] suspends, and an ownership
   request handler may run meanwhile and grant our ownership away, so
   ownership is re-checked after every suspension point (the [restart]
   calls).  A refused request lands on the MW write path over the base
   copy the refusal installed. *)
let rec write_fault cl node (e : entry) =
  let restart () = write_fault cl node e in
  if Mode.prefers_sw cl e then begin
    if e.is_owner then begin
      (* Concurrent MW diffs may have invalidated even an owned page. *)
      Lrc_core.validate cl node e;
      if not e.is_owner then restart ()
      else begin
        Lrc_core.acquire_ownership_locally cl node e;
        Lrc_core.mark_page_dirty node e
      end
    end
    else if e.owner = node.id then begin
      (* We were the last owner and nobody took ownership since (e.g.
         after the WG rule switched the page back to SW): re-establish
         ownership locally. *)
      Lrc_core.validate cl node e;
      if e.owner <> node.id || e.is_owner then restart ()
      else begin
        Lrc_core.acquire_ownership_locally cl node e;
        Mode.enter_sw cl node e;
        Lrc_core.mark_page_dirty node e
      end
    end
    else
      let want_data = (not (Perm.allows_read e.perm)) || e.notices <> [] in
      match request_ownership cl node e ~want_data with
      | Msg.Granted -> Lrc_core.mark_page_dirty node e
      | Msg.Refused_measure | Msg.Refused_fs -> Lrc_core.mw_write_path cl node e
  end
  else begin
    (* An owner whose page now prefers MW (false sharing learned through
       notices, or small measured diffs) drops ownership and diffs. *)
    if e.is_owner then Mode.leave_sw cl node e;
    Lrc_core.mw_write_path cl node e
  end

(* The migratory read-upgrade: ask for ownership at the read miss (one
   exchange); if granted, the forthcoming write fault is purely local. *)
let migratory_read_upgrade cl node (e : entry) =
  Stats.migratory_upgrade cl.stats;
  match request_ownership cl node e ~want_data:true with
  | Msg.Granted ->
    e.perm <- Perm.Read_only;
    tlb_reset node
  | Msg.Refused_measure | Msg.Refused_fs -> Lrc_core.validate cl node e

let read_fault cl node (e : entry) =
  if
    Mode.migratory_classified cl e
    && Mode.prefers_sw cl e
    && (not e.is_owner)
    && e.owner <> node.id
  then migratory_read_upgrade cl node e
  else Lrc_core.validate cl node e

(* --- server side --- *)

(* Every page or diff request adds its requester to the page's
   approximate copyset, which only rule 1 below reads. *)
let handle_page_req cl node ~src page respond =
  let e = entry_of node page in
  let (_ : bool) = wg_sharing_trigger cl node e in
  copyset_add e ~nprocs:node.nprocs src;
  Lrc_core.serve_page cl node ~src page respond

(* Rule 1 (Section 3.1.2): a diff request piggybacks the requester's
   view of the page; once every processor in the copyset sees it as SW,
   false sharing has stopped. *)
let handle_diff_req cl node ~src ~page ~seqs ~sees_sw respond =
  let e = entry_of node page in
  copyset_add e ~nprocs:node.nprocs src;
  fs_view_set e ~nprocs:node.nprocs src sees_sw;
  let all_sw = ref true in
  copyset_iter e (fun q -> if not (fs_view_get e q) then all_sw := false);
  if !all_sw then Mode.set_fs_active cl ~node:node.id e false;
  Lrc_core.serve_diffs cl node ~page ~seqs respond

(* The ownership-refusal protocol, owner side (Section 3.1.1).  Always two
   messages; never forwarded. *)
let handle_own_req cl node ~src ~page ~version:v_req ~want_data respond =
  let e = entry_of node page in
  copyset_add e ~nprocs:node.nprocs src;
  let reply ~version result =
    Lrc_core.respond_msg cl node respond
      (Msg.Own_reply
         {
           page;
           result;
           version;
           committed = e.committed_version;
           data =
             (if want_data then
                Option.map
                  (fun copy ->
                    (pooled_copy cl copy, reflected_ship e ~nprocs:node.nprocs))
                  (committed_copy e)
              else None);
         })
  in
  (* The caller has already handed ownership to [src].  We do NOT learn
     the new version; it reaches us through owner write notices. *)
  let grant () =
    if tracing cl then
      emit cl ~node:node.id
        (Adsm_trace.Event.Own_grant
           { page; requester = src; version = e.version });
    reply ~version:(Lrc_core.granted_version cl e) Msg.Granted
  in
  let refuse reason =
    if tracing cl then
      emit cl ~node:node.id
        (Adsm_trace.Event.Own_refuse { page; requester = src; reason });
    reply ~version:e.version
      (match reason with
      | Adsm_trace.Event.Measure -> Msg.Refused_measure
      | Adsm_trace.Event.Fs -> Msg.Refused_fs)
  in
  if wg_sharing_trigger cl node e then
    (* First write-sharing event: force MW to measure granularity. *)
    refuse Adsm_trace.Event.Measure
  else if e.is_owner && e.version = v_req then begin
    (* Normal grant.  The owner is necessarily clean on this page (a
       dirty owner has bumped the version, which would mismatch), so its
       data frame is the committed copy. *)
    e.is_owner <- false;
    e.owner <- src;
    grant ()
  end
  else if
    (not e.is_owner) && (not e.fs_active) && e.version = v_req
    && e.owner = node.id
  then begin
    (* Resumed ownership request (rules 1-3 cleared the FS flag): the last
       owner re-establishes single-writer mode. *)
    e.owner <- src;
    Mode.enter_sw cl node e;
    grant ()
  end
  else begin
    (* Anything else is false sharing: the requester's version is stale,
       or this node no longer holds the page in SW mode. *)
    Stats.note_false_sharing cl.stats ~page;
    Mode.set_fs_active cl ~node:node.id e true;
    if e.is_owner then Mode.leave_sw_at_release cl node e;
    refuse Adsm_trace.Event.Fs
  end

let handle_protocol_msg cl node ~src msg respond =
  match (msg, respond) with
  | Msg.Own_req { page; version; want_data }, Some respond ->
    handle_own_req cl node ~src ~page ~version ~want_data respond;
    true
  | _ -> false

(* Only the last owner validates at a GC round; [entry.owner] is protocol
   state and must not be repointed at a fetch hint on drop. *)
let gc_validator _cl node (e : entry) = e.owner = node.id

let gc_retarget_owner_on_drop = false
