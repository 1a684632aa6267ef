(* The adaptive protocols (paper Section 3): WFS adapts between SW and MW
   per page on write-write false sharing, detected with the
   ownership-refusal protocol; WFS+WG adds write-granularity adaptation
   (pages with large measured diffs stay single-writer).  Both share this
   module — {!Mode.prefers_sw} and the [measure] flag read the configured
   variant.  The migratory-detection extension also lives here. *)

module Perm = Adsm_mem.Perm
module Page = Adsm_mem.Page
open State

let name = "WFS"

let close_page cl node (e : entry) ~seq ~vc ~charge =
  Lrc_core.close_page_default ~measure:(Mode.is_wfs_wg cl) cl node e ~seq ~vc
    ~charge

(* Owner-side reaction to the page becoming shared before its granularity
   has been measured (WFS+WG only): switch it to MW mode, after emitting a
   final owner notice if there are unreleased writes. *)
let wg_sharing_trigger cl node (e : entry) =
  if Mode.is_wfs_wg cl && e.is_owner && (not e.measured) && e.version > 0
  then begin
    e.measured <- true;
    if e.dirty then e.drop_at_release <- true
    else begin
      e.is_owner <- false;
      e.owner <- node.id;
      Stats.mode_switch cl.stats;
      if tracing cl then
        emit cl ~node:node.id
          (Adsm_trace.Event.Mode_change
             { page = e.page; mode = Adsm_trace.Event.Mw })
    end
  end

(* Adaptive write fault in MW mode (also the landing path after an
   ownership refusal, whose reply already installed a fresh base copy). *)
let adaptive_mw_write cl node (e : entry) = Lrc_core.mw_write_path cl node e

(* Adaptive write fault.  [Lrc_core.validate] suspends, and an ownership
   request handler may run meanwhile and grant our ownership away, so
   ownership is re-checked after every suspension point (the [restart]
   calls). *)
let rec adaptive_write_fault cl node (e : entry) =
  let restart () = adaptive_write_fault cl node e in
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
        Stats.mode_switch cl.stats;
        if tracing cl then
          emit cl ~node:node.id
            (Adsm_trace.Event.Mode_change
               { page = e.page; mode = Adsm_trace.Event.Sw });
        Lrc_core.mark_page_dirty node e
      end
    end
    else begin
      Stats.ownership_request cl.stats;
      if tracing cl then
        emit cl ~node:node.id
          (Adsm_trace.Event.Own_request
             { page = e.page; owner = e.owner; version = e.version });
      let want_data = (not (Perm.allows_read e.perm)) || e.notices <> [] in
      let req =
        Msg.Own_req { page = e.page; version = e.version; want_data }
      in
      match Lrc_core.call cl ~src:node.id ~dst:e.owner req with
      | Msg.Own_reply { result; version; committed; data; reflected; _ } -> (
        (match data with
        | Some data ->
          Lrc_core.install_copy cl node e ~data ~version ~committed ~reflected
        | None -> ());
        match result with
        | Msg.Granted ->
          Lrc_core.fetch_and_apply_diffs cl node e;
          e.version <- version;
          Lrc_core.acquire_ownership_locally cl node e;
          Lrc_core.mark_page_dirty node e
        | Msg.Refused_measure ->
          e.measured <- true;
          adaptive_mw_write cl node e
        | Msg.Refused_fs ->
          Stats.ownership_refused cl.stats;
          Stats.note_false_sharing cl.stats ~page:e.page;
          Mode.set_fs_active cl ~node:node.id e true;
          adaptive_mw_write cl node e)
      | _ -> failwith "Proto: unexpected reply to Own_req"
    end
  end
  else begin
    if e.is_owner then begin
      (* Owner whose page now prefers MW (false sharing learned through
         notices, or small measured diffs): drop ownership and diff. *)
      e.is_owner <- false;
      e.owner <- node.id;
      Stats.mode_switch cl.stats;
      if tracing cl then
        emit cl ~node:node.id
          (Adsm_trace.Event.Mode_change
             { page = e.page; mode = Adsm_trace.Event.Mw })
    end;
    adaptive_mw_write cl node e
  end

let write_fault = adaptive_write_fault

(* The migratory read-upgrade: ask for ownership at the read miss (one
   exchange); if granted, the forthcoming write fault is purely local. *)
let migratory_read_upgrade cl node (e : entry) =
  Stats.migratory_upgrade cl.stats;
  Stats.ownership_request cl.stats;
  if tracing cl then
    emit cl ~node:node.id
      (Adsm_trace.Event.Own_request
         { page = e.page; owner = e.owner; version = e.version });
  let req =
    Msg.Own_req { page = e.page; version = e.version; want_data = true }
  in
  match Lrc_core.call cl ~src:node.id ~dst:e.owner req with
  | Msg.Own_reply { result; version; committed; data; reflected; _ } -> (
    (match data with
    | Some data ->
      Lrc_core.install_copy cl node e ~data ~version ~committed ~reflected
    | None -> ());
    match result with
    | Msg.Granted ->
      Lrc_core.fetch_and_apply_diffs cl node e;
      e.version <- version;
      Lrc_core.acquire_ownership_locally cl node e;
      e.perm <- Perm.Read_only;
      tlb_reset node
    | Msg.Refused_measure ->
      e.measured <- true;
      Lrc_core.validate cl node e
    | Msg.Refused_fs ->
      Stats.ownership_refused cl.stats;
      Stats.note_false_sharing cl.stats ~page:e.page;
      Mode.set_fs_active cl ~node:node.id e true;
      Lrc_core.validate cl node e)
  | _ -> failwith "Proto: unexpected reply to migratory Own_req"

let read_fault cl node (e : entry) =
  if
    Mode.migratory_classified cl e
    && Mode.prefers_sw cl e
    && (not e.is_owner)
    && e.owner <> node.id
  then migratory_read_upgrade cl node e
  else Lrc_core.validate cl node e

(* --- server side --- *)

let handle_page_req cl node ~src page respond =
  wg_sharing_trigger cl node (entry_of node page);
  Lrc_core.serve_page cl node ~src page respond

let handle_diff_req cl node ~src ~page ~seqs ~sees_sw respond =
  Lrc_core.serve_diffs ~rule1:true cl node ~src ~page ~seqs ~sees_sw respond

(* The ownership-refusal protocol (Section 3.1.1).  Always two messages;
   never forwarded. *)
let handle_own_req cl node ~src ~page ~version:v_req ~want_data respond =
  let e = entry_of node page in
  copyset_add e ~nprocs:node.nprocs src;
  let committed () =
    if want_data then Option.map Page.copy (committed_copy e) else None
  in
  let reply ?version:(v = e.version) result data =
    Lrc_core.respond_msg cl node respond
      (Msg.Own_reply
         {
           page;
           result;
           version = v;
           committed = e.committed_version;
           data;
           reflected = reflected_copy e ~nprocs:node.nprocs;
         })
  in
  (* Mutation seam (testing only): grants carry a stale version, so the
     new owner's bumped version collides with what peers already hold and
     its owner write notices are silently discarded as dominated. *)
  let grant_version () =
    match cl.cfg.Config.mutation with
    | Some Config.Stale_ownership_grant -> e.version - 1
    | _ -> e.version
  in
  let refuse_fs () =
    Stats.note_false_sharing cl.stats ~page;
    Mode.set_fs_active cl ~node:node.id e true;
    if e.is_owner then begin
      if e.dirty then e.drop_at_release <- true
      else begin
        e.is_owner <- false;
        e.owner <- node.id;
        Stats.mode_switch cl.stats;
        if tracing cl then
          emit cl ~node:node.id
            (Adsm_trace.Event.Mode_change
               { page; mode = Adsm_trace.Event.Mw })
      end
    end;
    if tracing cl then
      emit cl ~node:node.id
        (Adsm_trace.Event.Own_refuse
           { page; requester = src; reason = Adsm_trace.Event.Fs });
    reply Msg.Refused_fs (committed ())
  in
  if e.is_owner then begin
    if Mode.is_wfs_wg cl && (not e.measured) && e.version > 0 then begin
      (* First write-sharing event: force MW to measure granularity. *)
      e.measured <- true;
      if e.dirty then e.drop_at_release <- true
      else begin
        e.is_owner <- false;
        e.owner <- node.id;
        Stats.mode_switch cl.stats;
        if tracing cl then
          emit cl ~node:node.id
            (Adsm_trace.Event.Mode_change
               { page; mode = Adsm_trace.Event.Mw })
      end;
      if tracing cl then
        emit cl ~node:node.id
          (Adsm_trace.Event.Own_refuse
             { page; requester = src; reason = Adsm_trace.Event.Measure });
      reply Msg.Refused_measure (committed ())
    end
    else if e.version = v_req then begin
      (* Normal grant.  The owner is necessarily clean on this page (a
         dirty owner has bumped the version, which would mismatch), so its
         data frame is the committed copy.  Note: we do NOT learn the new
         version; it reaches us through owner write notices. *)
      e.is_owner <- false;
      e.owner <- src;
      if tracing cl then
        emit cl ~node:node.id
          (Adsm_trace.Event.Own_grant
             { page; requester = src; version = e.version });
      reply ~version:(grant_version ()) Msg.Granted (committed ())
    end
    else refuse_fs ()
  end
  else if (not e.fs_active) && e.version = v_req && e.owner = node.id
  then begin
    (* Resumed ownership request (rules 1-3 cleared the FS flag): the last
       owner re-establishes single-writer mode. *)
    e.owner <- src;
    Stats.mode_switch cl.stats;
    if tracing cl then begin
      emit cl ~node:node.id
        (Adsm_trace.Event.Mode_change { page; mode = Adsm_trace.Event.Sw });
      emit cl ~node:node.id
        (Adsm_trace.Event.Own_grant
           { page; requester = src; version = e.version })
    end;
    reply ~version:(grant_version ()) Msg.Granted (committed ())
  end
  else refuse_fs ()

let handle_protocol_msg _cl _node ~src:_ _msg _respond = false

(* Only the last owner validates at a GC round; [entry.owner] is protocol
   state and must not be repointed at a fetch hint on drop. *)
let gc_validator _cl node (e : entry) = e.owner = node.id

let gc_retarget_owner_on_drop = false
