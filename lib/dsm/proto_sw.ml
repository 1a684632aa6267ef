(* SW: the CVM-like single-writer protocol (paper Section 2.3): per-page
   version numbers, ownership transfers forwarded through the page's static
   home, and a minimum ownership quantum as the ping-pong mitigation. *)

module Page = Adsm_mem.Page
module Perm = Adsm_mem.Perm
module Engine = Adsm_sim.Engine
module Proc = Adsm_sim.Proc
open State

let read_fault cl node (e : entry) = Lrc_core.validate cl node e

let close_page cl node (e : entry) ~seq ~vc ~charge =
  Lrc_core.close_page_default cl node e ~seq ~vc ~charge

(* --- ownership machinery (home forwarding + quantum) --- *)

(* Transfer ownership of the page from this node to [requester], respecting
   the minimum ownership quantum, and re-forward any queued requests to the
   new owner. *)
let sw_grant cl node (e : entry) requester =
  if tracing cl then
    emit cl ~node:node.id
      (Adsm_trace.Event.Own_grant
         { page = e.page; requester; version = e.version });
  assert e.is_owner;
  assert (requester <> node.id);
  e.is_owner <- false;
  let fire () =
    e.owner <- requester;
    if cl.cfg.Config.nprocs > 1 && Perm.allows_write e.perm then begin
      e.perm <- Perm.Read_only;
      (* This downgrade can run as a SCHEDULED event (quantum delay), with
         the old owner's process between accesses — its TLB slot may hold
         this page writable.  Reset is mandatory here, not just at the
         handler/sync chokepoints. *)
      tlb_reset node
    end;
    Lrc_core.cast cl ~src:node.id ~dst:requester
      (Msg.Sw_own_transfer
         {
           page = e.page;
           data = pooled_copy cl (frame e);
           version = Lrc_core.granted_version cl e;
           committed = e.committed_version;
         });
    (* Anyone queued behind this transfer chases the new owner. *)
    let queued = e.pending_own in
    e.pending_own <- [];
    List.iter
      (fun (r, v) ->
        if r <> requester then
          Lrc_core.cast cl ~src:node.id ~dst:requester
            (Msg.Sw_own_forward { page = e.page; requester = r; version = v }))
      queued
  in
  let now = Engine.now cl.engine in
  let ready = e.owned_at + cl.cfg.Config.ownership_quantum_ns in
  if now >= ready then fire ()
  else Engine.schedule cl.engine ~delay:(ready - now) fire

let sw_handle_forward cl node ~requester ~version page =
  let e = entry_of node page in
  if e.is_owner then sw_grant cl node e requester
  else if
    (match node.wait with Own (p, _) -> p = page | _ -> false)
    || e.owner = node.id
  then
    (* Either we are waiting for this page's ownership ourselves, or our
       own outgoing grant is scheduled but has not fired yet ([e.owner]
       still names us until the transfer fires): queue the request.  It is
       served once we own the page, or re-forwarded to the new owner by
       the firing transfer. *)
    e.pending_own <- (requester, version) :: e.pending_own
  else
    (* Not the owner any more: chase the grant chain. *)
    Lrc_core.cast cl ~src:node.id ~dst:e.owner
      (Msg.Sw_own_forward { page; requester; version })

let sw_handle_home_req cl ~node:home_id ~src page =
  let home_node = cl.nodes.(home_id) in
  let e = entry_of home_node page in
  let hint = e.sw_home_hint in
  e.sw_home_hint <- src;
  if hint = home_id then
    (* The home itself is (or believes it is) on the ownership chain. *)
    sw_handle_forward cl home_node ~requester:src ~version:0 page
  else
    Lrc_core.cast cl ~src:home_id ~dst:hint
      (Msg.Sw_own_forward { page; requester = src; version = 0 })

(* Serve the first request queued on us while our own transfer was in
   flight; the rest get re-forwarded by [sw_grant]. *)
let sw_service_pending cl node (e : entry) =
  match e.pending_own with
  | [] -> ()
  | (r, _) :: rest ->
    e.pending_own <- rest;
    sw_grant cl node e r

(* Write fault: ownership transfer through the home. *)
let write_fault cl node (e : entry) =
  if e.is_owner then begin
    (* Local reacquisition: version bump, no messages. *)
    Lrc_core.acquire_ownership_locally cl node e;
    Lrc_core.mark_page_dirty node e
  end
  else begin
    Stats.ownership_request cl.stats;
    let ivar = Proc.Ivar.create () in
    block node (Own (e.page, ivar));
    let home = home_of_page cl e.page in
    if tracing cl then
      emit cl ~node:node.id
        (Adsm_trace.Event.Own_request
           { page = e.page; owner = e.owner; version = e.version });
    if home = node.id then
      (* We are the home: run the home logic locally (no message). *)
      sw_handle_home_req cl ~node:node.id ~src:node.id e.page
    else
      Lrc_core.cast cl ~src:node.id ~dst:home
        (Msg.Sw_own_req { page = e.page; version = e.version });
    (match Proc.Ivar.await ivar with
    | Msg.Sw_own_transfer { data; version; committed; _ } ->
      (* Atomic state transition FIRST: a forward chasing the chain must
         never observe us neither waiting nor owning.  The install cost is
         charged afterwards. *)
      Page.blit ~src:data ~dst:(frame e);
      recycle_page cl data;
      e.has_base <- true;
      e.version <- max e.version (version + 1);
      e.content_version <- max e.content_version committed;
      e.committed_version <- max e.committed_version committed;
      e.is_owner <- true;
      e.owner <- node.id;
      e.owned_at <- Engine.now cl.engine;
      e.notices <- [];
      Proc.sleep cl.engine Config.page_install_ns;
      node.wait <- Running;
      Lrc_core.mark_page_dirty node e;
      (* Serve ownership requests that were queued on us while the
         transfer was in flight (unless a forward arriving during the
         install already took the ownership away). *)
      if e.is_owner && e.pending_own <> [] then sw_service_pending cl node e
    | _ -> failwith "Proto: unexpected SW ownership reply")
  end

(* --- server side --- *)

let handle_page_req cl node ~src page respond =
  Lrc_core.serve_page cl node ~src page respond

let handle_diff_req cl node ~src:_ ~page ~seqs ~sees_sw:_ respond =
  Lrc_core.serve_diffs cl node ~page ~seqs respond

let handle_protocol_msg cl node ~src msg respond =
  match (msg, respond) with
  | Msg.Sw_own_req { page; _ }, None ->
    sw_handle_home_req cl ~node:node.id ~src page;
    true
  | Msg.Sw_own_forward { page; requester; version }, None ->
    sw_handle_forward cl node ~requester ~version page;
    true
  | Msg.Sw_own_transfer _, None ->
    wake cl node msg;
    true
  | _ -> false

(* SW keeps no diff store; GC never triggers, so no copy survives as a
   validator (the owner's copy is authoritative anyway). *)
let gc_validator _cl _node (_e : entry) = false

let gc_retarget_owner_on_drop = true
