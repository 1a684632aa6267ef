(* Façade over the layered protocol stack.  See Section 3 of the paper:

   - MW ({!Proto_mw}): TreadMarks-style twin/diff multiple writer.
   - SW ({!Proto_sw}): CVM-like single writer with version numbers,
     home-forwarded ownership transfers and a minimum ownership quantum.
   - WFS / WFS+WG ({!Proto_adaptive}): adapts between SW and MW per page on
     write-write false sharing (ownership-refusal protocol), optionally
     with write-granularity adaptation (3 KB threshold).
   - HLRC ({!Proto_hlrc}): home-based extension beyond the paper's
     evaluation.

   The mechanisms live in {!Lrc_core} (intervals, notices, diffs,
   validation) and {!Sync} (locks, barriers, garbage collection);
   {!Dispatch} maps the configured protocol to its module.  This façade
   adds only the generic fault prologue/epilogue (fault cost, statistics,
   migratory bookkeeping) and routes incoming messages to the right
   layer. *)

module Engine = Adsm_sim.Engine
module Proc = Adsm_sim.Proc
open State

(* The fault prologue and epilogue around the protocol's handler.
   Under migratory detection a read fault stamps the interval it fell
   in, and a write fault preceded by a read fault in the same interval
   is migratory evidence, one without it counter-evidence. *)
let fault cl node (e : entry) ~read =
  Sync.pause_if_crashed cl node;
  let t0 = Engine.now cl.engine in
  if tracing cl then
    emit cl ~node:node.id
      (if read then Adsm_trace.Event.Read_fault { page = e.page }
       else Adsm_trace.Event.Write_fault { page = e.page });
  Stats.page_fault cl.stats ~read;
  Proc.sleep cl.engine Config.fault_ns;
  let (module P : Protocol_intf.PROTOCOL) = Dispatch.for_cluster cl in
  if cl.cfg.Config.migratory_detection then begin
    let seq = Vc.get node.vc node.id in
    if read then e.read_fault_seq <- seq
    else if e.read_fault_seq = seq then
      e.migratory_score <- min 3 (e.migratory_score + 1)
    else e.migratory_score <- max 0 (e.migratory_score - 1)
  end;
  if read then P.read_fault cl node e else P.write_fault cl node e;
  Stats.add_time cl.stats ~category:Stats.Fault ~ns:(Engine.now cl.engine - t0)

let read_fault cl node e = fault cl node e ~read:true

let write_fault cl node e = fault cl node e ~read:false

let handle_message cl ~node:node_id ~src msg respond =
  let node = cl.nodes.(node_id) in
  match (msg, respond) with
  (* Synchronization traffic. *)
  | Msg.Lock_acquire { lock; vc }, None ->
    Sync.handle_lock_acquire cl node ~src ~vc lock
  | Msg.Lock_forward { lock; requester; vc }, None ->
    Sync.handle_lock_forward cl node ~requester ~vc lock
  | (Msg.Lock_grant _ | Msg.Barrier_release _), None -> wake cl node msg
  | Msg.Barrier_arrive { epoch; vc; vc_version; intervals; gc_wanted }, None ->
    Sync.handle_barrier_arrive cl node ~src ~vc ~vc_version ~intervals
      ~gc_wanted epoch
  | Msg.Gc_done { epoch }, None -> Sync.handle_gc_done cl node epoch
  | Msg.Gc_complete { epoch }, None -> Sync.handle_gc_complete cl node epoch
  (* Crash recovery: a restarted peer re-fetching missed intervals. *)
  | Msg.Recover_req { vc }, Some respond ->
    Sync.handle_recover_req cl node ~vc respond
  (* Page and diff requests, served per the protocol's policy. *)
  | Msg.Page_req { page }, Some respond ->
    let (module P : Protocol_intf.PROTOCOL) = Dispatch.for_cluster cl in
    P.handle_page_req cl node ~src page respond
  | Msg.Diff_req { page; seqs; sees_sw }, Some respond ->
    let (module P : Protocol_intf.PROTOCOL) = Dispatch.for_cluster cl in
    P.handle_diff_req cl node ~src ~page ~seqs ~sees_sw respond
  (* Protocol-private traffic (SW forwarding, adaptive ownership
     requests, HLRC home messages). *)
  | _ ->
    let (module P : Protocol_intf.PROTOCOL) = Dispatch.for_cluster cl in
    if not (P.handle_protocol_msg cl node ~src msg respond) then
      failwith "Proto: malformed message/response combination"
