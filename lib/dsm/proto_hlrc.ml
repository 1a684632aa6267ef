(* HLRC (cited in the paper's related work): a home-based extension beyond
   its evaluation.  Diffs are flushed eagerly to each page's static home
   and discarded — no diff store and no garbage collection; faults fetch
   whole current pages from the home, naming the modifications the reply
   must already contain. *)

module Perm = Adsm_mem.Perm
module Engine = Adsm_sim.Engine
module Proc = Adsm_sim.Proc
open State

(* Diff sink: flush to the page's home and discard locally. *)
let flush_to_home cl node (e : entry) ~seq ~vc diff =
  Lrc_core.cast cl ~src:node.id ~dst:(home_of_page cl e.page)
    (Msg.Hlrc_diff { page = e.page; seq; vc; diff });
  Stats.diffs_dropped cl.stats ~count:1 ~time:(Engine.now cl.engine)

(* Home page closed dirty: the modifications are already in place in the
   master copy; emit a plain notice and re-protect so the next interval's
   writes are detected. *)
let close_home cl node (e : entry) ~seq =
  reflected_set e ~nprocs:node.nprocs node.id seq;
  if cl.cfg.Config.nprocs > 1 then begin
    e.perm <- Perm.Read_only;
    tlb_reset node
  end;
  None

let close_page cl node (e : entry) ~seq ~vc ~charge =
  Lrc_core.close_page_default ~sink:flush_to_home
    ~close_clean:close_home cl node e ~seq ~vc ~charge

(* Validation: the home waits for in-flight diffs to land in its master
   copy; everyone else fetches the whole current page from the home. *)
let hlrc_validate cl node (e : entry) =
  if not (Perm.allows_read e.perm) then begin
    let home = home_of_page cl e.page in
    let pending = List.filter (Lrc_core.notice_relevant node e) e.notices in
    if home = node.id then begin
      (* Master copy: in-flight diffs are guaranteed to arrive (they were
         flushed at the releases that happened before our acquire); poll
         until they have all been applied. *)
      let covered () =
        List.for_all
          (fun (n : Notice.t) -> reflected_get e n.proc >= n.seq)
          pending
      in
      while not (covered ()) do
        Proc.sleep cl.engine 100_000
      done;
      e.notices <- [];
      e.perm <- Perm.Read_only
    end
    else begin
      (* Collapse the pending notices into the highest needed sequence per
         writer, and require our own committed writes back too. *)
      let need = Hashtbl.create 8 in
      List.iter
        (fun (n : Notice.t) ->
          let prev = Option.value ~default:0 (Hashtbl.find_opt need n.proc) in
          if n.seq > prev then Hashtbl.replace need n.proc n.seq)
        pending;
      if reflected_get e node.id > 0 then
        Hashtbl.replace need node.id (reflected_get e node.id);
      let need = Hashtbl.fold (fun q s acc -> (q, s) :: acc) need [] in
      (match
         Lrc_core.call cl ~src:node.id ~dst:home
           (Msg.Hlrc_fetch { page = e.page; need })
       with
      | Msg.Page_reply { data; version; committed; reflected; _ } ->
        Lrc_core.install_copy cl node e ~data ~version ~committed ~reflected
      | _ -> failwith "Proto: unexpected reply to Hlrc_fetch");
      e.notices <- [];
      e.perm <- Perm.Read_only
    end
  end

let read_fault cl node (e : entry) = hlrc_validate cl node e

let write_fault cl node (e : entry) =
  hlrc_validate cl node e;
  (* The home writes its master copy in place; everyone else twins. *)
  if home_of_page cl e.page <> node.id then Lrc_core.make_twin cl node e;
  Lrc_core.mark_page_dirty node e

(* --- home-side handlers (event context) --- *)

let hlrc_covered (e : entry) need =
  List.for_all (fun (q, seq) -> reflected_get e q >= seq) need

let hlrc_reply_now cl node (e : entry) respond =
  Lrc_core.respond_msg cl node respond
    (Msg.Page_reply
       {
         page = e.page;
         data = pooled_copy cl (frame e);
         version = 0;
         committed = 0;
         reflected = reflected_ship e ~nprocs:node.nprocs;
       })

(* A diff arrived at this home: apply it to the master copy and release
   any fetches that were waiting for it. *)
let handle_hlrc_diff cl node ~src ~page ~seq diff =
  let e = entry_of node page in
  Diff.apply diff (frame e);
  if tracing cl then
    emit cl ~node:node.id
      (Adsm_trace.Event.Diff_apply { page; writer = src; seq });
  if seq > reflected_get e src then reflected_set e ~nprocs:node.nprocs src seq;
  let ready, still_waiting =
    List.partition
      (fun (p, need, _) -> p = page && hlrc_covered e need)
      node.hlrc_waiting
  in
  node.hlrc_waiting <- still_waiting;
  List.iter (fun (_, _, respond) -> hlrc_reply_now cl node e respond) ready

let handle_hlrc_fetch cl node ~page ~need respond =
  let e = entry_of node page in
  if hlrc_covered e need then hlrc_reply_now cl node e respond
  else node.hlrc_waiting <- (page, need, respond) :: node.hlrc_waiting

let handle_page_req cl node ~src page respond =
  Lrc_core.serve_page cl node ~src page respond

let handle_diff_req cl node ~src:_ ~page ~seqs ~sees_sw:_ respond =
  Lrc_core.serve_diffs cl node ~page ~seqs respond

let handle_protocol_msg cl node ~src msg respond =
  match (msg, respond) with
  | Msg.Hlrc_diff { page; seq; diff; _ }, None ->
    handle_hlrc_diff cl node ~src ~page ~seq diff;
    true
  | Msg.Hlrc_fetch { page; need }, Some respond ->
    handle_hlrc_fetch cl node ~page ~need respond;
    true
  | _ -> false

(* No diff store: GC never triggers. *)
let gc_validator _cl _node (_e : entry) = false

let gc_retarget_owner_on_drop = true
