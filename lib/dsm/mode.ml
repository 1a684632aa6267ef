(* Per-page protocol-mode predicates shared by the core, the sync layer and
   the protocol modules. *)

open State

let adaptive cl =
  match cl.cfg.Config.protocol with
  | Config.Wfs | Config.Wfs_wg -> true
  | Config.Mw | Config.Sw | Config.Hlrc -> false

let is_wfs_wg cl = cl.cfg.Config.protocol = Config.Wfs_wg

(* A page "prefers" SW mode when the adaptive state variables say so. *)
let prefers_sw cl (e : entry) =
  match cl.cfg.Config.protocol with
  | Config.Sw -> true
  | Config.Mw | Config.Hlrc -> false
  | Config.Wfs -> not e.fs_active
  | Config.Wfs_wg ->
    (not e.fs_active) && if e.measured then e.wg_large else true

let sees_page_as_sw (e : entry) = not e.fs_active

let set_fs_active cl ~node (e : entry) value =
  if e.fs_active <> value then begin
    if adaptive cl then begin
      Stats.mode_switch cl.stats;
      if tracing cl then
        emit cl ~node
          (Adsm_trace.Event.Mode_change
             {
               page = e.page;
               mode = (if value then Adsm_trace.Event.Mw else Adsm_trace.Event.Sw);
             })
    end;
    e.fs_active <- value
  end

(* Migratory-detection extension (paper Section 7): a page this node
   repeatedly reads and then writes within the same interval is classified
   migratory; its read misses are upgraded to ownership migrations so the
   subsequent write fault costs no messages. *)
let migratory_classified cl (e : entry) =
  cl.cfg.Config.migratory_detection && adaptive cl && e.migratory_score >= 2
