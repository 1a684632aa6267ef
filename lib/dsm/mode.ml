(* Per-page protocol-mode predicates shared by the core, the sync layer and
   the protocol modules, and the adaptive protocols' SW<->MW transitions:
   the only place a mode change is traced. *)

open State

let adaptive cl =
  match cl.cfg.Config.protocol with
  | Config.Wfs | Config.Wfs_wg -> true
  | Config.Mw | Config.Sw | Config.Hlrc -> false

let is_wfs_wg cl = cl.cfg.Config.protocol = Config.Wfs_wg

(* Under WFS a page "prefers" SW mode while its false-sharing flag is
   clear; WFS+WG also needs a large write granularity once measured. *)
let prefers_sw cl (e : entry) =
  (not e.fs_active) && ((not (is_wfs_wg cl)) || (not e.measured) || e.wg_large)

let sees_page_as_sw (e : entry) = not e.fs_active

let switched cl ~node (e : entry) mode =
  Stats.mode_switch cl.stats;
  if tracing cl then
    emit cl ~node (Adsm_trace.Event.Mode_change { page = e.page; mode })

let set_fs_active cl ~node (e : entry) value =
  if e.fs_active <> value then begin
    if adaptive cl then
      switched cl ~node e
        (if value then Adsm_trace.Event.Mw else Adsm_trace.Event.Sw);
    e.fs_active <- value
  end

(* The owner keeps its copy as the page's last owner ([owner] names it,
   which is what lets it re-enter SW mode later) and writes it in MW mode
   from now on. *)
let leave_sw cl node (e : entry) =
  e.is_owner <- false;
  e.owner <- node.id;
  switched cl ~node:node.id e Adsm_trace.Event.Mw

(* A dirty owner first emits a final owner write notice for its unreleased
   writes: [Lrc_core.close_owned] leaves SW mode at the release. *)
let leave_sw_at_release cl node (e : entry) =
  if e.dirty then e.drop_at_release <- true else leave_sw cl node e

let enter_sw cl node (e : entry) =
  switched cl ~node:node.id e Adsm_trace.Event.Sw

(* Migratory-detection extension (paper Section 7): a page this node
   repeatedly reads and then writes within the same interval is classified
   migratory; its read misses are upgraded to ownership migrations so the
   subsequent write fault costs no messages. *)
let migratory_classified cl (e : entry) =
  cl.cfg.Config.migratory_detection && adaptive cl && e.migratory_score >= 2
