(** Per-page protocol-mode predicates (SW vs MW, adaptivity, HLRC) shared
    by {!Lrc_core}, {!Sync} and the protocol modules, and the adaptive
    protocols' SW<->MW transitions — the only place a mode switch is
    traced as an {!Adsm_trace.Event.Mode_change}. *)

open State

(** The cluster runs one of the adaptive protocols (WFS, WFS+WG). *)
val adaptive : cluster -> bool

val is_wfs_wg : cluster -> bool

(** The page should be written in single-writer mode, by its adaptive
    state variables (WFS and WFS+WG only). *)
val prefers_sw : cluster -> entry -> bool

(** The node believes the page is free of write-write false sharing
    (piggybacked on diff requests for WFS rule 1). *)
val sees_page_as_sw : entry -> bool

(** Set the page's false-sharing flag, counting (and tracing, attributed to
    [node]) the SW<->MW mode switch when it actually changes under an
    adaptive protocol. *)
val set_fs_active : cluster -> node:int -> entry -> bool -> unit

(** The owning node leaves SW mode: it drops ownership but stays the
    page's last owner, and the switch to MW is counted and traced. *)
val leave_sw : cluster -> node -> entry -> unit

(** {!leave_sw} now if the page is clean; a dirty owner sets
    [drop_at_release] instead and leaves when the interval closes. *)
val leave_sw_at_release : cluster -> node -> entry -> unit

(** Count and trace the page's re-entry into SW mode (the caller has
    re-established or granted ownership). *)
val enter_sw : cluster -> node -> entry -> unit

(** The migratory-detection extension classifies the page as migratory at
    this node (read-then-write pattern, adaptive protocols only). *)
val migratory_classified : cluster -> entry -> bool
