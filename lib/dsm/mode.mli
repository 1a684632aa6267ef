(** Per-page protocol-mode predicates (SW vs MW, adaptivity, HLRC) shared
    by {!Lrc_core}, {!Sync} and the protocol modules. *)

open State

(** The cluster runs one of the adaptive protocols (WFS, WFS+WG). *)
val adaptive : cluster -> bool

val is_wfs_wg : cluster -> bool

(** The page should be written in single-writer mode under the cluster's
    protocol and the page's adaptive state variables. *)
val prefers_sw : cluster -> entry -> bool

(** The node believes the page is free of write-write false sharing
    (piggybacked on diff requests for WFS rule 1). *)
val sees_page_as_sw : entry -> bool

(** Set the page's false-sharing flag, counting (and tracing, as a
    {!Adsm_trace.Event.Mode_change} attributed to [node]) the SW<->MW
    mode switch when it actually changes under an adaptive protocol. *)
val set_fs_active : cluster -> node:int -> entry -> bool -> unit

(** The migratory-detection extension classifies the page as migratory at
    this node (read-then-write pattern, adaptive protocols only). *)
val migratory_classified : cluster -> entry -> bool
