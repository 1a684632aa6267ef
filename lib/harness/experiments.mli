(** Drivers that regenerate every table and figure of the paper's
    evaluation (Section 6) from fresh simulation runs.

    [collect] runs the full grid once (8 applications x 4 protocols at the
    requested processor count, plus the sequential baselines); each
    [table_*] / [figure_*] function renders one artifact from it.  Use
    [run_all] to print everything in paper order. *)

type suite = {
  scale : Adsm_apps.Registry.scale;
  nprocs : int;
  tweak : Adsm_dsm.Config.t -> Adsm_dsm.Config.t;
      (** configuration post-processing (e.g. a non-default network or
          topology), re-applied by artifacts that make dedicated runs *)
  measurements : Runner.measurement list;
}

(** Runs the whole grid.  [apps] restricts the application set (default:
    all eight).  [jobs] (default 1) runs the independent (app, protocol)
    simulations on that many worker domains via {!Pool}; the resulting
    suite is field-for-field identical for any [jobs] value. *)
val collect :
  ?apps:string list ->
  ?scale:Adsm_apps.Registry.scale ->
  ?nprocs:int ->
  ?jobs:int ->
  ?tweak:(Adsm_dsm.Config.t -> Adsm_dsm.Config.t) ->
  unit ->
  suite

val find :
  suite -> app:string -> protocol:Adsm_dsm.Config.protocol ->
  Runner.measurement option

(** Table 1: applications, input sizes, synchronization, sequential time. *)
val table1 : suite -> string

(** Table 2: write granularity and write-write falsely shared pages. *)
val table2 : suite -> string

(** Figure 1: protocol behaviour on the three canonical access patterns
    (producer-consumer, migratory, write-write false sharing) under WFS. *)
val figure1 : unit -> string

(** Figure 2: speedup comparison, all protocols and applications. *)
val figure2 : suite -> string

(** Table 3: twin and diff memory consumption for MW, WFS+WG, WFS. *)
val table3 : suite -> string

(** Table 4: messages, ownership requests, and data exchanged. *)
val table4 : suite -> string

(** Figure 3: live diff count over time for 3D-FFT under MW/WFS+WG/WFS. *)
val figure3 : suite -> string

(** Beyond the paper: per-protocol execution-time breakdown (compute /
    fault / lock / barrier / other percentages). *)
val breakdown : suite -> string

(** Write machine-readable CSV files for every artifact into [dir]
    (created if missing): `speedups.csv` with one row per (application,
    protocol) measurement, `sharing.csv` with the Table 2 profile, and
    `fig3_<protocol>.csv` live-diff series. *)
val export_csv : suite -> dir:string -> string list
(** Returns the paths written. *)

(** The survivability table and its failed runs. *)
type survival = {
  table : string;
      (** one row per crashed run; a failed one reads [ABORT] (the run
          raised) or [DIVERGED] (its checksum differs from the
          fault-free run's) and ends with its [--faults] spec *)
  failures : string list;
      (** one line per failed run: app, protocol, crash count, cause and
          the [adsm_run run] command that replays it *)
}

(** "Crashing nodes" appendix (FAULTS.md): completion time and message
    overhead of SOR/IS/Water under MW, SW and WFS with 1 and 2 node
    crashes, schedules derived from each cell's fault-free duration so
    the crashes land mid-run.  Every faulty run's checksum is verified
    against the fault-free one; a run that aborts or diverges is
    reported in the table and in [failures], and the study goes on.
    Raises [Invalid_argument] before any run if [nprocs < 2]: node 0 is
    never crashed, so there must be another node to crash. *)
val survivability :
  ?apps:string list ->
  ?scale:Adsm_apps.Registry.scale ->
  ?nprocs:int ->
  ?jobs:int ->
  unit ->
  survival

(** Everything, in paper order. *)
val run_all :
  ?apps:string list ->
  ?scale:Adsm_apps.Registry.scale ->
  ?nprocs:int ->
  ?jobs:int ->
  ?tweak:(Adsm_dsm.Config.t -> Adsm_dsm.Config.t) ->
  unit ->
  string
