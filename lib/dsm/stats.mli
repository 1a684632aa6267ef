(** Protocol statistics.

    Collects everything the paper reports: message and data volumes come
    from the network layer; this module tracks ownership requests, twin
    memory (cumulative), diff memory (cumulative), garbage collections,
    the live-diff time series of Figure 3, and the sharing profile
    (writers per page, write-write false sharing, diff granularity)
    behind Table 2.  It keeps no per-node diff state: the diffs a node
    holds, and the byte account the GC trigger reads, are node state
    ({!State.diff_bytes}). *)

type t

val create : unit -> t

(* --- twins --- *)

val twin_created : t -> unit

val twins_created_total : t -> int

val twin_bytes_total : t -> int
(** Cumulative bytes of all twins ever created. *)

(* --- diffs --- *)

(** A diff was created; [bytes] is its encoded size and [modified] the
    number of bytes it changes, at simulated [time]. *)
val diff_created : t -> bytes:int -> modified:int -> time:int -> unit

(** A diff was fetched at simulated [time]: another live diff copy, as
    in the paper's Figure 3, which plots the total number of diffs on
    all processors, so the live series records a point here just as it
    does on creation. *)
val diff_fetched : t -> time:int -> unit

(** [count] live diffs were dropped at [time] (garbage collection, a
    crash wipe of fetched diffs, an HLRC flush). *)
val diffs_dropped : t -> count:int -> time:int -> unit

val diffs_created_total : t -> int

val diff_bytes_total : t -> int
(** Cumulative encoded bytes of all diffs ever created. *)

val live_diff_series : t -> Adsm_sim.Series.t
(** Total live diffs across all nodes over time (paper Figure 3). *)

(* --- protocol events --- *)

val ownership_request : t -> unit

val ownership_requests : t -> int

val ownership_refused : t -> unit

val ownership_refusals : t -> int

val gc_started : t -> unit

val gc_count : t -> int

val page_fault : t -> read:bool -> unit

val read_faults : t -> int

val write_faults : t -> int

(* --- sharing profile (Table 2) --- *)

val note_write : t -> page:int -> unit
(** A processor committed modifications to a page (at a release). *)

val note_false_sharing : t -> page:int -> unit
(** Concurrent writes by different processors were detected on the page. *)

val pages_written : t -> int
(** Pages with at least one recorded writer. *)

(** Has [note_false_sharing] been called for this page? *)
val page_false_shared : t -> page:int -> bool

val pages_false_shared : t -> int

val false_shared_fraction : t -> float
(** Falsely shared pages over written pages (0 if none written). *)

val mean_diff_size : t -> float
(** Mean modified bytes per created diff (write granularity; 0 if none). *)

val mode_switches : t -> int
(** Number of per-page SW<->MW mode transitions (adaptive protocols). *)

val mode_switch : t -> unit

val migratory_upgrade : t -> unit
(** A read miss was upgraded to an ownership migration (the
    migratory-detection extension). *)

val migratory_upgrades : t -> int

(* --- execution-time breakdown --- *)

(** Where the processors' simulated time goes: their own computation
    ([Dsm.compute] charges), page-fault service (including twin/diff and
    install costs incurred inside the fault), lock acquisition, or
    barrier waits (including garbage collection).  Kept as one total
    per category, summed over all processors. *)
type time_category = Compute | Fault | Lock | Barrier

val add_time : t -> category:time_category -> ns:int -> unit

val total_time : t -> category:time_category -> int
