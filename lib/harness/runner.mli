(** Execute one (application x protocol x processor-count) configuration
    and collect everything the paper's tables and figures report. *)

type measurement = {
  app : string;
  protocol : Adsm_dsm.Config.protocol;
  nprocs : int;
  scale : Adsm_apps.Registry.scale;
  time_ns : int;
  messages : int;
  data_bytes : int;  (** payload bytes, the paper's "Data" column *)
  wire_bytes : int;  (** payload plus per-message headers on the wire *)
  own_requests : int;
  own_refusals : int;
  twins_created : int;
  twin_bytes : int;  (** cumulative twin bytes (paper Table 3) *)
  diffs_created : int;
  diff_bytes : int;  (** cumulative diff bytes (paper Table 3) *)
  gc_runs : int;
  mode_switches : int;
  shared_pages : int;
  pages_written : int;
  pages_false_shared : int;
  mean_diff_bytes : float;
  read_faults : int;
  write_faults : int;
  checksum : float;
  by_kind : (string * (int * int)) list;
      (** traffic class -> (messages, bytes); e.g. ["barrier"] for the
          scaling study's barrier message-count bound *)
  live_diff_series : Adsm_sim.Series.t;
      (** (time_ns, live diff count) samples — the paper's Figure 3 *)
  events : int;
  compute_ns : int;  (** execution-time breakdown, summed over nodes: *)
  fault_time_ns : int;  (** time inside page-fault service *)
  lock_time_ns : int;  (** time acquiring locks *)
  barrier_time_ns : int;  (** time in barriers (including GC) *)
}

val run :
  ?seed:int64 ->
  ?tweak:(Adsm_dsm.Config.t -> Adsm_dsm.Config.t) ->
  ?faults:Adsm_net.Fault.schedule ->
  ?tracer:Adsm_trace.Tracer.t ->
  ?recorder:Adsm_check.Recorder.t ->
  app:Adsm_apps.Registry.entry ->
  protocol:Adsm_dsm.Config.protocol ->
  nprocs:int ->
  scale:Adsm_apps.Registry.scale ->
  unit ->
  measurement
(** [tweak] post-processes the configuration (e.g. a smaller GC threshold
    for the Figure 3 runs, matching the scaled-down data set); [faults]
    runs the app under a fault schedule (applied after [tweak], see
    FAULTS.md); [tracer] receives the structured event stream (the
    caller closes it); [recorder] captures the consistency
    oracle's observation stream (validate with {!Adsm_check.Oracle.check}
    afterwards). *)

(** Sequential baseline: one processor under SW (no twins, no diffs, no
    messages), as the paper obtains its Table 1 baselines by stripping
    synchronization. *)
val sequential_time_ns :
  app:Adsm_apps.Registry.entry -> scale:Adsm_apps.Registry.scale -> int

(** Speedup of a measurement against the matching sequential baseline. *)
val speedup : measurement -> float
