module Config = Adsm_dsm.Config
module Dsm = Adsm_dsm.Dsm
module Stats = Adsm_dsm.Stats
module Registry = Adsm_apps.Registry
module Series = Adsm_sim.Series

type measurement = {
  app : string;
  protocol : Config.protocol;
  nprocs : int;
  scale : Registry.scale;
  time_ns : int;
  messages : int;
  data_bytes : int;
  wire_bytes : int;
  own_requests : int;
  own_refusals : int;
  twins_created : int;
  twin_bytes : int;
  diffs_created : int;
  diff_bytes : int;
  gc_runs : int;
  mode_switches : int;
  shared_pages : int;
  pages_written : int;
  pages_false_shared : int;
  mean_diff_bytes : float;
  read_faults : int;
  write_faults : int;
  checksum : float;
  by_kind : (string * (int * int)) list;  (* kind -> (messages, bytes) *)
  live_diff_series : Series.t;
  events : int;
  compute_ns : int;
  fault_time_ns : int;
  lock_time_ns : int;
  barrier_time_ns : int;
}

let run ?(seed = 0x5EEDL) ?(tweak = Fun.id) ?faults ?tracer ?recorder
    ~(app : Registry.entry) ~protocol ~nprocs ~scale () =
  let cfg = tweak (Config.make ~seed ~protocol ~nprocs ()) in
  (* [faults] is applied after [tweak] so a CLI --faults flag composes
     with any tweak. *)
  let cfg =
    match faults with None -> cfg | Some s -> { cfg with Config.faults = Some s }
  in
  let t = Dsm.create cfg in
  let program, result = app.Registry.instantiate scale t in
  let report = Dsm.run ?tracer ?recorder t program in
  let stats = report.Dsm.stats in
  {
    app = app.Registry.name;
    protocol;
    nprocs;
    scale;
    time_ns = report.Dsm.time_ns;
    messages = report.Dsm.messages;
    data_bytes = report.Dsm.payload_bytes;
    wire_bytes = report.Dsm.wire_bytes;
    own_requests = Stats.ownership_requests stats;
    own_refusals = Stats.ownership_refusals stats;
    twins_created = Stats.twins_created_total stats;
    twin_bytes = Stats.twin_bytes_total stats;
    diffs_created = Stats.diffs_created_total stats;
    diff_bytes = Stats.diff_bytes_total stats;
    gc_runs = Stats.gc_count stats;
    mode_switches = Stats.mode_switches stats;
    shared_pages = report.Dsm.shared_pages;
    pages_written = Stats.pages_written stats;
    pages_false_shared = Stats.pages_false_shared stats;
    mean_diff_bytes = Stats.mean_diff_size stats;
    read_faults = Stats.read_faults stats;
    write_faults = Stats.write_faults stats;
    checksum = result ();
    by_kind = report.Dsm.by_kind;
    live_diff_series = Stats.live_diff_series stats;
    events = report.Dsm.events;
    compute_ns = Stats.total_time stats ~category:Stats.Compute;
    fault_time_ns = Stats.total_time stats ~category:Stats.Fault;
    lock_time_ns = Stats.total_time stats ~category:Stats.Lock;
    barrier_time_ns = Stats.total_time stats ~category:Stats.Barrier;
  }

(* The sequential-baseline cache is the one cross-run mutable global in
   the harness; [Pool] workers reach it through [speedup], so every
   access goes through a mutex.  The simulation itself runs outside the
   lock: two domains may race to fill the same key, but the run is
   deterministic, so both write the identical value. *)
let seq_cache : (string * Registry.scale, int) Hashtbl.t = Hashtbl.create 16

let seq_cache_mutex = Mutex.create ()

let sequential_time_ns ~(app : Registry.entry) ~scale =
  let key = (app.Registry.name, scale) in
  let cached =
    Mutex.protect seq_cache_mutex (fun () -> Hashtbl.find_opt seq_cache key)
  in
  match cached with
  | Some t -> t
  | None ->
    let m = run ~app ~protocol:Config.Sw ~nprocs:1 ~scale () in
    Mutex.protect seq_cache_mutex (fun () ->
        Hashtbl.replace seq_cache key m.time_ns);
    m.time_ns

let speedup m =
  match
    List.find_opt (fun e -> e.Registry.name = m.app) Registry.all
  with
  | None -> invalid_arg ("Runner.speedup: unknown app " ^ m.app)
  | Some app ->
    let seq = sequential_time_ns ~app ~scale:m.scale in
    float_of_int seq /. float_of_int m.time_ns
