module Series = Adsm_sim.Series
module Page = Adsm_mem.Page

(* A set of page numbers: one flag byte per page, grown by doubling,
   and the number of flags set. *)
type page_set = { mutable flags : Bytes.t; mutable count : int }

let page_set () = { flags = Bytes.make 64 '\000'; count = 0 }

let page_mem s page =
  page < Bytes.length s.flags && Bytes.get s.flags page <> '\000'

let page_add s page =
  if not (page_mem s page) then begin
    let len = Bytes.length s.flags in
    if page >= len then begin
      let n = ref (2 * len) in
      while page >= !n do n := 2 * !n done;
      let flags = Bytes.make !n '\000' in
      Bytes.blit s.flags 0 flags 0 len;
      s.flags <- flags
    end;
    Bytes.set s.flags page '\001';
    s.count <- s.count + 1
  end

type t = {
  mutable twins_created : int;
  mutable diffs_created : int;
  mutable diff_bytes_created : int;
  mutable diffs_live : int;  (** live diff count, all nodes *)
  series : Series.t;
  mutable own_requests : int;
  mutable own_refusals : int;
  mutable gcs : int;
  mutable rfaults : int;
  mutable wfaults : int;
  writers : page_set;  (** pages with a recorded writer *)
  false_shared : page_set;
  mutable modified_bytes : int;  (** summed over every created diff *)
  mutable switches : int;
  mutable migratory_upgrades : int;
  mutable compute_ns : int;
  mutable fault_ns : int;
  mutable lock_ns : int;
  mutable barrier_ns : int;
}

let create () =
  {
    twins_created = 0;
    diffs_created = 0;
    diff_bytes_created = 0;
    diffs_live = 0;
    series = Series.create ~name:"live diffs";
    own_requests = 0;
    own_refusals = 0;
    gcs = 0;
    rfaults = 0;
    wfaults = 0;
    writers = page_set ();
    false_shared = page_set ();
    modified_bytes = 0;
    switches = 0;
    migratory_upgrades = 0;
    compute_ns = 0;
    fault_ns = 0;
    lock_ns = 0;
    barrier_ns = 0;
  }

let twin_created t = t.twins_created <- t.twins_created + 1

let twins_created_total t = t.twins_created

let twin_bytes_total t = t.twins_created * Page.size

let record_live t ~time =
  Series.record t.series ~time ~value:(float_of_int t.diffs_live)

let diff_created t ~bytes ~modified ~time =
  t.diffs_created <- t.diffs_created + 1;
  t.diff_bytes_created <- t.diff_bytes_created + bytes;
  t.diffs_live <- t.diffs_live + 1;
  t.modified_bytes <- t.modified_bytes + modified;
  record_live t ~time

let diff_fetched t ~time =
  t.diffs_live <- t.diffs_live + 1;
  record_live t ~time

let diffs_dropped t ~count ~time =
  t.diffs_live <- t.diffs_live - count;
  record_live t ~time

let diffs_created_total t = t.diffs_created

let diff_bytes_total t = t.diff_bytes_created

let live_diff_series t = t.series

let ownership_request t = t.own_requests <- t.own_requests + 1

let ownership_requests t = t.own_requests

let ownership_refused t = t.own_refusals <- t.own_refusals + 1

let ownership_refusals t = t.own_refusals

let gc_started t = t.gcs <- t.gcs + 1

let gc_count t = t.gcs

let page_fault t ~read =
  if read then t.rfaults <- t.rfaults + 1 else t.wfaults <- t.wfaults + 1

let read_faults t = t.rfaults

let write_faults t = t.wfaults

let note_write t ~page = page_add t.writers page

let note_false_sharing t ~page = page_add t.false_shared page

let pages_written t = t.writers.count

let page_false_shared t ~page = page_mem t.false_shared page

let pages_false_shared t = t.false_shared.count

let false_shared_fraction t =
  let w = pages_written t in
  if w = 0 then 0. else float_of_int (pages_false_shared t) /. float_of_int w

let mean_diff_size t =
  if t.diffs_created = 0 then 0.
  else float_of_int t.modified_bytes /. float_of_int t.diffs_created

let mode_switches t = t.switches

let mode_switch t = t.switches <- t.switches + 1

let migratory_upgrade t = t.migratory_upgrades <- t.migratory_upgrades + 1

let migratory_upgrades t = t.migratory_upgrades

type time_category = Compute | Fault | Lock | Barrier

let add_time t ~category ~ns =
  match category with
  | Compute -> t.compute_ns <- t.compute_ns + ns
  | Fault -> t.fault_ns <- t.fault_ns + ns
  | Lock -> t.lock_ns <- t.lock_ns + ns
  | Barrier -> t.barrier_ns <- t.barrier_ns + ns

let total_time t ~category =
  match category with
  | Compute -> t.compute_ns
  | Fault -> t.fault_ns
  | Lock -> t.lock_ns
  | Barrier -> t.barrier_ns
