module Config = Adsm_dsm.Config
module Dsm = Adsm_dsm.Dsm
module Stats = Adsm_dsm.Stats
module Registry = Adsm_apps.Registry

type suite = {
  scale : Registry.scale;
  nprocs : int;
  tweak : Config.t -> Config.t;
      (* configuration post-processing (e.g. a non-default network or
         topology from the CLI), re-applied by artifacts that make their
         own dedicated runs *)
  measurements : Runner.measurement list;
}

let selected_apps = function
  | None -> Registry.all
  | Some names ->
    List.filter_map
      (fun n ->
        match Registry.find n with
        | Some e -> Some e
        | None -> invalid_arg ("Experiments: unknown application " ^ n))
      names

let collect ?apps ?(scale = Registry.Default) ?(nprocs = 8) ?(jobs = 1)
    ?(tweak = Fun.id) () =
  let apps = selected_apps apps in
  let cells =
    List.concat_map
      (fun app -> List.map (fun protocol -> (app, protocol)) Config.all_protocols)
      apps
  in
  (* Every (app, protocol) cell is an independent deterministic
     simulation; [Pool.map] preserves the sequential result order, so the
     suite is identical for any [jobs]. *)
  let measurements =
    Pool.map ~jobs
      (fun (app, protocol) ->
        Runner.run ~tweak ~app ~protocol ~nprocs ~scale ())
      cells
  in
  { scale; nprocs; tweak; measurements }

let find suite ~app ~protocol =
  List.find_opt
    (fun (m : Runner.measurement) -> m.app = app && m.protocol = protocol)
    suite.measurements

let get suite ~app ~protocol =
  match find suite ~app ~protocol with
  | Some m -> m
  | None ->
    invalid_arg
      (Printf.sprintf "Experiments: no measurement for %s/%s" app
         (Config.protocol_name protocol))

let apps_of suite =
  List.filter
    (fun (e : Registry.entry) ->
      find suite ~app:e.Registry.name ~protocol:Config.Mw <> None)
    Registry.all

let seconds ns = Printf.sprintf "%.3f" (float_of_int ns /. 1e9)

(* ------------------------------------------------------------------ *)
(* Table 1                                                            *)
(* ------------------------------------------------------------------ *)

let table1 suite =
  let rows =
    List.map
      (fun (e : Registry.entry) ->
        let seq = Runner.sequential_time_ns ~app:e ~scale:suite.scale in
        [
          e.Registry.name;
          e.Registry.data_desc suite.scale;
          e.Registry.sync;
          seconds seq;
          Printf.sprintf "%.1f" e.Registry.paper_seq_s;
        ])
      (apps_of suite)
  in
  Tables.render
    ~title:
      "Table 1: applications, input sizes, synchronization, sequential time\n\
       (simulated seconds at scaled inputs; paper column is the authors'\n\
       SPARC-20 seconds at full inputs - only relative magnitudes are\n\
       comparable)"
    ~header:[ "Program"; "Input"; "Sync"; "Seq time (s)"; "Paper (s)" ]
    rows

(* ------------------------------------------------------------------ *)
(* Table 2                                                            *)
(* ------------------------------------------------------------------ *)

let granularity_class mean =
  if mean <= 0. then "large"
    (* no diffs at all: whole-page owner transfers *)
  else if mean > 3072. then "large"
  else if mean > 1024. then "med-large"
  else if mean > 256. then "medium"
  else "small"

let table2 suite =
  let rows =
    List.map
      (fun (e : Registry.entry) ->
        let m = get suite ~app:e.Registry.name ~protocol:Config.Mw in
        let fs_pct =
          if m.pages_written = 0 then 0.
          else
            100.
            *. float_of_int m.pages_false_shared
            /. float_of_int m.pages_written
        in
        [
          e.Registry.name;
          granularity_class m.mean_diff_bytes;
          Printf.sprintf "%.0f" m.mean_diff_bytes;
          Printf.sprintf "%.1f" fs_pct;
          e.Registry.paper_wg;
          Printf.sprintf "%.1f" e.Registry.paper_fs_pct;
        ])
      (apps_of suite)
  in
  Tables.render
    ~title:
      "Table 2: write granularity and write-write falsely shared pages\n\
       (measured under MW; \"% WW-FS\" is falsely shared pages over written\n\
       pages)"
    ~header:
      [
        "Program";
        "Granularity";
        "Mean diff (B)";
        "% WW-FS";
        "Paper gran.";
        "Paper % WW-FS";
      ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 1                                                           *)
(* ------------------------------------------------------------------ *)

(* Run one micro access pattern under WFS and summarize the protocol
   actions, mirroring the narrative of the paper's Figure 1. *)
let micro_scenario name program =
  let cfg = Config.make ~protocol:Config.Wfs ~nprocs:2 () in
  let t = Dsm.create cfg in
  let a = Dsm.alloc_f64 t ~name:"page" ~len:512 in
  let report = Dsm.run t (fun ctx -> program ctx a) in
  let s = report.Dsm.stats in
  Printf.sprintf
    "%-18s  own-req %d  refused %d  twins %d  diffs %d  page-req msgs %s\n"
    name
    (Stats.ownership_requests s)
    (Stats.ownership_refusals s)
    (Stats.twins_created_total s)
    (Stats.diffs_created_total s)
    (match List.assoc_opt "page" report.Dsm.by_kind with
    | Some (n, _) -> string_of_int n
    | None -> "0")

let figure1 () =
  let producer_consumer ctx a =
    for _ = 1 to 3 do
      if Dsm.me ctx = 0 then
        for i = 0 to 511 do
          Dsm.f64_set ctx a i 1.0
        done;
      Dsm.barrier ctx;
      if Dsm.me ctx = 1 then ignore (Dsm.f64_get ctx a 0);
      Dsm.barrier ctx
    done
  in
  let migratory ctx a =
    for _ = 1 to 3 do
      (* each processor in turn reads then overwrites the page *)
      for turn = 0 to 1 do
        if Dsm.me ctx = turn then begin
          ignore (Dsm.f64_get ctx a 0);
          for i = 0 to 511 do
            Dsm.f64_set ctx a i 2.0
          done
        end;
        Dsm.barrier ctx
      done
    done
  in
  let false_sharing ctx a =
    let base = Dsm.me ctx * 256 in
    for _ = 1 to 3 do
      for i = base to base + 255 do
        Dsm.f64_set ctx a i 3.0
      done;
      Dsm.barrier ctx
    done
  in
  "Figure 1: WFS behaviour on the three canonical access patterns\n\
   (producer-consumer and migratory keep the page in SW mode - ownership\n\
   is granted, no twins; write-write false sharing triggers an ownership\n\
   refusal and a switch to MW mode - twins and diffs appear)\n\n"
  ^ micro_scenario "producer-consumer" producer_consumer
  ^ micro_scenario "migratory" migratory
  ^ micro_scenario "write-write FS" false_sharing
  ^ "\n"

(* ------------------------------------------------------------------ *)
(* Figure 2                                                           *)
(* ------------------------------------------------------------------ *)

let figure2 suite =
  let header =
    [ "Program" ]
    @ List.map Config.protocol_name Config.all_protocols
    @ [ Printf.sprintf "speedup bars (0..%d)" suite.nprocs ]
  in
  let rows =
    List.map
      (fun (e : Registry.entry) ->
        let sp protocol =
          Runner.speedup (get suite ~app:e.Registry.name ~protocol)
        in
        let cells =
          List.map
            (fun p -> Printf.sprintf "%.2f" (sp p))
            Config.all_protocols
        in
        let bars =
          String.concat " "
            (List.map
               (fun p ->
                 Tables.bar ~width:8 ~value:(sp p)
                   ~max:(float_of_int suite.nprocs))
               Config.all_protocols)
        in
        (e.Registry.name :: cells) @ [ bars ])
      (apps_of suite)
  in
  Tables.render
    ~title:
      (Printf.sprintf
         "Figure 2: speedup on %d processors (protocols in paper order: MW, \
          WFS+WG, WFS, SW)"
         suite.nprocs)
    ~header rows

(* ------------------------------------------------------------------ *)
(* Table 3                                                            *)
(* ------------------------------------------------------------------ *)

let table3 suite =
  let memory_protocols = [ Config.Mw; Config.Wfs_wg; Config.Wfs ] in
  let rows =
    List.concat_map
      (fun (e : Registry.entry) ->
        List.mapi
          (fun i protocol ->
            let m = get suite ~app:e.Registry.name ~protocol in
            [
              (if i = 0 then e.Registry.name else "");
              Config.protocol_name protocol;
              Tables.mb m.twin_bytes;
              Tables.mb m.diff_bytes;
              Tables.mb (m.twin_bytes + m.diff_bytes);
            ])
          memory_protocols)
      (apps_of suite)
  in
  Tables.render
    ~title:
      "Table 3: memory consumption (cumulative twin and diff space, MB);\n\
       SW uses neither twins nor diffs"
    ~header:[ "Program"; "Protocol"; "Twins"; "Diffs"; "Total" ]
    rows

(* ------------------------------------------------------------------ *)
(* Table 4                                                            *)
(* ------------------------------------------------------------------ *)

let table4 suite =
  let rows =
    List.concat_map
      (fun (e : Registry.entry) ->
        List.mapi
          (fun i protocol ->
            let m = get suite ~app:e.Registry.name ~protocol in
            [
              (if i = 0 then e.Registry.name else "");
              Config.protocol_name protocol;
              Tables.thousands m.messages;
              Tables.thousands m.own_requests;
              Tables.mb m.data_bytes;
            ])
          Config.all_protocols)
      (apps_of suite)
  in
  Tables.render
    ~title:
      "Table 4: messages (10^3), ownership requests (10^3) and data (MB)\n\
       exchanged"
    ~header:[ "Program"; "Protocol"; "Msgs"; "Own req"; "Data" ]
    rows

(* ------------------------------------------------------------------ *)
(* Figure 3                                                           *)
(* ------------------------------------------------------------------ *)

let figure3 suite =
  let app = "3D-FFT" in
  let protocols = [ Config.Mw; Config.Wfs_wg; Config.Wfs ] in
  match find suite ~app ~protocol:Config.Mw with
  | None -> "Figure 3: (3D-FFT not in the selected application set)\n"
  | Some _ ->
    (* Dedicated runs with the garbage-collection threshold scaled to the
       smaller data set (the paper's 1 MB per processor went with a 4 MB
       array; our default grid is 16x smaller), so the characteristic MW
       sawtooth appears within the six iterations. *)
    let entry =
      match Registry.find app with Some e -> e | None -> assert false
    in
    let tweak cfg = suite.tweak { cfg with Config.gc_threshold_bytes = 131_072 } in
    let runs =
      List.map
        (fun p ->
          ( p,
            Runner.run ~tweak ~app:entry ~protocol:p
              ~nprocs:suite.nprocs ~scale:suite.scale () ))
        protocols
    in
    let t_end =
      List.fold_left
        (fun acc (_, (m : Runner.measurement)) -> max acc m.time_ns)
        1 runs
    in
    let sampled =
      List.map
        (fun (p, (m : Runner.measurement)) ->
          ( Config.protocol_name p,
            Adsm_sim.Series.resample m.live_diff_series ~buckets:72 ~t_end ))
        runs
    in
    "Figure 3: total live diffs over time, 3D-FFT (each drop in the MW\n\
     curve is a garbage collection; WFS makes almost no diffs; WFS+WG\n\
     stops diffing once every page's granularity is measured)\n\n"
    ^ Tables.series_plot ~width:72 ~height:7 sampled
    ^ "\n"

(* ------------------------------------------------------------------ *)
(* Execution-time breakdown (beyond the paper)                        *)
(* ------------------------------------------------------------------ *)

let breakdown suite =
  let rows =
    List.concat_map
      (fun (e : Registry.entry) ->
        List.mapi
          (fun i protocol ->
            let m = get suite ~app:e.Registry.name ~protocol in
            let total =
              float_of_int (m.Runner.time_ns * suite.nprocs) /. 100.
            in
            let pct ns = Printf.sprintf "%.0f" (float_of_int ns /. total) in
            let other =
              (m.Runner.time_ns * suite.nprocs)
              - m.Runner.compute_ns - m.Runner.fault_time_ns
              - m.Runner.lock_time_ns - m.Runner.barrier_time_ns
            in
            [
              (if i = 0 then e.Registry.name else "");
              Config.protocol_name protocol;
              pct m.Runner.compute_ns;
              pct m.Runner.fault_time_ns;
              pct m.Runner.lock_time_ns;
              pct m.Runner.barrier_time_ns;
              pct other;
            ])
          Config.all_protocols)
      (apps_of suite)
  in
  Tables.render
    ~title:
      "Execution-time breakdown (beyond the paper): percentage of total
       processor-time spent computing, servicing page faults (including
       twin/diff work), acquiring locks, and waiting at barriers
       (including garbage collection); the remainder is load imbalance
       and local protocol bookkeeping."
    ~header:
      [ "Program"; "Protocol"; "%comp"; "%fault"; "%lock"; "%barrier"; "%other" ]
    rows

(* ------------------------------------------------------------------ *)
(* Survivability study (FAULTS.md; EXPERIMENTS.md appendix)           *)
(* ------------------------------------------------------------------ *)

(* Crash schedules are derived per cell from the fault-free duration so
   the crashes always land mid-computation regardless of application or
   scale: [count] crashes split the run evenly, each with a tenth of the
   run as downtime.  They hit nodes 1, 2, ... and spare node 0, the
   barrier root, because some node-0 crashes still abort recovery
   (ROADMAP item 1). *)
let survivability_schedule ~count ~nprocs ~duration_ns =
  let crashes =
    List.init count (fun i ->
        {
          Adsm_net.Fault.node = 1 + (i mod (nprocs - 1));
          at = duration_ns / (count + 1) * (i + 1);
          downtime = max 1 (duration_ns / 10);
        })
  in
  { Adsm_net.Fault.empty with Adsm_net.Fault.crashes }

type survival = { table : string; failures : string list }

let survivability ?(apps = [ "SOR"; "IS"; "Water" ])
    ?(scale = Registry.Tiny) ?(nprocs = 8) ?(jobs = 1) () =
  if nprocs < 2 then
    invalid_arg
      (Printf.sprintf
         "survive: needs at least 2 nodes (got %d): node 0 is never crashed"
         nprocs);
  let apps = selected_apps (Some apps) in
  let protocols = [ Config.Mw; Config.Sw; Config.Wfs ] in
  let cells =
    List.concat_map
      (fun (app : Registry.entry) ->
        List.map (fun protocol -> (app, protocol)) protocols)
      apps
  in
  (* Each crashed run either completes with the fault-free checksum or
     fails: a failed run becomes a row naming its app, protocol and
     replayable schedule, plus one failure line, and the table goes on. *)
  let results =
    Pool.map ~jobs
      (fun ((app : Registry.entry), protocol) ->
        let base = Runner.run ~app ~protocol ~nprocs ~scale () in
        List.map
          (fun count ->
            let faults =
              survivability_schedule ~count ~nprocs
                ~duration_ns:base.Runner.time_ns
            in
            let name = app.Registry.name
            and proto = Config.protocol_name protocol in
            let failed verdict cause =
              let spec = Adsm_net.Fault.to_string faults in
              ( [ name; proto; string_of_int count; verdict; "-"; "-"; "-";
                  Printf.sprintf "--faults '%s'" spec ],
                Some
                  (Printf.sprintf
                     "%s/%s, %d crash(es): %s; replay: adsm_run run --app %s \
                      --protocol %s --procs %d%s --faults '%s'"
                     name proto count cause name proto nprocs
                     (if scale = Registry.Tiny then " --tiny" else "")
                     spec) )
            in
            match Runner.run ~faults ~app ~protocol ~nprocs ~scale () with
            | exception e -> failed "ABORT" (Printexc.to_string e)
            | m when m.Runner.checksum <> base.Runner.checksum ->
              failed "DIVERGED"
                (Printf.sprintf "checksum %g, fault-free %g" m.Runner.checksum
                   base.Runner.checksum)
            | m ->
              let pct part whole =
                Printf.sprintf "%+.1f%%"
                  (100. *. float_of_int (part - whole) /. float_of_int whole)
              in
              ( [
                  (if count = 1 then name else "");
                  (if count = 1 then proto else "");
                  string_of_int count;
                  seconds m.Runner.time_ns;
                  pct m.Runner.time_ns base.Runner.time_ns;
                  Tables.thousands m.Runner.messages;
                  pct m.Runner.wire_bytes base.Runner.wire_bytes;
                ],
                None ))
          [ 1; 2 ])
      cells
    |> List.concat
  in
  {
    table =
      Tables.render
        ~title:
          "Survivability: completion under node crashes (checksums verified\n\
           against the fault-free run; overheads relative to it)"
        ~header:
          [ "Program"; "Protocol"; "Crashes"; "Time(s)"; "Slowdown"; "Msgs";
            "Wire" ]
        (List.map fst results);
    failures = List.filter_map snd results;
  }

(* ------------------------------------------------------------------ *)
(* CSV export                                                         *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents);
  path

let export_csv suite ~dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path name = Filename.concat dir name in
  let speedups =
    let header =
      "app,protocol,nprocs,speedup,time_ns,messages,data_bytes,\
       ownership_requests,twin_bytes,diff_bytes,gc_runs,read_faults,\
       write_faults\n"
    in
    let rows =
      List.map
        (fun (m : Runner.measurement) ->
          Printf.sprintf "%s,%s,%d,%.4f,%d,%d,%d,%d,%d,%d,%d,%d,%d\n" m.app
            (Config.protocol_name m.protocol)
            m.nprocs (Runner.speedup m) m.time_ns m.messages m.data_bytes
            m.own_requests m.twin_bytes m.diff_bytes m.gc_runs m.read_faults
            m.write_faults)
        suite.measurements
    in
    write_file (path "speedups.csv") (header ^ String.concat "" rows)
  in
  let sharing =
    let header = "app,mean_diff_bytes,pages_written,pages_false_shared\n" in
    let rows =
      List.map
        (fun (e : Registry.entry) ->
          let m = get suite ~app:e.Registry.name ~protocol:Config.Mw in
          Printf.sprintf "%s,%.1f,%d,%d\n" m.Runner.app m.mean_diff_bytes
            m.pages_written m.pages_false_shared)
        (apps_of suite)
    in
    write_file (path "sharing.csv") (header ^ String.concat "" rows)
  in
  let fig3 =
    match find suite ~app:"3D-FFT" ~protocol:Config.Mw with
    | None -> []
    | Some _ ->
      List.map
        (fun protocol ->
          let m = get suite ~app:"3D-FFT" ~protocol in
          let rows =
            List.map
              (fun (t, v) -> Printf.sprintf "%d,%.0f\n" t v)
              (Adsm_sim.Series.to_list m.Runner.live_diff_series)
          in
          let name =
            Printf.sprintf "fig3_%s.csv"
              (String.lowercase_ascii
                 (String.map
                    (fun c -> if c = '+' then 'p' else c)
                    (Config.protocol_name protocol)))
          in
          write_file (path name) ("time_ns,live_diffs\n" ^ String.concat "" rows))
        [ Config.Mw; Config.Wfs_wg; Config.Wfs ]
  in
  (speedups :: sharing :: fig3)

(* ------------------------------------------------------------------ *)

let run_all ?apps ?scale ?nprocs ?jobs ?tweak () =
  let suite = collect ?apps ?scale ?nprocs ?jobs ?tweak () in
  String.concat "\n"
    [
      table1 suite;
      table2 suite;
      figure1 ();
      figure2 suite;
      table3 suite;
      table4 suite;
      figure3 suite;
      breakdown suite;
    ]
