(* Benchmark harness.

   Two parts:

   1. Regeneration of every table and figure in the paper's evaluation
      (Tables 1-4, Figures 1-3), from fresh deterministic simulation runs
      at the default (scaled) inputs on 8 simulated processors.  Pass a
      subset of artifact names (e.g. `table3 fig2`) to restrict; pass
      `--tiny` for a fast smoke run.

   2. Bechamel microbenchmarks of the protocol primitives that the cost
      model charges for (twin creation, diff creation/application, vector
      timestamps, the event heap), reported in nanoseconds per operation.
      Enabled with `micro` (included in the default full run).
*)

module Config = Adsm_dsm.Config
module Dsm = Adsm_dsm.Dsm
module Vc = Adsm_dsm.Vc
module Interval = Adsm_dsm.Interval
module Diff = Adsm_dsm.Diff
module Page = Adsm_mem.Page
module Eheap = Adsm_sim.Eheap
module Rng = Adsm_sim.Rng
module Registry = Adsm_apps.Registry
module Experiments = Adsm_harness.Experiments
module Pool = Adsm_harness.Pool
module Runner = Adsm_harness.Runner
module Json = Adsm_trace.Json

(* ------------------------------------------------------------------ *)
(* Bechamel microbenchmarks                                           *)
(* ------------------------------------------------------------------ *)

let page_pair ~modified =
  let twin = Page.create () in
  let rng = Rng.create 7L in
  for i = 0 to (Page.size / 8) - 1 do
    Page.set_f64 twin (8 * i) (Rng.float rng)
  done;
  let current = Page.copy twin in
  if modified > 0 then begin
    let slots = Page.size / 8 in
    let step = max 1 (slots / modified) in
    let k = ref 0 in
    while !k < slots do
      Page.set_f64 current (8 * !k) (float_of_int !k +. 0.5);
      k := !k + step
    done
  end;
  (twin, current)

let micro_tests () =
  let open Bechamel in
  let twin_full, current_full = page_pair ~modified:512 in
  let twin_sparse, current_sparse = page_pair ~modified:8 in
  let full_diff = Diff.create ~twin:twin_full ~current:current_full () in
  let sparse_diff = Diff.create ~twin:twin_sparse ~current:current_sparse () in
  let target = Page.create () in
  let ranges =
    List.init 16 (fun i -> ((i * 256) + (if i mod 3 = 0 then 64 else 0), 40))
  in
  let vc_a = Vc.zero ~nprocs:8 and vc_b = Vc.zero ~nprocs:8 in
  for i = 0 to 7 do
    Vc.set vc_a i (i * 3);
    Vc.set vc_b i (23 - i)
  done;
  (* 1024-wide clocks with distinct sums (the sum cut decides), an
     epoch-stamped base with a rebased clock two components ahead, and a
     4096-interval indexed log probed near its tail. *)
  let vc_big_lo = Vc.zero ~nprocs:1024 and vc_big_hi = Vc.zero ~nprocs:1024 in
  for i = 0 to 1023 do
    Vc.set vc_big_lo i i;
    Vc.set vc_big_hi i (i + 1)
  done;
  let epoch_base = Vc.copy vc_big_lo in
  let vc_rebased = Vc.copy vc_big_lo in
  Vc.rebase ~epoch:1 vc_rebased ~base:epoch_base;
  Vc.set vc_rebased 3 2000;
  Vc.set vc_rebased 700 2000;
  let big_log = Interval.Log.create () in
  for i = 1 to 4096 do
    let vc = Vc.zero ~nprocs:4 in
    Vc.set vc 0 i;
    Interval.Log.append big_log (Interval.make ~proc:0 ~vc ~notices:[])
  done;
  let log_probe = Vc.zero ~nprocs:4 in
  Vc.set log_probe 0 4090;
  [
    Test.make ~name:"twin (page copy, 4KB)"
      (Staged.stage (fun () -> ignore (Page.copy twin_full)));
    Test.make ~name:"diff create (full page)"
      (Staged.stage (fun () ->
           ignore (Diff.create ~twin:twin_full ~current:current_full ())));
    Test.make ~name:"diff create (sparse)"
      (Staged.stage (fun () ->
           ignore (Diff.create ~twin:twin_sparse ~current:current_sparse ())));
    Test.make ~name:"diff create (clean page)"
      (Staged.stage (fun () ->
           (* all-equal pages: pure scan cost, the word-skip fast path *)
           ignore (Diff.create ~twin:twin_full ~current:twin_full ())));
    Test.make ~name:"diff of_ranges (16 ranges)"
      (Staged.stage (fun () -> ignore (Diff.of_ranges ranges current_full)));
    Test.make ~name:"diff apply (full page)"
      (Staged.stage (fun () -> Diff.apply full_diff target));
    Test.make ~name:"diff apply (sparse)"
      (Staged.stage (fun () -> Diff.apply sparse_diff target));
    Test.make ~name:"vc merge+compare (8p)"
      (Staged.stage (fun () ->
           let c = Vc.copy vc_a in
           Vc.merge_into c vc_b;
           ignore (Vc.leq vc_a c && Vc.concurrent vc_a vc_b)));
    Test.make ~name:"vc merge_into (in-place, 8p)"
      (Staged.stage (fun () -> Vc.merge_into vc_a vc_b));
    (* Large-n summary ops: [leq]/[order] on 1024-wide clocks with
       distinct cached sums decide without touching the components, and
       [delta_size_bytes] against a current epoch base counts only the
       dirty components.  These are the hot comparisons of the 1024-node
       grid; see DESIGN.md "Large-n data structures". *)
    Test.make ~name:"vc leq (1024p, sum cut)"
      (Staged.stage (fun () -> ignore (Vc.leq vc_big_lo vc_big_hi)));
    Test.make ~name:"vc order (1024p, sum cut)"
      (Staged.stage (fun () -> ignore (Vc.order vc_big_hi vc_big_lo)));
    Test.make ~name:"vc delta_size (1024p, epoch)"
      (Staged.stage (fun () ->
           ignore (Vc.delta_size_bytes ~since:epoch_base vc_rebased)));
    Test.make ~name:"log first_after (4k intervals)"
      (Staged.stage (fun () -> ignore (Interval.Log.first_after big_log 2048)));
    Test.make ~name:"log unseen_by tail (4k)"
      (Staged.stage (fun () ->
           ignore (Interval.Log.unseen_by log_probe ~proc:0 big_log [])));
    Test.make ~name:"event heap push+pop x64"
      (Staged.stage (fun () ->
           let h = Eheap.create () in
           for i = 0 to 63 do
             Eheap.push h ~time:((i * 37) mod 101) ~seq:i i
           done;
           let rec drain () =
             match Eheap.pop_min h with Some _ -> drain () | None -> ()
           in
           drain ()));
  ]

(* Accessor hot-path rows: each run is a full 1-processor [Dsm.run] (its
   engine/node setup is a few microseconds, small against the 8k
   accesses), so a regression anywhere on the access path — TLB hit,
   permission check, or the outlined fault path — moves these numbers.
   The x-counts are in the row names; divide to get per-access cost. *)
let accessor_tests () =
  let open Bechamel in
  let pages = 64 in
  let cfg = Config.make ~protocol:Config.Mw ~nprocs:1 () in
  let t = Dsm.create cfg in
  let a = Dsm.alloc_f64 t ~name:"bench-accessors" ~len:(pages * 512) in
  let buf = Array.make 512 0. in
  [
    Test.make ~name:"f64_get x8192 (scalar, warm)"
      (Staged.stage (fun () ->
           ignore
             (Dsm.run t (fun ctx ->
                  let s = ref 0. in
                  for i = 0 to 8191 do
                    s := !s +. Dsm.f64_get ctx a (i land 511)
                  done;
                  ignore !s))));
    Test.make ~name:"f64_set x8192 (scalar, warm)"
      (Staged.stage (fun () ->
           ignore
             (Dsm.run t (fun ctx ->
                  for i = 0 to 8191 do
                    Dsm.f64_set ctx a (i land 511) 1.0
                  done))));
    Test.make ~name:"f64_get_run x8192 (512/run)"
      (Staged.stage (fun () ->
           ignore
             (Dsm.run t (fun ctx ->
                  for _ = 1 to 16 do
                    Dsm.f64_get_run ctx a 0 buf 0 512
                  done))));
    Test.make ~name:"f64_set_run x8192 (512/run)"
      (Staged.stage (fun () ->
           ignore
             (Dsm.run t (fun ctx ->
                  for _ = 1 to 16 do
                    Dsm.f64_set_run ctx a 0 buf 0 512
                  done))));
    Test.make ~name:"page fault x64 (read, cold)"
      (Staged.stage (fun () ->
           ignore
             (Dsm.run t (fun ctx ->
                  let s = ref 0. in
                  for p = 0 to pages - 1 do
                    s := !s +. Dsm.f64_get ctx a (p * 512)
                  done;
                  ignore !s))));
  ]

let run_micro () =
  let open Bechamel in
  print_endline "Microbenchmarks: protocol primitives (wall-clock, host CPU)";
  print_endline
    "(the simulation charges these at 1997 SPARC-20 prices instead: twin\n\
     104 us, full-page diff 179 us)\n";
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg =
    Benchmark.cfg ~limit:500 ~quota:(Time.second 0.2) ~kde:None ()
  in
  let tests =
    Test.make_grouped ~name:"primitives"
      (micro_tests () @ accessor_tests ())
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  let results =
    Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                   ~predictors:[| Measure.run |])
      instance raw
  in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] ->
        Printf.printf "  %-28s %12.1f ns/op\n"
          (match String.index_opt name '/' with
          | Some i -> String.sub name (i + 1) (String.length name - i - 1)
          | None -> name)
          est
      | _ -> ())
    results;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Simulator cost: events executed and wire traffic per protocol      *)
(* ------------------------------------------------------------------ *)

let simcost (suite : Experiments.suite) =
  let module Runner = Adsm_harness.Runner in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    "Simulator cost per protocol (summed over all applications)\n";
  Buffer.add_string buf
    (Printf.sprintf "  %-8s %16s %16s %12s\n" "protocol" "events executed"
       "wire bytes" "messages");
  List.iter
    (fun protocol ->
      let ms =
        List.filter
          (fun m -> m.Runner.protocol = protocol && m.Runner.nprocs > 1)
          suite.Experiments.measurements
      in
      if ms <> [] then
        let sum f = List.fold_left (fun acc m -> acc + f m) 0 ms in
        Buffer.add_string buf
          (Printf.sprintf "  %-8s %16d %16d %12d\n"
             (Config.protocol_name protocol)
             (sum (fun m -> m.Runner.events))
             (sum (fun m -> m.Runner.wire_bytes))
             (sum (fun m -> m.Runner.messages))))
    Config.all_protocols;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Trace smoke test: run SOR with tracing on, validate the artifact   *)
(* ------------------------------------------------------------------ *)

let trace_smoke () =
  let module Runner = Adsm_harness.Runner in
  let module Trace = Adsm_trace in
  let nprocs = 4 in
  let app =
    match Registry.find "SOR" with
    | Some app -> app
    | None -> failwith "trace-smoke: SOR not registered"
  in
  let path = Filename.temp_file "adsm_trace_smoke" ".json" in
  let ring = Trace.Sink.ring () in
  let tracer =
    Trace.Tracer.create
      [
        Trace.Sink.file Trace.Sink.Chrome ~nodes:nprocs path;
        Trace.Sink.ring_sink ring;
      ]
  in
  let m =
    Runner.run ~tracer ~app ~protocol:Config.Wfs ~nprocs
      ~scale:Registry.Tiny ()
  in
  Trace.Tracer.close tracer;
  let contents = In_channel.with_open_text path In_channel.input_all in
  Sys.remove path;
  (* The emitted Chrome trace must be a valid JSON document with a
     non-empty traceEvents array covering every simulated node. *)
  let json =
    match Trace.Json.parse contents with
    | Ok json -> json
    | Error e -> failwith ("trace-smoke: chrome trace does not parse: " ^ e)
  in
  let records =
    match Option.bind (Trace.Json.member "traceEvents" json) Trace.Json.to_list
    with
    | Some (_ :: _ as l) -> l
    | _ -> failwith "trace-smoke: traceEvents missing or empty"
  in
  let pids =
    List.sort_uniq compare
      (List.filter_map
         (fun r -> Option.bind (Trace.Json.member "pid" r) Trace.Json.to_int)
         records)
  in
  if pids <> List.init nprocs Fun.id then
    failwith "trace-smoke: expected one Perfetto track per node";
  let events = Trace.Sink.ring_contents ring in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf
       "Trace smoke test: SOR under WFS, %d processors, tiny inputs\n" nprocs);
  Buffer.add_string buf
    (Printf.sprintf
       "  chrome artifact    %d bytes, %d records, valid JSON, pids 0..%d\n"
       (String.length contents) (List.length records) (nprocs - 1));
  Buffer.add_string buf
    (Printf.sprintf "  events captured    %d (ring dropped %d)\n"
       (List.length events)
       (Trace.Sink.ring_dropped ring));
  List.iter
    (fun tag ->
      let n = Trace.Query.count ~tag events in
      if n > 0 then Buffer.add_string buf (Printf.sprintf "    %-14s %6d\n" tag n))
    [
      "read-fault"; "write-fault"; "own-request"; "own-grant"; "own-refuse";
      "mode-change"; "twin-create"; "diff-create"; "diff-apply";
      "barrier-enter"; "barrier-leave"; "msg-send"; "msg-deliver";
    ];
  Buffer.add_string buf
    (Printf.sprintf "  run checksum       %.6f (%d messages)\n"
       m.Runner.checksum m.Runner.messages);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Wall-clock perf artifact: BENCH_suite.json                         *)
(* ------------------------------------------------------------------ *)

let git_rev () =
  let read path =
    try Some (String.trim (In_channel.with_open_text path In_channel.input_all))
    with Sys_error _ -> None
  in
  match read ".git/HEAD" with
  | Some head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
    let r = String.sub head 5 (String.length head - 5) in
    match read (Filename.concat ".git" r) with
    | Some rev -> rev
    | None -> head)
  | Some rev -> rev
  | None -> "unknown"

(* Whether tracked files differ from [git_rev]: the numbers then come
   from uncommitted code on top of that revision.  [None] outside a git
   checkout or without a git binary. *)
let git_dirty () =
  if not (Sys.file_exists ".git") then None
  else
    try
      let ic =
        Unix.open_process_args_in "git"
          [| "git"; "status"; "--porcelain"; "-uno" |]
      in
      let out = In_channel.input_all ic in
      match Unix.close_process_in ic with
      | Unix.WEXITED 0 -> Some (String.trim out <> "")
      | _ -> None
    with Unix.Unix_error _ -> None

let bench_out = "BENCH_suite.json"

(* Host wall-clock rows for the node-count scaling study's two fabrics:
   SOR at tiny scale, MW and WFS, 8 -> 1024 nodes, flat vs tree.  These
   price what a CI scaling run costs on the host (the flat fabric's
   simulated time explodes with node count, but its host cost grows too:
   every barrier is an O(n) serialized fan-in through node 0's NIC, and
   each of those messages is a simulator event). *)
let scaling_cells =
  let module Scaling = Adsm_harness.Scaling in
  List.concat_map
    (fun protocol ->
      List.concat_map
        (fun nprocs ->
          List.map
            (fun fabric -> (protocol, nprocs, fabric))
            [ Scaling.Flat_central; Scaling.Tree_combining ])
        [ 8; 64; 256; 1024 ])
    [ Config.Mw; Config.Wfs ]

let run_scaling_cell (protocol, nprocs, fabric) =
  let module Scaling = Adsm_harness.Scaling in
  let app =
    match Registry.find "SOR" with
    | Some a -> a
    | None -> failwith "perf: SOR not registered"
  in
  Runner.run
    ~tweak:(Scaling.tweak_of_fabric fabric)
    ~app ~protocol ~nprocs ~scale:Registry.Tiny ()

(* The full large-cluster grid: every application under all four
   protocols on both fabrics at 1024 nodes (3D-FFT at its structural
   64-plane cap — the tiny problem has 64 planes).  Still minutes of
   host wall even after the large-n work (IS and Water dominate), so
   the rows regenerate only under [--grid]; the committed artifact
   carries them. *)
let grid_nodes = 1024

let grid_cells =
  let module Scaling = Adsm_harness.Scaling in
  List.concat_map
    (fun app ->
      List.concat_map
        (fun protocol ->
          List.map
            (fun fabric -> (app, protocol, fabric))
            [ Scaling.Flat_central; Scaling.Tree_combining ])
        Config.all_protocols)
    Registry.names

let run_grid_cell (name, protocol, fabric) =
  let module Scaling = Adsm_harness.Scaling in
  let app =
    match Registry.find name with
    | Some a -> a
    | None -> failwith ("perf: unknown application " ^ name)
  in
  let nprocs =
    if String.lowercase_ascii name = "3d-fft" then Adsm_apps.Fft3d.max_nprocs
    else grid_nodes
  in
  ( nprocs,
    Runner.run
      ~tweak:(Scaling.tweak_of_fabric fabric)
      ~app ~protocol ~nprocs ~scale:Registry.Tiny () )

(* Measures the real (host) cost of the simulator itself: per-cell wall
   clock and events/second for the full 8-app x 4-protocol suite, then
   the same suite again fanned out over [jobs] worker domains.  The
   parallel pass must reproduce every sequential measurement
   field-for-field — any divergence is a pool bug and fails the run. *)
let perf ~tiny ~jobs ~grid () =
  let scale = if tiny then Registry.Tiny else Registry.Default in
  let nprocs = 8 in
  let apps = Registry.names in
  let cells =
    List.concat_map
      (fun name -> List.map (fun p -> (name, p)) Config.all_protocols)
      apps
  in
  let run_cell (name, protocol) =
    let app =
      match Registry.find name with
      | Some a -> a
      | None -> failwith ("perf: unknown application " ^ name)
    in
    Runner.run ~app ~protocol ~nprocs ~scale ()
  in
  let now = Unix.gettimeofday in
  let seq_t0 = now () in
  (* Allocation stats ride along with the wall clock: the words
     allocated by the cell (deltas over the run) plus the process-wide
     heap high-water mark after it, so allocation diets show up in the
     artifact trajectory alongside wall_ns.  Minor words come from
     [Gc.minor_words], which counts the live minor heap; OCaml 5's
     [quick_stat] only counts it up to the last minor collection, so
     its deltas were quantized to whole minor heaps (often 0). *)
  let timed =
    List.map
      (fun cell ->
        let g0 = Gc.quick_stat () and minor0 = Gc.minor_words () in
        let t0 = now () in
        let m = run_cell cell in
        let wall_ns = int_of_float ((now () -. t0) *. 1e9) in
        let minor1 = Gc.minor_words () and g1 = Gc.quick_stat () in
        let alloc =
          ( minor1 -. minor0,
            g1.Gc.major_words -. g0.Gc.major_words,
            g1.Gc.top_heap_words )
        in
        (cell, m, wall_ns, alloc))
      cells
  in
  let seq_wall_ns = int_of_float ((now () -. seq_t0) *. 1e9) in
  (* The sequential pass doubles as the weight oracle: dispatch the
     parallel pass longest-first so the heaviest cell (SOR/MW by a wide
     margin) cannot start last and run alone past the rest of the
     suite. *)
  let wall_of = Hashtbl.create 16 in
  List.iter (fun (cell, _, w, _) -> Hashtbl.replace wall_of cell w) timed;
  let weight cell = try Hashtbl.find wall_of cell with Not_found -> 0 in
  let par_t0 = now () in
  let par = Pool.map ~jobs ~weight run_cell cells in
  let par_wall_ns = int_of_float ((now () -. par_t0) *. 1e9) in
  let mismatches =
    List.filter (fun ((_, m, _, _), m') -> m <> m') (List.combine timed par)
  in
  let speedup = float_of_int seq_wall_ns /. float_of_int (max 1 par_wall_ns) in
  let scaling_timed =
    List.map
      (fun cell ->
        let t0 = now () in
        let m = run_scaling_cell cell in
        let wall_ns = int_of_float ((now () -. t0) *. 1e9) in
        (cell, m, wall_ns))
      scaling_cells
  in
  let grid_timed =
    if not grid then []
    else
      List.map
        (fun cell ->
          let t0 = now () in
          let nprocs, m = run_grid_cell cell in
          let wall_ns = int_of_float ((now () -. t0) *. 1e9) in
          (cell, nprocs, m, wall_ns))
        grid_cells
  in
  let grid_json =
    if grid_timed = [] then []
    else
      [
        ("grid_nodes", Json.Int grid_nodes);
        ( "grid",
          Json.List
            (List.map
               (fun ((name, protocol, fabric), nprocs,
                     (m : Runner.measurement), wall_ns) ->
                 Json.Obj
                   [
                     ("app", Json.String name);
                     ("protocol", Json.String (Config.protocol_name protocol));
                     ( "fabric",
                       Json.String (Adsm_harness.Scaling.fabric_name fabric) );
                     ("nprocs", Json.Int nprocs);
                     ("wall_ns", Json.Int wall_ns);
                     ("sim_time_ns", Json.Int m.Runner.time_ns);
                     ("events", Json.Int m.Runner.events);
                     ("messages", Json.Int m.Runner.messages);
                     ("wire_bytes", Json.Int m.Runner.wire_bytes);
                     ("checksum", Json.Float m.Runner.checksum);
                   ])
               grid_timed) );
      ]
  in
  let cell_json ((name, protocol), (m : Runner.measurement), wall_ns,
                 (minor_words, major_words, top_heap_words)) m' =
    let secs = float_of_int (max 1 wall_ns) /. 1e9 in
    Json.Obj
      [
        ("app", Json.String name);
        ("protocol", Json.String (Config.protocol_name protocol));
        ("wall_ns", Json.Int wall_ns);
        ("events", Json.Int m.Runner.events);
        ("events_per_sec", Json.Float (float_of_int m.Runner.events /. secs));
        ( "ns_per_event",
          Json.Float (float_of_int wall_ns /. float_of_int (max 1 m.Runner.events))
        );
        ("minor_words", Json.Float minor_words);
        ("major_words", Json.Float major_words);
        ("top_heap_words", Json.Int top_heap_words);
        ("checksum", Json.Float m.Runner.checksum);
        ("parallel_identical", Json.Bool (m = m'));
      ]
  in
  let doc =
    Json.Obj
      ([
        ("run_id", Json.String (Printf.sprintf "suite-%d" (int_of_float (Unix.time ()))));
        ("git_rev", Json.String (git_rev ()));
        ( "git_dirty",
          match git_dirty () with
          | Some b -> Json.Bool b
          | None -> Json.String "unknown" );
        ("host_cores", Json.Int (Domain.recommended_domain_count ()));
        ("scale", Json.String (if tiny then "tiny" else "default"));
        ("nprocs", Json.Int nprocs);
        ("jobs", Json.Int jobs);
        ("suite_seq_wall_ns", Json.Int seq_wall_ns);
        ("suite_par_wall_ns", Json.Int par_wall_ns);
        ("suite_speedup", Json.Float speedup);
        ("parallel_identical", Json.Bool (mismatches = []));
        ("cells", Json.List (List.map2 cell_json timed par));
        ( "scaling",
          Json.List
            (List.map
               (fun ((protocol, nprocs, fabric), (m : Runner.measurement),
                     wall_ns) ->
                 Json.Obj
                   [
                     ("app", Json.String "SOR");
                     ("protocol", Json.String (Config.protocol_name protocol));
                     ("nprocs", Json.Int nprocs);
                     ( "fabric",
                       Json.String (Adsm_harness.Scaling.fabric_name fabric) );
                     ("wall_ns", Json.Int wall_ns);
                     ("sim_time_ns", Json.Int m.Runner.time_ns);
                     ("events", Json.Int m.Runner.events);
                     ( "ns_per_event",
                       Json.Float
                         (float_of_int wall_ns
                         /. float_of_int (max 1 m.Runner.events)) );
                     ("checksum", Json.Float m.Runner.checksum);
                   ])
               scaling_timed) );
      ]
      @ grid_json)
  in
  Out_channel.with_open_text bench_out (fun oc ->
      Out_channel.output_string oc (Json.to_string doc);
      Out_channel.output_char oc '\n');
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf
       "Suite wall-clock (host): %d cells, %d simulated processors, %s scale\n"
       (List.length cells) nprocs
       (if tiny then "tiny" else "default"));
  Buffer.add_string buf
    (Printf.sprintf "  %-8s %-8s %12s %12s %14s %10s\n" "app" "protocol"
       "wall ms" "events" "ns/event" "minor MW");
  List.iter
    (fun ((name, protocol), (m : Runner.measurement), wall_ns, (minor, _, _))
    ->
      Buffer.add_string buf
        (Printf.sprintf "  %-8s %-8s %12.2f %12d %14.1f %10.1f\n" name
           (Config.protocol_name protocol)
           (float_of_int wall_ns /. 1e6)
           m.Runner.events
           (float_of_int wall_ns /. float_of_int (max 1 m.Runner.events))
           (minor /. 1e6)))
    timed;
  Buffer.add_string buf
    (Printf.sprintf
       "  suite: sequential %.1f ms, --jobs %d %.1f ms (speedup %.2fx)\n"
       (float_of_int seq_wall_ns /. 1e6)
       jobs
       (float_of_int par_wall_ns /. 1e6)
       speedup);
  Buffer.add_string buf
    "  node-count scaling (SOR, tiny scale; host cost per run):\n";
  Buffer.add_string buf
    (Printf.sprintf "  %-8s %6s %-6s %12s %12s %14s\n" "protocol" "nodes"
       "fabric" "wall ms" "events" "sim ms");
  List.iter
    (fun ((protocol, nprocs, fabric), (m : Runner.measurement), wall_ns) ->
      Buffer.add_string buf
        (Printf.sprintf "  %-8s %6d %-6s %12.2f %12d %14.1f\n"
           (Config.protocol_name protocol)
           nprocs
           (Adsm_harness.Scaling.fabric_name fabric)
           (float_of_int wall_ns /. 1e6)
           m.Runner.events
           (float_of_int m.Runner.time_ns /. 1e6)))
    scaling_timed;
  if grid_timed <> [] then begin
    Buffer.add_string buf
      (Printf.sprintf
         "  full %d-node grid (tiny scale; 3D-FFT at its structural 64 cap):\n"
         grid_nodes);
    Buffer.add_string buf
      (Printf.sprintf "  %-8s %-8s %-6s %6s %12s %14s %12s\n" "app" "protocol"
         "fabric" "nodes" "wall ms" "sim ms" "messages");
    List.iter
      (fun ((name, protocol, fabric), nprocs, (m : Runner.measurement),
            wall_ns) ->
        Buffer.add_string buf
          (Printf.sprintf "  %-8s %-8s %-6s %6d %12.2f %14.1f %12d\n" name
             (Config.protocol_name protocol)
             (Adsm_harness.Scaling.fabric_name fabric)
             nprocs
             (float_of_int wall_ns /. 1e6)
             (float_of_int m.Runner.time_ns /. 1e6)
             m.Runner.messages))
      grid_timed
  end;
  Buffer.add_string buf
    (if mismatches = [] then
       Printf.sprintf "  parallel run identical to sequential; wrote %s\n"
         bench_out
     else
       Printf.sprintf "  PARALLEL/SEQUENTIAL DIVERGENCE in %d cell(s)\n"
         (List.length mismatches));
  if mismatches <> [] then begin
    print_string (Buffer.contents buf);
    failwith "perf: parallel suite diverged from sequential"
  end;
  (* Smoke criterion: on a multicore host, a parallel pass that is not
     actually faster than sequential is a pool regression.  Single-core
     hosts (and jobs=1 runs) are exempt — there is no parallelism to
     claim. *)
  if jobs >= 2 && Domain.recommended_domain_count () >= 2 && speedup <= 1.0
  then begin
    print_string (Buffer.contents buf);
    failwith
      (Printf.sprintf
         "perf: parallel suite speedup %.2fx <= 1.0 on a multicore host"
         speedup)
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Paper artifact regeneration                                        *)
(* ------------------------------------------------------------------ *)

let artifacts ~tiny ~jobs ~grid suite =
  [
    ("perf", fun () -> perf ~tiny ~jobs ~grid ());
    ("table1", fun () -> Experiments.table1 suite);
    ("table2", fun () -> Experiments.table2 suite);
    ("fig1", fun () -> Experiments.figure1 ());
    ("fig2", fun () -> Experiments.figure2 suite);
    ("table3", fun () -> Experiments.table3 suite);
    ("table4", fun () -> Experiments.table4 suite);
    ("fig3", fun () -> Experiments.figure3 suite);
    ("breakdown", fun () -> Experiments.breakdown suite);
    ("simcost", fun () -> simcost suite);
    ("trace-smoke", fun () -> trace_smoke ());
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let tiny = List.mem "--tiny" args in
  (* `--grid`: regenerate the perf artifact's full 1024-node grid rows
     (minutes of wall; the committed artifact carries them). *)
  let grid = List.mem "--grid" args in
  (* `--jobs N` (or `-j N`): worker domains for the suite collection and
     the perf artifact's parallel pass.  Default: all cores. *)
  let jobs =
    let rec find = function
      | ("--jobs" | "-j") :: n :: _ -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> n
        | _ -> failwith "bench: --jobs expects a positive integer")
      | _ :: rest -> find rest
      | [] -> Pool.default_jobs ()
    in
    find args
  in
  let selected =
    let rec strip = function
      | ("--jobs" | "-j") :: _ :: rest -> strip rest
      | a :: rest when a = "--tiny" || a = "--grid" || a = "micro" -> strip rest
      | a :: rest -> a :: strip rest
      | [] -> []
    in
    strip args
  in
  let want_micro = selected = [] || List.mem "micro" args in
  let scale = if tiny then Registry.Tiny else Registry.Default in
  Printf.printf
    "Reproduction benchmarks: Amza et al., \"Software DSM Protocols that \
     Adapt\nbetween Single Writer and Multiple Writer\" (HPCA 1997)\n\
     Inputs: %s scale, 8 simulated processors, SPARC/ATM cost model.\n\n"
    (if tiny then "tiny" else "default (scaled-down paper)");
  let suite = Experiments.collect ~scale ~nprocs:8 ~jobs () in
  List.iter
    (fun (name, render) ->
      if selected = [] || List.mem name selected then begin
        print_endline (render ());
        print_newline ()
      end)
    (artifacts ~tiny ~jobs ~grid suite);
  if want_micro then run_micro ()
