(* Benchmark harness: regenerates every table and figure in the paper's
   evaluation (Tables 1-4, Figures 1-3) from fresh deterministic
   simulation runs at the default (scaled) inputs on 8 simulated
   processors, plus two artifacts of the simulator itself ([simcost],
   [trace-smoke]).  Pass a subset of artifact names (e.g. `table3 fig2`)
   to restrict; pass `--tiny` for a fast smoke run and `--jobs N` to set
   the worker domains of the suite collection.

   Host performance is measured by perfbench/ (see perfbench/README.md),
   not here. *)

module Config = Adsm_dsm.Config
module Registry = Adsm_apps.Registry
module Experiments = Adsm_harness.Experiments
module Pool = Adsm_harness.Pool

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
(* Paper artifact regeneration                                        *)
(* ------------------------------------------------------------------ *)

(* The suite is forced only by the artifacts that read it, so [fig1] or
   [trace-smoke] alone run no suite. *)
let artifacts suite =
  let with_suite f () = f (Lazy.force suite) in
  [
    ("table1", with_suite Experiments.table1);
    ("table2", with_suite Experiments.table2);
    ("fig1", Experiments.figure1);
    ("fig2", with_suite Experiments.figure2);
    ("table3", with_suite Experiments.table3);
    ("table4", with_suite Experiments.table4);
    ("fig3", with_suite Experiments.figure3);
    ("breakdown", with_suite Experiments.breakdown);
    ("simcost", with_suite simcost);
    ("trace-smoke", trace_smoke);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let tiny = List.mem "--tiny" args in
  (* `--jobs N` (or `-j N`): worker domains for the suite collection.
     Default: all cores. *)
  let jobs =
    let rec find = function
      | ("--jobs" | "-j") :: n :: _ -> (
        match int_of_string_opt n with
        | Some n when n >= 1 -> n
        | _ ->
          Printf.eprintf "bench: --jobs expects a positive integer, got %s\n" n;
          exit 2)
      | _ :: rest -> find rest
      | [] -> Pool.default_jobs ()
    in
    find args
  in
  let selected =
    let rec strip = function
      | ("--jobs" | "-j") :: _ :: rest -> strip rest
      | "--tiny" :: rest -> strip rest
      | a :: rest -> a :: strip rest
      | [] -> []
    in
    strip args
  in
  let scale = if tiny then Registry.Tiny else Registry.Default in
  let artifacts =
    artifacts (lazy (Experiments.collect ~scale ~nprocs:8 ~jobs ()))
  in
  List.iter
    (fun name ->
      if not (List.mem_assoc name artifacts) then begin
        Printf.eprintf "bench: unknown artifact %s (known: %s)\n" name
          (String.concat " " (List.map fst artifacts));
        exit 2
      end)
    selected;
  Printf.printf
    "Reproduction benchmarks: Amza et al., \"Software DSM Protocols that \
     Adapt\nbetween Single Writer and Multiple Writer\" (HPCA 1997)\n\
     Inputs: %s scale, 8 simulated processors, SPARC/ATM cost model.\n\n"
    (if tiny then "tiny" else "default (scaled-down paper)");
  List.iter
    (fun (name, render) ->
      if selected = [] || List.mem name selected then begin
        print_endline (render ());
        print_newline ()
      end)
    artifacts
