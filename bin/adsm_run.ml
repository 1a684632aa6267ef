(* Command-line driver: run applications under the DSM protocols and
   regenerate the paper's tables and figures.

     adsm_run run --app SOR --protocol WFS --procs 8
     adsm_run experiments [--tiny] [--procs 8] [--app SOR --app IS ...]
     adsm_run list
*)

open Cmdliner
module Config = Adsm_dsm.Config
module Registry = Adsm_apps.Registry
module Runner = Adsm_harness.Runner
module Experiments = Adsm_harness.Experiments
module Fuzz = Adsm_harness.Fuzz
module Pool = Adsm_harness.Pool
module Oracle = Adsm_check.Oracle
module Recorder = Adsm_check.Recorder

let scale_of_tiny tiny = if tiny then Registry.Tiny else Registry.Default

(* Fabric selection shared by `run` and `experiments`: a network cost
   model plus a topology shape, folded into one configuration tweak. *)
let fabric_tweak net topology =
  let base =
    match net with
    | `Atm97 -> Adsm_net.Netcfg.atm_155
    | `Fast -> Adsm_net.Netcfg.fast_ethernet
  in
  match Adsm_net.Topology.shape_of_string ~base topology with
  | Error msg -> Error msg
  | Ok shape ->
    Ok (fun cfg -> { cfg with Config.net = base; topology = shape })

(* --- run one configuration --- *)

(* --faults SPEC shared by `run` and `fuzz`: parse early so a typo is a
   usage error, not a mid-run exception. *)
let faults_of_spec ~nprocs = function
  | None -> Ok None
  | Some spec -> (
    match Adsm_net.Fault.of_string spec with
    | Error msg -> Error (Printf.sprintf "bad --faults: %s" msg)
    | Ok sched -> (
      match Adsm_net.Fault.validate ~nprocs sched with
      | Error msg -> Error (Printf.sprintf "bad --faults: %s" msg)
      | Ok () -> Ok (Some sched)))

let run_one app_name protocol_name nprocs tiny seed trace_file trace_format
    check faults_spec net topology =
  match Registry.find app_name with
  | None ->
    Printf.eprintf "unknown application %S; try `adsm_run list'\n" app_name;
    1
  | Some _ when trace_format <> None && trace_file = None ->
    Printf.eprintf "--trace-format requires --trace\n";
    1
  | Some app -> (
    match Config.protocol_of_string protocol_name with
    | None ->
      Printf.eprintf
        "unknown protocol %S (MW, SW, WFS, WFS+WG, HLRC)\n"
        protocol_name;
      1
    | Some protocol -> (
      match faults_of_spec ~nprocs faults_spec with
      | Error msg ->
        Printf.eprintf "%s\n" msg;
        1
      | Ok faults -> (
      match fabric_tweak net topology with
      | Error msg ->
        Printf.eprintf "bad --topology: %s\n" msg;
        1
      | Ok tweak -> (
      let scale = scale_of_tiny tiny in
      let module Trace = Adsm_trace in
      let trace_format =
        Option.value trace_format ~default:Trace.Sink.Jsonl
      in
      match
        match trace_file with
        | None -> Ok None
        | Some path -> (
          try
            Ok
              (Some
                 (Trace.Tracer.create
                    [ Trace.Sink.file trace_format ~nodes:nprocs path ]))
          with Sys_error msg -> Error msg)
      with
      | Error msg ->
        Printf.eprintf "cannot open trace file: %s\n" msg;
        1
      | Ok tracer ->
      let recorder = if check then Recorder.create () else Recorder.disabled in
      match
        Runner.run ?tracer ~recorder ~tweak ?faults ~seed:(Int64.of_int seed)
          ~app ~protocol ~nprocs ~scale ()
      with
      | exception Invalid_argument msg ->
        (* An unsupported configuration (e.g. 3D-FFT above its node
           cap), rejected when the application is instantiated. *)
        Printf.eprintf "%s\n" msg;
        1
      | m ->
      (match (tracer, trace_file) with
      | Some tracer, Some path ->
        Trace.Tracer.close tracer;
        Printf.printf "wrote %d trace events to %s\n"
          (Trace.Tracer.emitted tracer)
          path
      | _ -> ());
      let speedup = Runner.speedup m in
      Printf.printf "%s under %s on %d processor(s) [%s scale]\n"
        m.Runner.app
        (Config.protocol_name protocol)
        nprocs
        (match scale with Registry.Tiny -> "tiny" | Registry.Default -> "default");
      Printf.printf "  simulated time   %.3f ms\n"
        (float_of_int m.Runner.time_ns /. 1e6);
      Printf.printf "  speedup          %.2f\n" speedup;
      Printf.printf "  messages         %d\n" m.Runner.messages;
      Printf.printf "  data             %.2f MB\n"
        (float_of_int m.Runner.data_bytes /. 1_048_576.);
      Printf.printf "  ownership reqs   %d (refused %d)\n" m.Runner.own_requests
        m.Runner.own_refusals;
      Printf.printf "  twins/diffs      %d / %d (%.2f MB)\n"
        m.Runner.twins_created m.Runner.diffs_created
        (float_of_int (m.Runner.twin_bytes + m.Runner.diff_bytes)
        /. 1_048_576.);
      Printf.printf "  faults           %d read, %d write\n"
        m.Runner.read_faults m.Runner.write_faults;
      Printf.printf "  GC runs          %d\n" m.Runner.gc_runs;
      Printf.printf "  checksum         %.6f\n" m.Runner.checksum;
      (match faults with
      | Some sched ->
        Printf.printf "  faults           %s\n" (Adsm_net.Fault.to_string sched)
      | None -> ());
      if not check then 0
      else begin
        let report = Oracle.check ~nprocs (Recorder.stream recorder) in
        Format.printf "%a@." Oracle.pp_report report;
        if Oracle.ok report then 0
        else begin
          List.iter
            (fun v ->
              Format.printf "%a@." Oracle.pp_violation v)
            report.Oracle.violations;
          1
        end
      end))))

(* --- the full experiment suite --- *)

let run_experiments tiny nprocs apps out jobs net topology =
  match fabric_tweak net topology with
  | Error msg ->
    Printf.eprintf "bad --topology: %s\n" msg;
    1
  | Ok tweak -> (
    let apps = match apps with [] -> None | l -> Some l in
    let scale = scale_of_tiny tiny in
    (* An unknown application name is rejected before any run starts. *)
    try
      (match out with
      | None ->
        print_string
          (Experiments.run_all ?apps ~scale ~nprocs ~jobs ~tweak ())
      | Some dir ->
        let suite = Experiments.collect ?apps ~scale ~nprocs ~jobs ~tweak () in
        let written = Experiments.export_csv suite ~dir in
        List.iter (Printf.printf "wrote %s\n") written);
      0
    with Invalid_argument msg ->
      Printf.eprintf "%s\n" msg;
      1)

let list_apps () =
  List.iter
    (fun (e : Registry.entry) ->
      Printf.printf "%-8s sync=%-4s default=%s\n" e.Registry.name
        e.Registry.sync
        (e.Registry.data_desc Registry.Default))
    Registry.all;
  0

(* --- cmdliner wiring --- *)

let app_arg =
  Arg.(value & opt string "SOR" & info [ "app"; "a" ] ~doc:"Application name.")

let protocol_arg =
  Arg.(
    value & opt string "WFS"
    & info [ "protocol"; "p" ] ~doc:"Protocol: MW, SW, WFS, WFS+WG or HLRC.")

let procs_arg =
  Arg.(value & opt int 8 & info [ "procs"; "n" ] ~doc:"Simulated processors.")

let tiny_arg =
  Arg.(value & flag & info [ "tiny" ] ~doc:"Use tiny (test-size) inputs.")

let seed_arg =
  Arg.(value & opt int 0x5EED & info [ "seed" ] ~doc:"Simulation seed.")

let apps_arg =
  Arg.(
    value & opt_all string []
    & info [ "app"; "a" ] ~doc:"Restrict to this application (repeatable).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:"Write the structured protocol event trace (faults, \
              twins/diffs, mode transitions, ownership, synchronization, \
              messages) to $(docv).  See TRACING.md.")

let trace_format_arg =
  let fmt =
    Arg.enum
      [ ("jsonl", Adsm_trace.Sink.Jsonl); ("chrome", Adsm_trace.Sink.Chrome) ]
  in
  Arg.(
    value
    & opt (some fmt) None
    & info [ "trace-format" ] ~docv:"FMT"
        ~doc:"Trace file format: $(b,jsonl) (one event per line, the \
              default) or $(b,chrome) (Chrome trace_event JSON, loadable \
              in Perfetto).  Requires $(b,--trace).")

let net_arg =
  Arg.(
    value
    & opt (enum [ ("atm97", `Atm97); ("fast", `Fast) ]) `Atm97
    & info [ "net" ] ~docv:"MODEL"
        ~doc:"Network cost model: $(b,atm97) (the paper's 155 Mbps ATM \
              testbed, the default) or $(b,fast) (a ~1 Gbps \
              low-overhead network).")

let topology_arg =
  Arg.(
    value & opt string "flat"
    & info [ "topology" ] ~docv:"SHAPE"
        ~doc:"Cluster fabric: $(b,flat) (the paper's all-pairs model, \
              the default), $(b,tree), or $(b,tree:N) (2-level switched \
              tree with N nodes per leaf switch).")

let faults_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "faults" ] ~docv:"SPEC"
        ~doc:"Run under a deterministic fault schedule, e.g. \
              $(b,crash=1@400us:200us;loss=0.05;jitter=2us).  Clauses \
              (`;'-separated): $(b,crash=N@T:D) (node N down at time T \
              for D), $(b,part=LO-HI@F:U) (partition), $(b,loss=P), \
              $(b,dup=P), $(b,jitter=D), $(b,rto=D); durations take \
              ns/us/ms suffixes.  See FAULTS.md.")

let check_arg =
  Arg.(
    value & flag
    & info [ "check" ]
        ~doc:"Record every shared access and synchronization operation \
              and validate the run against the release-consistency \
              oracle afterwards (see TESTING.md).  Exits non-zero on a \
              consistency violation.")

let run_cmd =
  Cmd.v (Cmd.info "run" ~doc:"Run one application under one protocol")
    Term.(
      const run_one $ app_arg $ protocol_arg $ procs_arg $ tiny_arg $ seed_arg
      $ trace_arg $ trace_format_arg $ check_arg $ faults_arg $ net_arg
      $ topology_arg)

(* --- oracle-checked workload fuzzing --- *)

let run_fuzz protocol_name nprocs seeds seed mutation_name faults jobs =
  match Config.protocol_of_string protocol_name with
  | None ->
    Printf.eprintf
      "unknown protocol %S (MW, SW, WFS, WFS+WG, HLRC)\n"
      protocol_name;
    1
  | Some protocol -> (
    let mutation =
      match mutation_name with
      | None -> Ok None
      | Some s -> (
        match Config.mutation_of_string s with
        | Some m -> Ok (Some m)
        | None -> Error s)
    in
    match mutation with
    | Error s ->
      Printf.eprintf "unknown mutation %S (available: %s)\n" s
        (String.concat ", " (List.map Config.mutation_name Config.all_mutations));
      1
    | Ok mutation ->
      (* The seed sweep fans out over [jobs] worker domains; results come
         back in seed order, and shrinking of any failing seed stays
         sequential down here so its output is deterministic. *)
      match
        Fuzz.sweep ~jobs ?mutation ~protocol ~faults ~nprocs ~seed
          ~count:seeds ()
      with
      | exception Invalid_argument msg ->
        Printf.eprintf "%s\n" msg;
        1
      | results ->
      let failures = ref 0 in
      List.iter
        (fun (s, result) ->
          match result with
          | Error msg -> (
            incr failures;
            Printf.printf "seed %d: CRASH (%s)\n" s msg;
            let seed = Int64.of_int s in
            match Fuzz.case ~protocol ~faults ~nprocs ~seed () with
            | exception _ ->
              (* The clean run that times the schedule raised: the same
                 seed without --faults shrinks it. *)
              ()
            | program, sched -> (
              match
                Fuzz.shrink_failing ?mutation ~protocol ~seed ?faults:sched program
              with
              | Some shrunk -> Option.iter print_string (Fuzz.counterexample shrunk)
              | None -> ()))
          | Ok o ->
            if Oracle.ok o.Fuzz.report then
              Printf.printf "seed %d: ok (%d observations, %d reads)\n" s
                o.Fuzz.report.Oracle.observations o.Fuzz.report.Oracle.reads
            else begin
              incr failures;
              Printf.printf "seed %d: %d violation(s), shrinking...\n" s
                (List.length o.Fuzz.report.Oracle.violations
                + List.length o.Fuzz.report.Oracle.fault_errors);
              let minimal =
                match
                  Fuzz.shrink_failing ?mutation ~protocol
                    ~seed:(Int64.of_int s) ?faults:o.Fuzz.faults
                    o.Fuzz.program
                with
                | Some shrunk -> shrunk
                | None -> o
              in
              match Fuzz.counterexample minimal with
              | Some text -> print_string text
              | None -> ()
            end)
        results;
      match mutation with
      | Some m ->
        (* Mutation runs invert the exit logic: the oracle MUST notice. *)
        if !failures > 0 then begin
          Printf.printf "mutation %s: detected (%d of %d seeds)\n"
            (Config.mutation_name m) !failures seeds;
          0
        end
        else begin
          Printf.printf "mutation %s: NOT detected in %d seeds\n"
            (Config.mutation_name m) seeds;
          1
        end
      | None -> if !failures = 0 then 0 else 1)

(* A worker count below 1 is a usage error (exit 124) in every
   subcommand that takes --jobs, not an exception from [Pool.map]; so is
   a fuzz seed count below 1, which would check nothing. *)
let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= 1 -> Ok n
    | Some _ | None ->
      Error (`Msg (Printf.sprintf "%S is not a positive integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let jobs_arg =
  Arg.(
    value
    & opt positive_int (Pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N"
        ~doc:"Run independent simulations on $(docv) worker domains \
              (default: the number of cores).  Results are bit-identical \
              for any value; $(b,--jobs 1) is the plain sequential path.")

let seeds_arg =
  Arg.(
    value & opt positive_int 10
    & info [ "seeds" ] ~docv:"N" ~doc:"Number of consecutive seeds to run.")

let mutation_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "mutation" ] ~docv:"NAME"
        ~doc:"Inject a deliberately broken protocol variant \
              (skip-diff-apply, drop-write-notice, \
              stale-ownership-grant, skip-notice-replay, \
              stale-vc-after-restart); the run then $(i,fails) unless \
              the oracle detects the bug.  The two recovery mutations \
              only manifest under crashes — combine with $(b,--faults).")

let fuzz_faults_arg =
  Arg.(
    value & flag
    & info [ "faults" ]
        ~doc:"Generate a random fault schedule (node crashes, message \
              loss/duplication/jitter, partitions) alongside each \
              workload, sized to the workload's own duration; failures \
              shrink jointly over program and schedule.  See FAULTS.md.")

let fuzz_cmd =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Generate random data-race-free workloads and validate every \
          read against the release-consistency oracle, shrinking any \
          failure to a minimal counterexample")
    Term.(
      const run_fuzz $ protocol_arg $ procs_arg $ seeds_arg $ seed_arg
      $ mutation_arg $ fuzz_faults_arg $ jobs_arg)

let out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"DIR"
        ~doc:"Write machine-readable CSV files into $(docv) instead of \
              printing tables.")

let experiments_cmd =
  Cmd.v
    (Cmd.info "experiments"
       ~doc:"Regenerate every table and figure of the paper")
    Term.(
      const run_experiments $ tiny_arg $ procs_arg $ apps_arg $ out_arg
      $ jobs_arg $ net_arg $ topology_arg)

let list_cmd =
  Cmd.v (Cmd.info "list" ~doc:"List the available applications")
    Term.(const list_apps $ const ())

(* --- node-count scaling study --- *)

let run_scaling smoke max_nodes jobs out apps =
  let module Scaling = Adsm_harness.Scaling in
  let apps =
    match apps with
    | None -> None
    | Some s ->
      Some
        (List.filter
           (fun a -> a <> "")
           (String.split_on_char ',' s))
  in
  (* Unknown apps and a --max-nodes below the grid are rejected before
     any run starts; an empty sweep would pass its checks vacuously. *)
  match Scaling.collect ~smoke ~max_nodes ~jobs ?apps () with
  | exception Invalid_argument msg ->
    Printf.eprintf "%s\n" msg;
    1
  | study ->
    print_string (Scaling.render study);
    (match out with
    | Some path ->
      let oc = open_out path in
      output_string oc (Scaling.to_json study);
      close_out oc;
      Printf.printf "wrote %s\n" path
    | None -> ());
    let mismatches = Scaling.checksum_mismatches study in
    let violations = Scaling.barrier_bound_violations study in
    List.iter (Printf.eprintf "FABRIC CHECKSUM MISMATCH: %s\n") mismatches;
    List.iter (Printf.eprintf "BARRIER BOUND EXCEEDED: %s\n") violations;
    if mismatches = [] && violations = [] then 0 else 1

let max_nodes_arg =
  Arg.(
    value & opt int 1024
    & info [ "max-nodes" ] ~docv:"N"
        ~doc:"Truncate the node grid at $(docv) simulated nodes (3D-FFT \
              is structurally capped at 64; see EXPERIMENTS.md).")

let scaling_apps_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "apps" ] ~docv:"A,B"
        ~doc:"Sweep only these comma-separated applications (default: \
              all eight; with $(b,--tiny), SOR).")

let scaling_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "out"; "o" ] ~docv:"FILE"
        ~doc:"Also write the study as a JSON artifact to $(docv).")

let scaling_tiny_arg =
  Arg.(
    value & flag
    & info [ "tiny" ]
        ~doc:"Smoke subset (SOR, MW + WFS, sparse node grid): seconds \
              of wall clock, used by CI.  The full grid costs minutes, \
              dominated by IS and Water at 512+ nodes.")

let scaling_cmd =
  Cmd.v
    (Cmd.info "scaling"
       ~doc:
         "Sweep the cluster from 8 to 1024 nodes, comparing the paper's \
          flat fabric + central barrier against the 2-level tree fabric \
          + combining barrier, and report the protocol crossover per \
          node count.  Exits non-zero if the fabrics disagree on any \
          application checksum or the tree barrier exceeds its \
          n-log-n message bound.")
    Term.(
      const run_scaling $ scaling_tiny_arg $ max_nodes_arg $ jobs_arg
      $ scaling_out_arg $ scaling_apps_arg)

let run_ablations studies jobs =
  let module Ablations = Adsm_harness.Ablations in
  match studies with
  | [] ->
    print_string (Ablations.run_all ~jobs ());
    0
  | names ->
    List.fold_left
      (fun code name ->
        match Ablations.run ~jobs name with
        | Some table ->
          print_string table;
          print_newline ();
          code
        | None ->
          Printf.eprintf "unknown study %S (available: %s)\n" name
            (String.concat ", " Ablations.names);
          1)
      0 names

let studies_arg =
  Arg.(
    value & pos_all string []
    & info [] ~docv:"STUDY"
        ~doc:"Studies to run: quantum, threshold, network, migratory, \
              writeranges, hlrc, scaling.  Default: all.")

let ablations_cmd =
  Cmd.v
    (Cmd.info "ablations"
       ~doc:
         "Sensitivity studies for the paper's fixed design choices \
          (ownership quantum, WG threshold, network model, processor \
          scaling) and the migratory-detection extension")
    Term.(const run_ablations $ studies_arg $ jobs_arg)

(* --- crash survivability study --- *)

let run_survive tiny nprocs apps jobs =
  let apps = match apps with [] -> None | l -> Some l in
  match
    Experiments.survivability ?apps ~scale:(scale_of_tiny tiny) ~nprocs ~jobs
      ()
  with
  | { Experiments.table; failures } ->
    (* A run that aborts or diverges under crashes is a failed row and a
       replayable stderr line; the table is finished either way. *)
    print_string table;
    List.iter (Printf.eprintf "survive: %s\n") failures;
    if failures = [] then 0 else 1
  | exception Invalid_argument msg ->
    (* A node count below 2 or an unknown application, before any run. *)
    Printf.eprintf "%s\n" msg;
    1

let survive_cmd =
  Cmd.v
    (Cmd.info "survive"
       ~doc:
         "Crash-survivability study (the EXPERIMENTS.md appendix): run \
          SOR, IS and Water under MW, SW and WFS with 1 and 2 \
          mid-computation node crashes, verify every checksum against \
          the fault-free run, and report completion-time and traffic \
          overheads")
    Term.(const run_survive $ tiny_arg $ procs_arg $ apps_arg $ jobs_arg)

(* --- cross-protocol verification --- *)

let run_verify app_name tiny nprocs jobs =
  match Registry.find app_name with
  | None ->
    Printf.eprintf "unknown application %S; try `adsm_run list'\n" app_name;
    1
  | Some app ->
    let scale = scale_of_tiny tiny in
    (* The sequential reference and every protocol run are independent,
       so they all go through the pool in one batch. *)
    let cells =
      (Config.Sw, 1)
      :: List.map (fun p -> (p, nprocs)) Config.extended_protocols
    in
    match
      Pool.map ~jobs
        (fun (protocol, nprocs) ->
          (Runner.run ~app ~protocol ~nprocs ~scale ()).Runner.checksum)
        cells
    with
    | exception Invalid_argument msg ->
      (* An unsupported configuration, as in [run_one]. *)
      Printf.eprintf "%s\n" msg;
      1
    | [] -> assert false
    | reference :: values ->
    Printf.printf "%s: sequential checksum %h\n" app.Registry.name reference;
    let failures = ref 0 in
    List.iter2
      (fun protocol value ->
        let ok = value = reference in
        if not ok then incr failures;
        Printf.printf "  %-8s %dp  %s\n"
          (Config.protocol_name protocol)
          nprocs
          (if ok then "ok" else Printf.sprintf "MISMATCH (%h)" value))
      Config.extended_protocols values;
    if !failures = 0 then begin
      Printf.printf "all protocols agree bit-for-bit\n";
      0
    end
    else begin
      Printf.printf "%d protocol(s) diverged\n" !failures;
      1
    end

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Check that every protocol (including HLRC) produces a \
          bit-identical result for an application — the first thing to \
          run after porting a new application to the DSM API")
    Term.(const run_verify $ app_arg $ tiny_arg $ procs_arg $ jobs_arg)

let main =
  Cmd.group
    (Cmd.info "adsm_run" ~version:"1.0"
       ~doc:
         "Adaptive software DSM (WFS / WFS+WG) protocol simulator - \
          reproduction of Amza et al., HPCA 1997")
    [
      run_cmd; experiments_cmd; scaling_cmd; ablations_cmd; verify_cmd;
      fuzz_cmd; survive_cmd; list_cmd;
    ]

let () = exit (Cmd.eval' main)
