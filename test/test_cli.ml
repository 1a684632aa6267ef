(* Error-path coverage for the adsm_run executable: bad names, bad
   paths and conflicting flags must fail fast with a non-zero exit code
   and a diagnostic on stderr, never start a simulation.

   The binary is a declared dune dependency, so it is always freshly
   built; resolving it relative to this test executable keeps the suite
   independent of the working directory it is launched from. *)

let exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bin/adsm_run.exe"

let slurp path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  s

let bench_exe =
  Filename.concat (Filename.dirname Sys.executable_name) "../bench/main.exe"

(* Run through /bin/sh to get exit code, stdout and stderr separately. *)
let run_capture ?(exe = exe) args =
  let out = Filename.temp_file "adsm_cli" ".out" in
  let err = Filename.temp_file "adsm_cli" ".err" in
  let cmd =
    Printf.sprintf "%s %s >%s 2>%s" (Filename.quote exe) args
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  (code, slurp out, slurp err)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec at i = i + nl <= hl && (String.sub haystack i nl = needle || at (i + 1)) in
  at 0

let check_failure ?exe name args ~code ~stderr_has =
  let got_code, _out, err = run_capture ?exe args in
  Alcotest.(check int) (name ^ ": exit code") code got_code;
  Alcotest.(check bool)
    (Printf.sprintf "%s: stderr mentions %S (got %S)" name stderr_has err)
    true
    (contains ~needle:stderr_has err)

let test_unknown_app () =
  check_failure "unknown app" "run --app NOPE --tiny --procs 2" ~code:1
    ~stderr_has:"unknown application"

let test_unknown_protocol () =
  check_failure "unknown protocol" "run --protocol BOGUS --tiny --procs 2"
    ~code:1 ~stderr_has:"unknown protocol"

let test_unknown_verify_app () =
  check_failure "verify unknown app" "verify --app NOPE --tiny" ~code:1
    ~stderr_has:"unknown application"

let test_bad_trace_path () =
  check_failure "bad trace path"
    "run --app TSP --tiny --procs 2 --trace /nonexistent-dir/sub/t.jsonl"
    ~code:1 ~stderr_has:"cannot open trace file"

let test_trace_format_without_trace () =
  check_failure "conflicting flags" "run --tiny --procs 2 --trace-format chrome"
    ~code:1 ~stderr_has:"--trace-format requires --trace"

let test_bad_trace_format_value () =
  (* Rejected by the cmdliner enum converter: cli-error exit code 124. *)
  check_failure "bad trace format" "run --tiny --trace x.out --trace-format xml"
    ~code:124 ~stderr_has:"trace-format"

let test_unknown_mutation () =
  check_failure "unknown mutation" "fuzz --seeds 1 --mutation bogus" ~code:1
    ~stderr_has:"unknown mutation"

let test_unknown_ablation () =
  check_failure "unknown ablation" "ablations nosuchstudy" ~code:1
    ~stderr_has:"unknown study"

let test_fft_node_cap () =
  check_failure "3D-FFT above its node cap"
    "run --app 3D-FFT --protocol MW --procs 128 --tiny" ~code:1
    ~stderr_has:"3D-FFT supports at most 64 nodes"

(* Node counts the commands cannot run are rejected before any run,
   not reported as a protocol crash per seed or an uncaught exception. *)
let test_survive_one_node () =
  check_failure "survive on 1 node" "survive --procs 1" ~code:1
    ~stderr_has:"survive: needs at least 2 nodes"

let test_fuzz_zero_nodes () =
  check_failure "fuzz on 0 nodes" "fuzz --procs 0 --seeds 2" ~code:1
    ~stderr_has:"fuzz: needs at least 1 node"

(* One stderr line and exit 1, as `run --procs 0` gives. *)
let test_verify_zero_nodes () =
  let code, _out, err = run_capture "verify --procs 0 --tiny" in
  Alcotest.(check int) "verify on 0 nodes: exit code" 1 code;
  Alcotest.(check string) "verify on 0 nodes: stderr"
    "Config.make: nprocs must be positive\n" err

(* Zero seeds would check nothing and exit 0. *)
let test_fuzz_zero_seeds () =
  check_failure "fuzz --seeds 0" "fuzz --seeds 0" ~code:124
    ~stderr_has:"not a positive integer"

(* Unknown application names are rejected before any run, as `survive`
   does, instead of escaping as an uncaught exception. *)
let test_unknown_experiments_app () =
  check_failure "experiments unknown app" "experiments --tiny --app Nope"
    ~code:1 ~stderr_has:"unknown application Nope"

let test_unknown_scaling_app () =
  check_failure "scaling unknown app" "scaling --tiny --apps Nope" ~code:1
    ~stderr_has:"unknown app Nope"

let test_survive_unknown_app () =
  check_failure "survive unknown app" "survive --tiny --app Nope" ~code:1
    ~stderr_has:"unknown application Nope"

(* --jobs goes through one positive-int converter: cmdliner's usage-error
   exit (124) in every subcommand that takes it. *)
let test_zero_jobs () =
  List.iter
    (fun cmd ->
      check_failure (cmd ^ " --jobs 0") (cmd ^ " --jobs 0") ~code:124
        ~stderr_has:"not a positive integer")
    [ "experiments"; "ablations"; "scaling"; "verify"; "survive"; "fuzz" ]

(* HLRC takes no crash schedule, so its fault fuzzing draws message
   faults only: every seed runs and checks, none aborts. *)
let test_fuzz_faults_hlrc () =
  let code, out, err =
    run_capture "fuzz --faults --protocol HLRC --procs 4 --seeds 5 --seed 1"
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check string) "stderr" "" err;
  List.iteri
    (fun i line ->
      Alcotest.(check bool)
        (Printf.sprintf "seed %d ok (got %S)" (i + 1) line)
        true
        (contains ~needle:(Printf.sprintf "seed %d: ok (" (i + 1)) line))
    (String.split_on_char '\n' (String.trim out))

(* The bench executable parses its own arguments: a bad --jobs value or an
   unknown artifact name prints one stderr line and exits 2 before any
   run. *)
let test_bench_bad_args () =
  List.iter
    (fun (args, stderr_has) ->
      check_failure ~exe:bench_exe ("bench " ^ args) args ~code:2 ~stderr_has)
    [
      ("table1 --tiny --jobs 0", "--jobs expects a positive integer, got 0");
      ("table1 --tiny --jobs x", "--jobs expects a positive integer, got x");
      ("nope --tiny", "unknown artifact nope");
    ]

(* A cap below the grid would run an empty sweep whose checksum and
   barrier-bound checks pass vacuously. *)
let test_scaling_max_nodes_below_grid () =
  check_failure "scaling --max-nodes 5" "scaling --tiny --max-nodes 5"
    ~code:1 ~stderr_has:"below the grid's smallest node count 8"

(* A crashed run that aborts is a failed row, not an uncaught exception:
   the row names the app, the protocol and the schedule as a --faults
   spec, the table goes on to the cells that pass, one stderr line per
   failure gives the cause and the command that replays it, and the exit
   code is 1.  SOR/MW at default scale aborts under either crash
   schedule (the "no copy of page to serve" recovery bug); once that is
   fixed this test needs another aborting cell. *)
let test_survive_failed_row () =
  let code, out, err = run_capture "survive --procs 8 --app SOR" in
  Alcotest.(check int) "exit code" 1 code;
  let rows =
    List.map
      (fun line ->
        List.filter (( <> ) "") (String.split_on_char ' ' line))
      (String.split_on_char '\n' out)
  in
  let spec = "'crash=1@2635344825:527068965'" in
  Alcotest.(check bool) "failed row: app, protocol, crashes, schedule" true
    (List.mem
       [ "SOR"; "MW"; "1"; "ABORT"; "-"; "-"; "-"; "--faults"; spec ]
       rows);
  Alcotest.(check bool) "the table goes on: SOR/SW row" true
    (List.exists
       (function "SOR" :: "SW" :: "1" :: _ -> true | _ -> false)
       rows);
  let replay = "run --app SOR --protocol MW --procs 8 --faults " ^ spec in
  Alcotest.(check bool)
    (Printf.sprintf "stderr names the cause and the replay (got %S)" err)
    true
    (contains
       ~needle:
         ("survive: SOR/MW, 1 crash(es): Failure(\"Proto: node 2 has no \
           copy of page 34 to serve")
       err
    && contains ~needle:("; replay: adsm_run " ^ replay ^ "\n") err);
  (* The printed command replays the same abort. *)
  let _code, _out, replay_err = run_capture replay in
  Alcotest.(check bool) "the replay aborts the same way" true
    (contains ~needle:"node 2 has no copy of page 34 to serve" replay_err)

let test_list_ok () =
  let code, out, _err = run_capture "list" in
  Alcotest.(check int) "list: exit code" 0 code;
  Alcotest.(check bool) "list: mentions SOR" true (contains ~needle:"SOR" out)

(* Every subcommand's help renders cleanly: cmdliner reports doc-string
   markup errors on stderr while still exiting 0, so stderr must be
   empty, and the --faults example must keep its literal [@]. *)
let test_help_renders () =
  List.iter
    (fun cmd ->
      let code, out, err = run_capture (cmd ^ " --help=plain") in
      Alcotest.(check int) (cmd ^ " --help: exit code") 0 code;
      Alcotest.(check string) (cmd ^ " --help: stderr") "" err;
      if cmd = "run" then
        Alcotest.(check bool) "run --help: --faults example" true
          (contains ~needle:"crash=1@400us:200us" out))
    [ "ablations"; "experiments"; "fuzz"; "list"; "run"; "scaling";
      "survive"; "verify" ]

let () =
  Alcotest.run "cli"
    [
      ( "errors",
        [
          Alcotest.test_case "unknown application" `Quick test_unknown_app;
          Alcotest.test_case "unknown protocol" `Quick test_unknown_protocol;
          Alcotest.test_case "verify: unknown application" `Quick
            test_unknown_verify_app;
          Alcotest.test_case "unwritable trace path" `Quick test_bad_trace_path;
          Alcotest.test_case "--trace-format without --trace" `Quick
            test_trace_format_without_trace;
          Alcotest.test_case "invalid --trace-format value" `Quick
            test_bad_trace_format_value;
          Alcotest.test_case "unknown fuzz mutation" `Quick
            test_unknown_mutation;
          Alcotest.test_case "unknown ablation study" `Quick
            test_unknown_ablation;
          Alcotest.test_case "3D-FFT above 64 nodes" `Quick test_fft_node_cap;
          Alcotest.test_case "survive below 2 nodes" `Quick
            test_survive_one_node;
          Alcotest.test_case "fuzz below 1 node" `Quick test_fuzz_zero_nodes;
          Alcotest.test_case "verify below 1 node" `Quick
            test_verify_zero_nodes;
          Alcotest.test_case "fuzz --seeds 0" `Quick test_fuzz_zero_seeds;
          Alcotest.test_case "experiments: unknown application" `Quick
            test_unknown_experiments_app;
          Alcotest.test_case "scaling: unknown application" `Quick
            test_unknown_scaling_app;
          Alcotest.test_case "survive: unknown application" `Quick
            test_survive_unknown_app;
          Alcotest.test_case "--jobs 0" `Quick test_zero_jobs;
          Alcotest.test_case "scaling: --max-nodes below the grid" `Quick
            test_scaling_max_nodes_below_grid;
          Alcotest.test_case "bench: bad --jobs, unknown artifact" `Quick
            test_bench_bad_args;
        ] );
      ( "smoke",
        [
          Alcotest.test_case "list exits zero" `Quick test_list_ok;
          Alcotest.test_case "every --help renders" `Quick test_help_renders;
          Alcotest.test_case "fuzz --faults under HLRC" `Quick
            test_fuzz_faults_hlrc;
          Alcotest.test_case "survive: an aborted run is a row" `Quick
            test_survive_failed_row;
        ] );
    ]
