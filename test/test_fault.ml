(* Deterministic fault injection and LRC crash recovery (FAULTS.md).

   The suite pins, in roughly this order:
   - the fault-spec codec (round trip, error cases) and validation;
   - zero-cost disabled path: [faults = None] and [Some Fault.empty]
     are byte-identical to the pre-fault baselines, and the disabled
     guard allocates nothing;
   - determinism: the same (seed, schedule) replays byte-identically;
   - survivability: every registered app completes under a nontrivial
     crash/restart schedule with the oracle clean AND the checksum
     equal to the fault-free run (the write-behind log + recovery
     round restore a view at least as fresh as the pre-crash one, so
     the application computes the same values);
   - message faults (loss/dup/jitter/partition) complete, cost wire
     bytes, and keep checksums unchanged;
   - the two seeded recovery mutations are detected by the oracle and
     shrunk by the joint (program, schedule) shrinker;
   - a known recovery abort shrinks to a replayable counterexample, and
     the paper inputs recovery cannot survive yet abort as documented. *)

module Config = Adsm_dsm.Config
module Dsm = Adsm_dsm.Dsm
module Fault = Adsm_net.Fault
module Registry = Adsm_apps.Registry
module Runner = Adsm_harness.Runner
module Fuzz = Adsm_harness.Fuzz
module Oracle = Adsm_check.Oracle
module Recorder = Adsm_check.Recorder
module Rng = Adsm_sim.Rng
module Workload = Adsm_check.Workload

let app name =
  match Registry.find name with
  | Some app -> app
  | None -> Alcotest.failf "unknown app %s" name

let sched spec =
  match Fault.of_string spec with
  | Ok s -> s
  | Error msg -> Alcotest.failf "bad schedule %S: %s" spec msg

let contains s sub =
  let n = String.length sub in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = sub || at (i + 1))
  in
  at 0

let with_faults s cfg = { cfg with Config.faults = Some s }

(* ------------------------------------------------------------------ *)
(* Spec codec                                                         *)
(* ------------------------------------------------------------------ *)

let test_spec_roundtrip () =
  List.iter
    (fun spec ->
      let s = sched spec in
      let printed = Fault.to_string s in
      match Fault.of_string printed with
      | Ok s' ->
        Alcotest.(check string)
          (spec ^ ": stable") printed (Fault.to_string s');
        if s <> s' then Alcotest.failf "%s: schedule changed by round trip" spec
      | Error msg -> Alcotest.failf "%s: reparse failed: %s" printed msg)
    [
      "crash=1@400us:200us";
      "crash=0@1ms:100us;crash=2@2ms:50us";
      "loss=0.1;dup=0.05;jitter=2us";
      "crash=3@100000:70000;loss=0.02;rto=100us";
      "part=0-1@500us:900us";
      "crash=1@1ms:1ms;part=2-3@1ms:2ms;jitter=15000";
      "";
    ]

let test_spec_durations () =
  let s = sched "crash=1@1ms:50us;jitter=250" in
  (match s.Fault.crashes with
  | [ { Fault.node = 1; at = 1_000_000; downtime = 50_000 } ] -> ()
  | _ -> Alcotest.fail "duration suffixes misparsed");
  Alcotest.(check int) "ns default" 250 s.Fault.jitter_ns

let test_spec_errors () =
  List.iter
    (fun spec ->
      match Fault.of_string spec with
      | Ok _ -> Alcotest.failf "%S: expected a parse error" spec
      | Error _ -> ())
    [
      "crash=1";
      "crash=1@x:y";
      "loss=1.5";
      "dup=-0.1";
      "jitter=abc";
      "part=0@1:2";
      "bogus=3";
      "crash";
    ]

let test_validate () =
  let ok s = Result.is_ok (Fault.validate ~nprocs:4 s) in
  Alcotest.(check bool) "in range" true (ok (sched "crash=3@1ms:1ms"));
  Alcotest.(check bool) "node range" false (ok (sched "crash=4@1ms:1ms"));
  Alcotest.(check bool)
    "overlapping windows" false
    (ok (sched "crash=1@1ms:1ms;crash=1@1500us:1ms"));
  Alcotest.(check bool)
    "disjoint windows" true
    (ok (sched "crash=1@1ms:1ms;crash=1@2500us:1ms"));
  Alcotest.(check bool) "partition range" false (ok (sched "part=0-5@1ms:2ms"));
  Alcotest.(check bool) "empty is valid" true (ok Fault.empty)

let test_generate_valid () =
  for seed = 1 to 50 do
    let rng = Rng.create (Int64.of_int seed) in
    let s = Fault.generate rng ~nprocs:4 ~horizon_ns:2_000_000 in
    (match Fault.validate ~nprocs:4 s with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "seed %d: generated invalid: %s" seed msg);
    if s.Fault.crashes = [] then
      Alcotest.failf "seed %d: generated schedule without a crash" seed;
    (* Shrink candidates of a valid schedule stay valid. *)
    Seq.iter
      (fun s' ->
        match Fault.validate ~nprocs:4 s' with
        | Ok () -> ()
        | Error msg -> Alcotest.failf "seed %d: shrink invalid: %s" seed msg)
      (Fault.shrink s)
  done

(* ------------------------------------------------------------------ *)
(* Crash survivability                                                *)
(* ------------------------------------------------------------------ *)

let crash_sched = sched "crash=1@400us:200us;crash=2@900us:150us"

let measure ?tweak ?recorder name protocol =
  Runner.run ?tweak ?recorder ~app:(app name) ~protocol ~nprocs:4
    ~scale:Registry.Tiny ()

let test_apps_survive_crashes () =
  List.iter
    (fun (entry : Registry.entry) ->
      let name = entry.Registry.name in
      let base = measure name Config.Wfs in
      let faulty =
        measure ~tweak:(with_faults crash_sched) name Config.Wfs
      in
      Alcotest.(check (float 0.0))
        (name ^ ": checksum unchanged by crash recovery")
        base.Runner.checksum faulty.Runner.checksum;
      if faulty.Runner.time_ns < base.Runner.time_ns then
        Alcotest.failf "%s: crashes made the run faster?" name)
    Registry.all

(* The paper's barrier ([Config.make]'s one-level tree) and a binary
   barrier tree, each with its cell label. *)
let barriers =
  [
    ("central", Fun.id);
    ("tree:2", fun cfg -> { cfg with Config.barrier_fanout = 2 });
  ]

(* Each cell runs on the paper's barrier and on a binary barrier tree,
   where crashed node 1 is an interior node and crashed node 2 a leaf. *)
let test_oracle_clean_under_crashes () =
  List.iter
    (fun (barrier, shape) ->
      List.iter
        (fun name ->
          List.iter
            (fun protocol ->
              let cell =
                Printf.sprintf "%s/%s/%s" name
                  (Config.protocol_name protocol)
                  barrier
              in
              let recorder = Recorder.create () in
              let tweak cfg = with_faults crash_sched (shape cfg) in
              ignore (measure ~tweak ~recorder name protocol);
              let report = Oracle.check ~nprocs:4 (Recorder.stream recorder) in
              if not (Oracle.ok report) then
                Alcotest.failf "%s: %s" cell
                  (Format.asprintf "%a" Oracle.pp_report report);
              (* The stream must actually contain both crash/restart pairs. *)
              let crashes =
                Array.fold_left
                  (fun acc (s : Adsm_check.Obs.stamped) ->
                    match s.Adsm_check.Obs.obs with
                    | Adsm_check.Obs.Crash -> acc + 1
                    | _ -> acc)
                  0 (Recorder.stream recorder)
              in
              Alcotest.(check int) (cell ^ ": both crashes manifested") 2 crashes)
            [ Config.Mw; Config.Sw; Config.Wfs ])
        [ "sor"; "is"; "water" ])
    barriers

(* A crash wipes the node's fetched-diff account, so its diffs leave
   the live-diff series and the node's byte account, which the GC
   trigger reads.  With no GC run, a fall in the series can only be a
   crash dropping fetched diffs: the cell exercises the drop (node 1
   crashes a third of the way into the run, after its first diff
   fetches).  The node's own diffs are durable, and [Dsm.run] fails a
   run whose running own-diff count differs from the bytes its entries
   hold.  Node 1 is also an interior node of the binary tree, whose
   rollback puts its last-barrier clock, on the shared epoch base,
   back: [Vc.Epoch.leave] raises on a clock that does not re-adopt
   it. *)
let test_crash_drops_remote_diffs () =
  List.iter
    (fun (barrier, shape) ->
      let tweak cfg = with_faults (sched "crash=1@40ms:5ms") (shape cfg) in
      let m = measure ~tweak "sor" Config.Mw in
      let cell = "sor/MW/" ^ barrier in
      Alcotest.(check int) (cell ^ ": no GC") 0 m.Runner.gc_runs;
      let rec falls = function
        | (_, a) :: ((_, b) :: _ as rest) -> b < a || falls rest
        | _ -> false
      in
      Alcotest.(check bool)
        (cell ^ ": fetched diffs dropped")
        true
        (falls (Adsm_sim.Series.to_list m.Runner.live_diff_series)))
    barriers

let mentions ~needle s =
  let n = String.length needle in
  let rec at i =
    i + n <= String.length s && (String.sub s i n = needle || at (i + 1))
  in
  at 0

(* [Dsm.run]'s crash-schedule gate: write-range logging keeps a closed
   interval's writes outside the diff store until the diff is built, and
   HLRC keeps diffs only at the homes, so a crash schedule under either
   is rejected before any process starts.  Message-only faults compose
   with both and leave the checksum alone. *)
let test_crash_gate () =
  List.iter
    (fun (label, protocol, tweak) ->
      let cfg = tweak (Config.make ~protocol ~nprocs:4 ()) in
      let started = ref false in
      (match
         Dsm.run (Dsm.create (with_faults crash_sched cfg)) (fun _ ->
             started := true)
       with
      | exception Invalid_argument msg ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: reason given (%S)" label msg)
          true
          (mentions ~needle:label msg)
      | _ -> Alcotest.failf "%s: crash schedule accepted" label);
      Alcotest.(check bool) (label ^ ": no process started") false !started;
      let base = measure ~tweak "sor" protocol in
      let perturbed =
        measure
          ~tweak:(fun c -> with_faults (sched "loss=0.05;jitter=2us") (tweak c))
          "sor" protocol
      in
      Alcotest.(check (float 0.0))
        (label ^ ": message faults keep the checksum")
        base.Runner.checksum perturbed.Runner.checksum)
    [
      ("write_ranges", Config.Wfs, fun c -> { c with Config.write_ranges = true });
      ("HLRC", Config.Hlrc, Fun.id);
    ]

(* ------------------------------------------------------------------ *)
(* Determinism and the disabled path                                  *)
(* ------------------------------------------------------------------ *)

(* Same (seed, schedule) must replay byte-identically: every field of
   the measurement, including the full traffic breakdown and the
   live-diff time series, compares structurally equal. *)
let test_replay_identical () =
  let s = sched "crash=1@400us:200us;loss=0.08;dup=0.03;jitter=3us" in
  let m1 = measure ~tweak:(with_faults s) "sor" Config.Mw in
  let m2 = measure ~tweak:(with_faults s) "sor" Config.Mw in
  if m1 <> m2 then Alcotest.fail "same (seed, schedule) diverged on replay"

(* [Some Fault.empty] must be indistinguishable from [None]: the null
   runtime perturbs nothing and parks nothing, so simulated time,
   event counts and traffic are all byte-identical. *)
let test_empty_schedule_is_free () =
  List.iter
    (fun protocol ->
      let base = measure "is" protocol in
      let nulled = measure ~tweak:(with_faults Fault.empty) "is" protocol in
      if base <> nulled then
        Alcotest.failf "%s: a null fault schedule changed the run"
          (Config.protocol_name protocol))
    [ Config.Mw; Config.Wfs ]

(* The guard idiom on the hot paths — [match cfg.faults with None -> ...]
   per message and the [crash_pending] bool test per DSM operation —
   must construct nothing when faults are off (compare
   test_trace.ml's disabled-tracer test). *)
let test_disabled_path_does_not_allocate () =
  let faults : Fault.schedule option = None in
  let crash_pending = ref false in
  let hits = ref 0 in
  let before = Gc.minor_words () in
  for _ = 0 to 9_999 do
    (match faults with
    | Some s -> if s.Fault.loss > 0.0 then incr hits
    | None -> ());
    if !crash_pending then incr hits
  done;
  let after = Gc.minor_words () in
  Alcotest.(check int) "guards never taken" 0 !hits;
  Alcotest.(check bool)
    (Printf.sprintf "no per-op allocation (%.0f words)" (after -. before))
    true
    (after -. before < 256.)

(* ------------------------------------------------------------------ *)
(* Message faults                                                     *)
(* ------------------------------------------------------------------ *)

(* Loss, duplication, jitter and partitions perturb delivery timing and
   wire traffic but are invisible to the protocol (reliable-transport
   model, FAULTS.md): every run completes with the fault-free checksum.
   Loss and duplication must also show up as wire-byte overhead. *)
let test_message_faults () =
  let base = measure "water" Config.Wfs in
  List.iter
    (fun (spec, costs_wire) ->
      let m = measure ~tweak:(with_faults (sched spec)) "water" Config.Wfs in
      Alcotest.(check (float 0.0))
        (spec ^ ": checksum") base.Runner.checksum m.Runner.checksum;
      if costs_wire && m.Runner.wire_bytes <= base.Runner.wire_bytes then
        Alcotest.failf "%s: expected wire overhead (%d <= %d)" spec
          m.Runner.wire_bytes base.Runner.wire_bytes)
    [
      ("loss=0.15", true);
      ("dup=0.2", true);
      ("jitter=5us", false);
      ("part=0-1@200us:700us", false);
      ("loss=0.05;dup=0.05;jitter=2us;part=2-3@300us:600us", true);
    ]

(* ------------------------------------------------------------------ *)
(* Oracle crash/restart structure checks                              *)
(* ------------------------------------------------------------------ *)

let stream obs_list =
  Array.of_list
    (List.mapi
       (fun i (node, obs) -> { Adsm_check.Obs.time = i; node; obs })
       obs_list)

let fault_errors obs_list =
  (Oracle.check ~nprocs:2 (stream obs_list)).Oracle.fault_errors

let test_oracle_fault_structure () =
  let module O = Adsm_check.Obs in
  Alcotest.(check int)
    "clean crash/restart pair" 0
    (List.length (fault_errors [ (0, O.Crash); (0, O.Restart) ]));
  Alcotest.(check bool)
    "double crash flagged" true
    (fault_errors [ (0, O.Crash); (0, O.Crash); (0, O.Restart) ] <> []);
  Alcotest.(check bool)
    "restart without crash flagged" true
    (fault_errors [ (0, O.Restart) ] <> []);
  Alcotest.(check bool)
    "still down at end flagged" true
    (fault_errors [ (0, O.Crash) ] <> []);
  Alcotest.(check bool)
    "activity while down flagged" true
    (fault_errors
       [ (0, O.Crash); (0, O.Acquire { lock = 0 }); (0, O.Restart) ]
    <> []);
  Alcotest.(check bool)
    "nested barrier enter flagged" true
    (fault_errors
       [ (1, O.Barrier_enter { epoch = 0 }); (1, O.Barrier_enter { epoch = 1 }) ]
    <> []);
  Alcotest.(check bool)
    "mismatched barrier leave flagged" true
    (fault_errors
       [ (1, O.Barrier_enter { epoch = 0 }); (1, O.Barrier_leave { epoch = 1 }) ]
    <> [])

(* ------------------------------------------------------------------ *)
(* Recovery-mutation detection and joint shrinking                    *)
(* ------------------------------------------------------------------ *)

let sched_size (s : Fault.schedule) =
  List.length s.Fault.crashes
  + List.length s.Fault.partitions
  + (if s.Fault.loss > 0.0 then 1 else 0)
  + (if s.Fault.dup > 0.0 then 1 else 0)
  + if s.Fault.jitter_ns > 0 then 1 else 0

(* Sweep seeds until the oracle flags the mutation, then shrink jointly
   over (program, schedule) and require that the minimal counterexample
   still fails and got no bigger in either dimension. *)
let assert_detected_and_shrunk mutation ~seeds =
  let detected =
    List.find_map
      (fun s ->
        let o =
          Fuzz.fuzz_once ~mutation ~faults:true ~nprocs:4
            ~seed:(Int64.of_int s) ()
        in
        if Oracle.ok o.Fuzz.report then None else Some (s, o))
      seeds
  in
  match detected with
  | None ->
    Alcotest.failf "%s: not detected in %d seeds"
      (Config.mutation_name mutation)
      (List.length seeds)
  | Some (seed, o) -> (
    let faults =
      match o.Fuzz.faults with
      | Some f -> f
      | None -> Alcotest.fail "fault-mode outcome without a schedule"
    in
    match
      Fuzz.shrink_failing ~mutation ~seed:(Int64.of_int seed) ~faults
        o.Fuzz.program
    with
    | None -> Alcotest.failf "shrink lost the seed-%d failure" seed
    | Some m ->
      if Oracle.ok m.Fuzz.report then
        Alcotest.fail "shrunk outcome no longer fails";
      let mf =
        match m.Fuzz.faults with
        | Some f -> f
        | None -> Alcotest.fail "shrunk outcome lost its schedule"
      in
      if sched_size mf > sched_size faults then
        Alcotest.fail "shrinking grew the fault schedule";
      (* The recovery mutations need a crash to manifest, and greedy
         shrinking must preserve that. *)
      if mf.Fault.crashes = [] then
        Alcotest.fail "shrunk schedule lost its crash")

let test_mutation_skip_notice_replay () =
  assert_detected_and_shrunk Config.Skip_notice_replay
    ~seeds:(List.init 20 (fun i -> i + 1))

let test_mutation_stale_vc () =
  assert_detected_and_shrunk Config.Stale_vc_after_restart
    ~seeds:(List.init 30 (fun i -> i + 1))

(* Known recovery aborts, pinned as replayable counterexamples:
   [adsm_run fuzz --faults --protocol P --procs 4 --seeds 1 --seed S]
   for SW seed 178 and WFS seed 22 ends with a restarted node asked for
   a page it holds no copy of (the SW-ownership class of ROADMAP item
   2).  Each abort must shrink to a (program, schedule) pair that still
   aborts on the same node and page, keeps its crash and grew in
   neither dimension.  Item 2's fix flips this pin: the seeds then
   pass, and this case becomes a check that they stay clean. *)
let known_aborts =
  [
    (Config.Sw, 178L, "node 3 has no copy of page 0");
    (Config.Wfs, 22L, "node 2 has no copy of page 0");
  ]

let test_known_aborts () =
  List.iter
    (fun (protocol, seed, shrunk_abort) ->
      let name =
        Printf.sprintf "%s seed %Ld" (Config.protocol_name protocol) seed
      in
      let program, faults =
        Fuzz.case ~protocol ~faults:true ~nprocs:4 ~seed ()
      in
      let faults = Option.get faults in
      (match Fuzz.run_program ~protocol ~seed ~faults program with
      | _ -> Alcotest.failf "%s no longer aborts" name
      | exception Failure msg ->
        if not (contains msg "has no copy of page") then
          Alcotest.failf "%s aborts differently: %s" name msg);
      match Fuzz.shrink_failing ~protocol ~seed ~faults program with
      | None -> Alcotest.failf "shrink lost the %s abort" name
      | Some m -> (
        (match m.Fuzz.abort with
        | Some msg when contains msg shrunk_abort -> ()
        | Some msg -> Alcotest.failf "%s shrunk to another abort: %s" name msg
        | None -> Alcotest.failf "%s: shrunk outcome does not abort" name);
        if Workload.ops_count m.Fuzz.program > Workload.ops_count program then
          Alcotest.failf "%s: shrinking grew the program" name;
        match m.Fuzz.faults with
        | None -> Alcotest.failf "%s: shrunk outcome lost its schedule" name
        | Some mf ->
          if sched_size mf > sched_size faults then
            Alcotest.failf "%s: shrinking grew the fault schedule" name;
          if mf.Fault.crashes = [] then
            Alcotest.failf "%s: shrunk schedule lost its crash" name))
    known_aborts

(* The paper's own inputs that recovery cannot survive yet (ROADMAP item
   2): each replays [adsm_run run --app A --protocol P --procs 8
   --faults SPEC] and ends with a restarted node asked for a page it
   holds no copy of.  Item 2's fix flips these pins. *)
let paper_aborts =
  [
    ("SOR", Config.Mw, Registry.Default, "crash=1@1756896us:527069us",
     "node 5 has no copy of page 53");
    ("Water", Config.Sw, Registry.Default,
     "crash=7@2051409871:623260220;crash=0@4130151027:623260220",
     "node 0 has no copy of page 66");
    ("Water", Config.Sw, Registry.Tiny,
     "crash=4@111746486:33101750;crash=2@197972756:33101750",
     "node 2 has no copy of page 2");
  ]

let test_paper_aborts () =
  List.iter
    (fun (name, protocol, scale, spec, expected) ->
      let cell = name ^ "/" ^ Config.protocol_name protocol ^ " " ^ spec in
      let faults =
        match Fault.of_string spec with
        | Ok f -> f
        | Error msg -> Alcotest.failf "%s: %s" cell msg
      in
      match
        Runner.run ~faults ~app:(app name) ~protocol ~nprocs:8 ~scale ()
      with
      | _ -> Alcotest.failf "%s no longer aborts" cell
      | exception Failure msg ->
        if not (contains msg expected) then
          Alcotest.failf "%s aborts differently: %s" cell msg)
    paper_aborts

(* The unmutated recovery path stays oracle-clean over the same seed
   window the mutation tests sweep — the fuzzer's schedules (crashes,
   loss, duplication, jitter, partitions) never produce a violation. *)
let test_fuzz_clean_under_faults () =
  List.iter
    (fun s ->
      let o = Fuzz.fuzz_once ~faults:true ~nprocs:4 ~seed:(Int64.of_int s) () in
      if not (Oracle.ok o.Fuzz.report) then
        Alcotest.failf "seed %d: clean run flagged:@ %s" s
          (Format.asprintf "%a" Oracle.pp_report o.Fuzz.report))
    (List.init 30 (fun i -> i + 1))

let () =
  Alcotest.run "fault"
    [
      ( "spec",
        [
          Alcotest.test_case "round trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "durations" `Quick test_spec_durations;
          Alcotest.test_case "errors" `Quick test_spec_errors;
          Alcotest.test_case "validation" `Quick test_validate;
          Alcotest.test_case "generate/shrink valid" `Quick test_generate_valid;
        ] );
      ( "crash-recovery",
        [
          Alcotest.test_case "apps survive crashes" `Slow
            test_apps_survive_crashes;
          Alcotest.test_case "oracle clean under crashes" `Slow
            test_oracle_clean_under_crashes;
          Alcotest.test_case "crash gate: write_ranges and HLRC" `Quick
            test_crash_gate;
          Alcotest.test_case "crash drops remote diffs from the account"
            `Quick test_crash_drops_remote_diffs;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "replay byte-identical" `Quick
            test_replay_identical;
          Alcotest.test_case "null schedule is free" `Quick
            test_empty_schedule_is_free;
          Alcotest.test_case "disabled path allocates nothing" `Quick
            test_disabled_path_does_not_allocate;
        ] );
      ( "message-faults",
        [ Alcotest.test_case "transparent to the app" `Slow test_message_faults ]
      );
      ( "oracle",
        [
          Alcotest.test_case "crash/restart structure" `Quick
            test_oracle_fault_structure;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "skip-notice-replay detected+shrunk" `Slow
            test_mutation_skip_notice_replay;
          Alcotest.test_case "stale-vc-after-restart detected+shrunk" `Slow
            test_mutation_stale_vc;
          Alcotest.test_case "clean fuzz stays clean" `Slow
            test_fuzz_clean_under_faults;
        ] );
      ( "aborts",
        [
          Alcotest.test_case "SW seed 178 shrinks to an abort" `Quick
            test_known_aborts;
          Alcotest.test_case "paper inputs abort in recovery" `Quick
            test_paper_aborts;
        ] );
    ]
