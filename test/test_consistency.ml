(* The release-consistency oracle and its workload fuzzer (TESTING.md).

   Three legs hold this suite up:

   - fuzzing: random data-race-free programs run on every protocol at
     several node counts must produce zero oracle violations;
   - real applications: whole benchmark runs recorded and validated;
   - mutation detection: deliberately-broken protocol variants MUST be
     flagged, with the failure shrunk to a minimal counterexample —
     otherwise a green oracle proves nothing.

   Plus the guarantee that an oracle-enabled run is event-identical to
   a plain one. *)

module Config = Adsm_dsm.Config
module Dsm = Adsm_dsm.Dsm
module Registry = Adsm_apps.Registry
module Runner = Adsm_harness.Runner
module Fuzz = Adsm_harness.Fuzz
module Oracle = Adsm_check.Oracle
module Recorder = Adsm_check.Recorder
module Workload = Adsm_check.Workload

let case name protocol = Printf.sprintf "%s/%s" name (Config.protocol_name protocol)

let assert_clean name (report : Oracle.report) =
  if not (Oracle.ok report) then
    Alcotest.failf "%s: %s" name (Format.asprintf "%a" Oracle.pp_report report);
  Alcotest.(check bool) (name ^ ": observed something") true (report.Oracle.observations > 0)

(* --- fuzzing: every protocol, several node counts, 10+ seeds --- *)

let test_fuzz_protocols () =
  List.iter
    (fun protocol ->
      for seed = 1 to 10 do
        let o = Fuzz.fuzz_once ~protocol ~nprocs:4 ~seed:(Int64.of_int seed) () in
        let name = Printf.sprintf "%s seed %d" (case "fuzz" protocol) seed in
        assert_clean name o.Fuzz.report
      done)
    Config.all_protocols

let test_fuzz_node_counts () =
  List.iter
    (fun nprocs ->
      List.iter
        (fun protocol ->
          for seed = 40 to 42 do
            let o =
              Fuzz.fuzz_once ~protocol ~nprocs ~seed:(Int64.of_int seed) ()
            in
            let name =
              Printf.sprintf "%s %dp seed %d" (case "fuzz" protocol) nprocs seed
            in
            assert_clean name o.Fuzz.report
          done)
        [ Config.Mw; Config.Wfs_wg ])
    [ 2; 8 ]

(* --- real applications, whole runs validated --- *)

let oracle_apps = [ "SOR"; "TSP"; "IS"; "Water" ]

(* Record one whole tiny-scale run and validate it. *)
let check_app_cell ~tweak ~label ~nprocs app_name protocol =
  let app = Option.get (Registry.find app_name) in
  let recorder = Recorder.create () in
  ignore
    (Runner.run ~tweak ~recorder ~app ~protocol ~nprocs ~scale:Registry.Tiny ());
  let name = case app_name protocol ^ label in
  assert_clean name (Oracle.check ~nprocs (Recorder.stream recorder))

(* Every protocol, HLRC included, on the paper configuration and with
   software write detection, whose diffs are built from the logged write
   ranges instead of a twin. *)
let test_apps_oracle () =
  List.iter
    (fun (label, tweak) ->
      List.iter
        (fun app_name ->
          List.iter
            (check_app_cell ~tweak ~label ~nprocs:4 app_name)
            Config.extended_protocols)
        oracle_apps)
    [
      ("", Fun.id);
      (" write_ranges", fun cfg -> { cfg with Config.write_ranges = true });
    ]

(* The same apps at 8 nodes on a binary barrier tree: nodes 1-3 are
   interior, so subtree-minimum clocks, buffered interval lists and the
   relayed releases and GC messages all run under the oracle. *)
let test_apps_oracle_deep_tree () =
  let tweak cfg = { cfg with Config.barrier_fanout = 2 } in
  List.iter
    (fun app_name ->
      List.iter
        (check_app_cell ~tweak ~label:" tree:2" ~nprocs:8 app_name)
        Config.all_protocols)
    oracle_apps

(* The migratory-detection extension (paper Section 7), inert under the
   non-adaptive protocols: its read miss asks for ownership, so a granted
   upgrade and both refusals run under the oracle.  At 4 nodes the
   upgrade fires in TSP and Water under WFS; those cells must therefore
   differ in traffic from the same run without the extension. *)
let test_apps_oracle_migratory () =
  let tweak cfg = { cfg with Config.migratory_detection = true } in
  List.iter
    (fun app_name ->
      List.iter
        (check_app_cell ~tweak ~label:" migratory" ~nprocs:4 app_name)
        [ Config.Wfs; Config.Wfs_wg ])
    oracle_apps;
  List.iter
    (fun app_name ->
      let app = Option.get (Registry.find app_name) in
      let messages tweak =
        (Runner.run ~tweak ~app ~protocol:Config.Wfs ~nprocs:4
           ~scale:Registry.Tiny ())
          .Runner.messages
      in
      let on = messages tweak and off = messages Fun.id in
      if on = off then
        Alcotest.failf "%s migratory: %d messages, the same as without it"
          (case app_name Config.Wfs) on)
    [ "TSP"; "Water" ]

(* --- mutation detection: the oracle must have teeth --- *)

(* For each broken protocol variant, some seed in a small budget must
   produce a violation, and the shrinker must deliver a smaller (or
   equal) still-failing program with a printable counterexample.  A
   mutated run that crashes outright does not count as detection. *)
let test_mutations_detected () =
  List.iter
    (fun (mutation, protocol) ->
      let name =
        Printf.sprintf "%s under %s"
          (Config.mutation_name mutation)
          (Config.protocol_name protocol)
      in
      let detected = ref false in
      let seed = ref 1 in
      while (not !detected) && !seed <= 25 do
        let seed64 = Int64.of_int !seed in
        (match Fuzz.fuzz_once ~mutation ~protocol ~nprocs:4 ~seed:seed64 () with
        | exception _ -> ()
        | o when Oracle.ok o.Fuzz.report -> ()
        | o -> (
          match Fuzz.shrink_failing ~mutation ~protocol ~seed:seed64 o.Fuzz.program with
          | None ->
            Alcotest.failf "%s: seed %d failed but shrink lost the failure"
              name !seed
          | Some minimal ->
            Alcotest.(check bool)
              (name ^ ": shrunk program is no larger") true
              (Workload.ops_count minimal.Fuzz.program
              <= Workload.ops_count o.Fuzz.program);
            (match Fuzz.counterexample minimal with
            | None -> Alcotest.failf "%s: no counterexample rendered" name
            | Some text ->
              Alcotest.(check bool)
                (name ^ ": counterexample names the violation") true
                (String.length text > 0));
            detected := true));
        incr seed
      done;
      if not !detected then
        Alcotest.failf "%s: not detected in 25 fuzz seeds" name)
    [
      (Config.Skip_diff_apply, Config.Mw);
      (Config.Drop_write_notice, Config.Mw);
      (Config.Stale_ownership_grant, Config.Sw);
      (Config.Stale_ownership_grant, Config.Wfs);
    ]

(* --- the clean protocols pass the exact workloads that catch mutants --- *)

(* Control for the mutation leg: the same seeds on the unmutated
   protocols stay clean, so detection is the mutation's doing. *)
let test_mutation_seeds_clean_without_mutation () =
  List.iter
    (fun protocol ->
      for seed = 1 to 25 do
        let o = Fuzz.fuzz_once ~protocol ~nprocs:4 ~seed:(Int64.of_int seed) () in
        let name =
          Printf.sprintf "control %s seed %d" (Config.protocol_name protocol)
            seed
        in
        assert_clean name o.Fuzz.report
      done)
    [ Config.Mw; Config.Sw ]

(* --- known fault-free violations under WFS and WFS+WG --- *)

(* ROADMAP item 1, pinned: fault-free fuzz programs on which the
   adaptive protocols return a stale value.  Each (protocol, nodes,
   seed) cell must still violate, and its shrunk first violation is a
   read of 0 on page 0 by [node] at [off] where a nonzero write is
   legal.  Item 1's fix flips these cells: they then pass, and this case
   becomes a check that they stay clean (as the SW seed-178 abort pin in
   test_fault will). *)
let known_violations =
  [
    (Config.Wfs, 8, 63, (3, 40));
    (Config.Wfs_wg, 8, 63, (3, 40));
    (Config.Wfs, 4, 101, (3, 48));
    (Config.Wfs_wg, 4, 101, (2, 72));
  ]

let test_known_violations () =
  List.iter
    (fun (protocol, nprocs, seed, (node, off)) ->
      let name =
        Printf.sprintf "%s %dp seed %d" (case "fuzz" protocol) nprocs seed
      in
      let seed = Int64.of_int seed in
      let o = Fuzz.fuzz_once ~protocol ~nprocs ~seed () in
      if o.Fuzz.report.Oracle.violations = [] then
        Alcotest.failf "%s: no longer violates (ROADMAP item 1 fixed?)" name;
      match Fuzz.shrink_failing ~protocol ~seed o.Fuzz.program with
      | None -> Alcotest.failf "%s: shrink lost the violation" name
      | Some m -> (
        match m.Fuzz.report.Oracle.violations with
        | [] -> Alcotest.failf "%s: shrunk outcome does not violate" name
        | v :: _ ->
          Alcotest.(check (pair int int))
            (name ^ ": shrunk reader (node, offset)") (node, off)
            (v.Oracle.v_node, v.Oracle.v_off);
          Alcotest.(check int) (name ^ ": page") 0 v.Oracle.v_page;
          Alcotest.(check int64) (name ^ ": value read") 0L v.Oracle.v_got;
          Alcotest.(check bool)
            (name ^ ": a nonzero write is legal") true
            (List.exists (fun (_, x) -> x <> 0L) v.Oracle.v_candidates)))
    known_violations

(* The same programs stay clean under the other protocols. *)
let test_known_violations_elsewhere_clean () =
  List.iter
    (fun (nprocs, seed) ->
      List.iter
        (fun protocol ->
          let o =
            Fuzz.fuzz_once ~protocol ~nprocs ~seed:(Int64.of_int seed) ()
          in
          assert_clean
            (Printf.sprintf "%s %dp seed %d" (case "fuzz" protocol) nprocs seed)
            o.Fuzz.report)
        [ Config.Mw; Config.Sw; Config.Hlrc ])
    [ (8, 63); (4, 101) ]

(* --- enabling the oracle is purely observational --- *)

let test_recorder_is_observational () =
  let app = Option.get (Registry.find "SOR") in
  let run recorder =
    Runner.run ?recorder ~app ~protocol:Config.Wfs_wg ~nprocs:4
      ~scale:Registry.Tiny ()
  in
  let plain = run None in
  let recorder = Recorder.create () in
  let checked = run (Some recorder) in
  Alcotest.(check bool) "observations collected" true (Recorder.count recorder > 0);
  Alcotest.(check int) "same simulated events" plain.Runner.events checked.Runner.events;
  Alcotest.(check int) "same simulated time" plain.Runner.time_ns checked.Runner.time_ns;
  Alcotest.(check int) "same messages" plain.Runner.messages checked.Runner.messages;
  Alcotest.(check int) "same wire bytes" plain.Runner.wire_bytes checked.Runner.wire_bytes;
  Alcotest.(check (float 0.0)) "same result" plain.Runner.checksum checked.Runner.checksum

let () =
  Alcotest.run "consistency"
    [
      ( "fuzz",
        [
          Alcotest.test_case "all protocols, 10 seeds" `Quick
            test_fuzz_protocols;
          Alcotest.test_case "node counts 2 and 8" `Quick
            test_fuzz_node_counts;
          Alcotest.test_case "control seeds stay clean" `Quick
            test_mutation_seeds_clean_without_mutation;
        ] );
      ( "apps",
        [
          Alcotest.test_case "four apps, four protocols" `Quick test_apps_oracle;
          Alcotest.test_case "four apps on a binary barrier tree" `Quick
            test_apps_oracle_deep_tree;
          Alcotest.test_case "four apps with migratory detection" `Quick
            test_apps_oracle_migratory;
        ] );
      ( "mutations",
        [
          Alcotest.test_case "every mutant detected and shrunk" `Quick
            test_mutations_detected;
        ] );
      (* The known violations of ROADMAP item 1.  A group name wider
         than "mutations" would widen the label column and truncate the
         other groups' test names in the printed report. *)
      ( "item 1",
        [
          Alcotest.test_case "known violations: WFS, WFS+WG" `Quick
            test_known_violations;
          Alcotest.test_case "known violations: MW, SW, HLRC clean" `Quick
            test_known_violations_elsewhere_clean;
        ] );
      ( "overhead",
        [
          Alcotest.test_case "recorder is observational" `Quick
            test_recorder_is_observational;
        ] );
    ]
