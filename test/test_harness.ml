(* Tests for the experiment harness: runner measurements, speedups, table
   rendering, and the paper-shape assertions the reproduction rests on.
   Everything runs at tiny scale to stay fast; the shape assertions that
   need realistic compute/communication ratios run at default scale on a
   reduced processor count. *)

module Config = Adsm_dsm.Config
module Registry = Adsm_apps.Registry
module Runner = Adsm_harness.Runner
module Tables = Adsm_harness.Tables
module Experiments = Adsm_harness.Experiments

let sor () = Option.get (Registry.find "SOR")

let test_runner_measurement () =
  let m =
    Runner.run ~app:(sor ()) ~protocol:Config.Mw ~nprocs:2
      ~scale:Registry.Tiny ()
  in
  Alcotest.(check string) "app" "SOR" m.Runner.app;
  Alcotest.(check bool) "time" true (m.Runner.time_ns > 0);
  Alcotest.(check bool) "messages" true (m.Runner.messages > 0);
  Alcotest.(check bool) "twins under MW" true (m.Runner.twins_created > 0);
  Alcotest.(check bool) "pages accounted" true (m.Runner.shared_pages > 0)

let test_runner_speedup_definition () =
  let m =
    Runner.run ~app:(sor ()) ~protocol:Config.Sw ~nprocs:2
      ~scale:Registry.Tiny ()
  in
  let seq = Runner.sequential_time_ns ~app:(sor ()) ~scale:Registry.Tiny in
  Alcotest.(check (float 1e-9)) "speedup = seq/par"
    (float_of_int seq /. float_of_int m.Runner.time_ns)
    (Runner.speedup m)

let test_sequential_runs_are_cached () =
  let t1 = Runner.sequential_time_ns ~app:(sor ()) ~scale:Registry.Tiny in
  let t2 = Runner.sequential_time_ns ~app:(sor ()) ~scale:Registry.Tiny in
  Alcotest.(check int) "deterministic and cached" t1 t2

let test_runner_determinism () =
  let run () =
    let m =
      Runner.run ~app:(sor ()) ~protocol:Config.Wfs ~nprocs:4
        ~scale:Registry.Tiny ()
    in
    (m.Runner.time_ns, m.Runner.messages, m.Runner.checksum)
  in
  Alcotest.(check bool) "bit-identical reruns" true (run () = run ())

(* ------------------------------------------------------------------ *)
(* Tables                                                             *)
(* ------------------------------------------------------------------ *)

let test_render_alignment () =
  let out =
    Tables.render ~title:"T" ~header:[ "a"; "bb" ]
      [ [ "xxx"; "y" ]; [ "z" ] ]
  in
  let lines = String.split_on_char '\n' out in
  Alcotest.(check string) "title first" "T" (List.nth lines 0);
  (* all body lines padded to the same width *)
  let widths =
    List.filter_map
      (fun l -> if l = "" || l = "T" then None else Some (String.length l))
      lines
  in
  List.iter (fun w -> Alcotest.(check int) "width" (List.hd widths) w) widths

let test_bar () =
  Alcotest.(check string) "full" "####" (Tables.bar ~width:4 ~value:8. ~max:8.);
  Alcotest.(check string) "half" "##  " (Tables.bar ~width:4 ~value:4. ~max:8.);
  Alcotest.(check string) "zero" "    " (Tables.bar ~width:4 ~value:0. ~max:8.);
  Alcotest.(check string) "clamped" "####"
    (Tables.bar ~width:4 ~value:99. ~max:8.)

let test_units () =
  Alcotest.(check string) "mb" "2.00" (Tables.mb (2 * 1024 * 1024));
  Alcotest.(check string) "thousands" "1.50" (Tables.thousands 1500)

(* ------------------------------------------------------------------ *)
(* Experiment suite plumbing                                          *)
(* ------------------------------------------------------------------ *)

let test_collect_and_render () =
  let suite =
    Experiments.collect ~apps:[ "SOR"; "IS" ] ~scale:Registry.Tiny ~nprocs:2 ()
  in
  Alcotest.(check int) "apps x protocols" 8
    (List.length suite.Experiments.measurements);
  Alcotest.(check bool) "find works" true
    (Experiments.find suite ~app:"SOR" ~protocol:Config.Sw <> None);
  (* every artifact renders without raising and mentions its subject *)
  let t1 = Experiments.table1 suite in
  let t2 = Experiments.table2 suite in
  let f2 = Experiments.figure2 suite in
  let t3 = Experiments.table3 suite in
  let t4 = Experiments.table4 suite in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun (name, s) ->
      Alcotest.(check bool) (name ^ " mentions SOR") true (contains s "SOR"))
    [ ("table1", t1); ("table2", t2); ("fig2", f2); ("table3", t3); ("table4", t4) ]

let test_export_csv () =
  let suite =
    Experiments.collect ~apps:[ "SOR" ] ~scale:Registry.Tiny ~nprocs:2 ()
  in
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "adsm-csv-test" in
  let written = Experiments.export_csv suite ~dir in
  Alcotest.(check bool) "wrote files" true (List.length written >= 2);
  List.iter
    (fun path ->
      Alcotest.(check bool) (path ^ " exists") true (Sys.file_exists path);
      let ic = open_in path in
      let header = input_line ic in
      close_in ic;
      Alcotest.(check bool) "has a CSV header" true
        (String.contains header ','))
    written

let test_figure1_narrative () =
  let s = Experiments.figure1 () in
  let contains hay needle =
    let lh = String.length hay and ln = String.length needle in
    let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "three scenarios" true
    (contains s "producer-consumer" && contains s "migratory"
    && contains s "write-write FS")

(* Negative overheads render as "-3.7%", not "+-3.7%".  Default-scale IS
   has negative Wire cells; the test requires one, so it cannot pass
   vacuously. *)
let test_survive_signed_overheads () =
  let { Experiments.table = s; failures } =
    Experiments.survivability ~apps:[ "IS" ] ~scale:Registry.Default
      ~nprocs:8 ~jobs:1 ()
  in
  Alcotest.(check (list string)) "no failed run" [] failures;
  let n = String.length s in
  let rec find p i = i < n - 1 && (p s.[i] s.[i + 1] || find p (i + 1)) in
  Alcotest.(check bool) "has a negative cell" true
    (find (fun a b -> a = '-' && b >= '0' && b <= '9') 0);
  Alcotest.(check bool) "no \"+-\"" false
    (find (fun a b -> a = '+' && b = '-') 0)

(* ------------------------------------------------------------------ *)
(* Paper-shape assertions (default scale, 4 processors for speed)     *)
(* ------------------------------------------------------------------ *)

let speedup_of app protocol =
  match Registry.find app with
  | None -> Alcotest.fail ("unknown app " ^ app)
  | Some entry ->
    Runner.speedup
      (Runner.run ~app:entry ~protocol ~nprocs:4 ~scale:Registry.Default ())

let test_shape_is_prefers_single_writer () =
  (* Paper Section 6.4: IS is migratory with whole-page writes; MW's
     diffing and diff accumulation make it the worst protocol. *)
  let mw = speedup_of "IS" Config.Mw and wfs = speedup_of "IS" Config.Wfs in
  Alcotest.(check bool)
    (Printf.sprintf "WFS (%.2f) beats MW (%.2f) on IS" wfs mw)
    true (wfs > mw)

let test_shape_barnes_prefers_multiple_writer () =
  (* Paper Section 6.4: Barnes is dominated by write-write false sharing;
     SW's ping-pong makes it far slower than MW, and the adaptive
     protocols stay close to MW. *)
  let mw = speedup_of "Barnes" Config.Mw
  and sw = speedup_of "Barnes" Config.Sw
  and wfs = speedup_of "Barnes" Config.Wfs in
  Alcotest.(check bool)
    (Printf.sprintf "MW (%.2f) beats SW (%.2f) on Barnes" mw sw)
    true
    (mw > sw *. 1.5);
  Alcotest.(check bool)
    (Printf.sprintf "WFS (%.2f) well above SW (%.2f)" wfs sw)
    true
    (wfs > sw *. 1.3)

let test_shape_shallow_adaptive_wins () =
  (* Paper Section 6.4: Shallow makes a clear case for per-page
     adaptation; WFS beats both non-adaptive protocols. *)
  let mw = speedup_of "Shallow" Config.Mw
  and sw = speedup_of "Shallow" Config.Sw
  and wfs = speedup_of "Shallow" Config.Wfs in
  Alcotest.(check bool)
    (Printf.sprintf "WFS (%.2f) >= MW (%.2f) and SW (%.2f)" wfs mw sw)
    true
    (wfs >= mw *. 0.98 && wfs >= sw *. 0.98)

let test_shape_memory_ordering () =
  (* Paper Table 3: twin+diff memory satisfies WFS <= WFS+WG <= MW. *)
  List.iter
    (fun app_name ->
      let entry = Option.get (Registry.find app_name) in
      let mem protocol =
        let m =
          Runner.run ~app:entry ~protocol ~nprocs:4 ~scale:Registry.Default ()
        in
        m.Runner.twin_bytes + m.Runner.diff_bytes
      in
      let mw = mem Config.Mw
      and wg = mem Config.Wfs_wg
      and wfs = mem Config.Wfs in
      Alcotest.(check bool)
        (Printf.sprintf "%s: WFS (%d) <= WFS+WG (%d) <= MW (%d)" app_name wfs
           wg mw)
        true
        (wfs <= wg && wg <= mw))
    [ "SOR"; "IS"; "Shallow" ]

let () =
  Alcotest.run "harness"
    [
      ( "runner",
        [
          Alcotest.test_case "measurement" `Quick test_runner_measurement;
          Alcotest.test_case "speedup" `Quick test_runner_speedup_definition;
          Alcotest.test_case "seq cache" `Quick test_sequential_runs_are_cached;
          Alcotest.test_case "determinism" `Quick test_runner_determinism;
        ] );
      ( "tables",
        [
          Alcotest.test_case "alignment" `Quick test_render_alignment;
          Alcotest.test_case "bar" `Quick test_bar;
          Alcotest.test_case "units" `Quick test_units;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "collect+render" `Slow test_collect_and_render;
          Alcotest.test_case "csv export" `Quick test_export_csv;
          Alcotest.test_case "figure1" `Quick test_figure1_narrative;
          Alcotest.test_case "survive signed overheads" `Quick
            test_survive_signed_overheads;
        ] );
      ( "paper-shapes",
        [
          Alcotest.test_case "IS prefers SW-side" `Slow
            test_shape_is_prefers_single_writer;
          Alcotest.test_case "Barnes prefers MW" `Slow
            test_shape_barnes_prefers_multiple_writer;
          Alcotest.test_case "Shallow adaptive wins" `Slow
            test_shape_shallow_adaptive_wins;
          Alcotest.test_case "memory ordering" `Slow test_shape_memory_ordering;
        ] );
    ]
