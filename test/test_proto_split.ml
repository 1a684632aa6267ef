(* Equivalence suite for the protocol-stack split.

   The layered stack (Lrc_core + Sync + per-protocol modules behind
   Dispatch) must reproduce the monolithic [Proto] bit-for-bit: the
   baselines below — application result, total message count, total wire
   bytes, and per-kind (messages, bytes) counters — were recorded from
   the pre-refactor monolith running SOR and TSP on every non-HLRC
   protocol under three fuzzed schedules.  Any behavioral drift in
   interval closure, diffing, ownership transfer, adaptation, or the
   typed message-kind accounting shows up as a counter mismatch here. *)

module Config = Adsm_dsm.Config
module Dsm = Adsm_dsm.Dsm
module Registry = Adsm_apps.Registry
module Stats = Adsm_dsm.Stats

(* (app, protocol, fuzz seed, result, messages, wire bytes, by_kind) —
   recorded from the pre-refactor monolith at Registry.Tiny, nprocs=4. *)
let baselines =
  [
    ("SOR", Config.Mw, 1, 2.6180339887498949, 180, 156692,
     [ ("barrier", (60, 6864)); ("diff", (120, 142628)) ]);
    ("SOR", Config.Mw, 2, 2.6180339887498949, 180, 156692,
     [ ("barrier", (60, 6864)); ("diff", (120, 142628)) ]);
    ("SOR", Config.Mw, 3, 2.6180339887498949, 180, 156692,
     [ ("barrier", (60, 6864)); ("diff", (120, 142628)) ]);
    ("SOR", Config.Sw, 1, 2.6180339887498949, 196, 296848,
     [ ("barrier", (60, 8400)); ("own", (24, 49440)); ("page", (112, 231168)) ]);
    ("SOR", Config.Sw, 2, 2.6180339887498949, 196, 296848,
     [ ("barrier", (60, 8400)); ("own", (24, 49440)); ("page", (112, 231168)) ]);
    ("SOR", Config.Sw, 3, 2.6180339887498949, 196, 296848,
     [ ("barrier", (60, 8400)); ("own", (24, 49440)); ("page", (112, 231168)) ]);
    ("SOR", Config.Wfs, 1, 2.6180339887498949, 196, 247912,
     [ ("barrier", (60, 8400)); ("own", (24, 504)); ("page", (112, 231168)) ]);
    ("SOR", Config.Wfs, 2, 2.6180339887498949, 196, 247912,
     [ ("barrier", (60, 8400)); ("own", (24, 504)); ("page", (112, 231168)) ]);
    ("SOR", Config.Wfs, 3, 2.6180339887498949, 196, 247912,
     [ ("barrier", (60, 8400)); ("own", (24, 504)); ("page", (112, 231168)) ]);
    ("SOR", Config.Wfs_wg, 1, 2.6180339887498949, 202, 135721,
     [ ("barrier", (60, 7848)); ("diff", (82, 44985)); ("own", (24, 504));
       ("page", (36, 74304)) ]);
    ("SOR", Config.Wfs_wg, 2, 2.6180339887498949, 202, 135721,
     [ ("barrier", (60, 7848)); ("diff", (82, 44985)); ("own", (24, 504));
       ("page", (36, 74304)) ]);
    ("SOR", Config.Wfs_wg, 3, 2.6180339887498949, 202, 135721,
     [ ("barrier", (60, 7848)); ("diff", (82, 44985)); ("own", (24, 504));
       ("page", (36, 74304)) ]);
    ("TSP", Config.Mw, 1, 165., 400, 34895,
     [ ("barrier", (18, 1528)); ("diff", (270, 11115)); ("lock", (112, 6252)) ]);
    ("TSP", Config.Mw, 2, 165., 400, 34895,
     [ ("barrier", (18, 1528)); ("diff", (270, 11115)); ("lock", (112, 6252)) ]);
    ("TSP", Config.Mw, 3, 165., 400, 34895,
     [ ("barrier", (18, 1528)); ("diff", (270, 11115)); ("lock", (112, 6252)) ]);
    ("TSP", Config.Sw, 1, 165., 293, 353288,
     [ ("barrier", (18, 1476)); ("lock", (94, 5684)); ("own", (93, 152776));
       ("page", (88, 181632)) ]);
    ("TSP", Config.Sw, 2, 165., 291, 353180,
     [ ("barrier", (18, 1476)); ("lock", (94, 5684)); ("own", (91, 152748));
       ("page", (88, 181632)) ]);
    ("TSP", Config.Sw, 3, 165., 292, 353236,
     [ ("barrier", (18, 1476)); ("lock", (94, 5684)); ("own", (92, 152764));
       ("page", (88, 181632)) ]);
    ("TSP", Config.Wfs, 1, 165., 274, 201306,
     [ ("barrier", (18, 1476)); ("lock", (94, 5684)); ("own", (74, 1554));
       ("page", (88, 181632)) ]);
    ("TSP", Config.Wfs, 2, 165., 274, 201306,
     [ ("barrier", (18, 1476)); ("lock", (94, 5684)); ("own", (74, 1554));
       ("page", (88, 181632)) ]);
    ("TSP", Config.Wfs, 3, 165., 274, 201306,
     [ ("barrier", (18, 1476)); ("lock", (94, 5684)); ("own", (74, 1554));
       ("page", (88, 181632)) ]);
    ("TSP", Config.Wfs_wg, 1, 165., 336, 78628,
     [ ("barrier", (18, 1384)); ("diff", (188, 4630)); ("lock", (94, 5300));
       ("own", (10, 210)); ("page", (26, 53664)) ]);
    ("TSP", Config.Wfs_wg, 2, 165., 336, 78628,
     [ ("barrier", (18, 1384)); ("diff", (188, 4630)); ("lock", (94, 5300));
       ("own", (10, 210)); ("page", (26, 53664)) ]);
    ("TSP", Config.Wfs_wg, 3, 165., 336, 78628,
     [ ("barrier", (18, 1384)); ("diff", (188, 4630)); ("lock", (94, 5300));
       ("own", (10, 210)); ("page", (26, 53664)) ]);
    (* Water (lock-heavy) and Shallow (barrier-only) rows were recorded
       from the split stack once it matched the monolith on SOR and TSP;
       they pin the remaining synchronization mixes against drift. *)
    ("Water", Config.Mw, 1, 1.5938376384442554, 410, 56818,
     [ ("barrier", (48, 6008)); ("diff", (308, 31666)); ("lock", (54, 2744)) ]);
    ("Water", Config.Mw, 2, 1.5938376384442554, 410, 56818,
     [ ("barrier", (48, 6008)); ("diff", (308, 31666)); ("lock", (54, 2744)) ]);
    ("Water", Config.Mw, 3, 1.5938376384442554, 410, 56818,
     [ ("barrier", (48, 6008)); ("diff", (308, 31666)); ("lock", (54, 2744)) ]);
    ("Water", Config.Sw, 1, 1.5938376384442554, 428, 613716,
     [ ("barrier", (48, 7152)); ("lock", (54, 3112)); ("own", (182, 289116));
       ("page", (144, 297216)) ]);
    ("Water", Config.Sw, 2, 1.5938376384442554, 428, 613716,
     [ ("barrier", (48, 7152)); ("lock", (54, 3112)); ("own", (182, 289116));
       ("page", (144, 297216)) ]);
    ("Water", Config.Sw, 3, 1.5938376384442554, 428, 613716,
     [ ("barrier", (48, 7152)); ("lock", (54, 3112)); ("own", (182, 289116));
       ("page", (144, 297216)) ]);
    ("Water", Config.Wfs, 1, 1.5938376384442554, 394, 267055,
     [ ("barrier", (48, 6432)); ("diff", (106, 9233)); ("lock", (54, 2908));
       ("own", (74, 1554)); ("page", (112, 231168)) ]);
    ("Water", Config.Wfs, 2, 1.5938376384442554, 394, 267055,
     [ ("barrier", (48, 6432)); ("diff", (106, 9233)); ("lock", (54, 2908));
       ("own", (74, 1554)); ("page", (112, 231168)) ]);
    ("Water", Config.Wfs, 3, 1.5938376384442554, 394, 267055,
     [ ("barrier", (48, 6432)); ("diff", (106, 9233)); ("lock", (54, 2908));
       ("own", (74, 1554)); ("page", (112, 231168)) ]);
    ("Water", Config.Wfs_wg, 1, 1.5938376384442554, 406, 159918,
     [ ("barrier", (48, 6256)); ("diff", (216, 22436)); ("lock", (54, 2816));
       ("own", (34, 714)); ("page", (54, 111456)) ]);
    ("Water", Config.Wfs_wg, 2, 1.5938376384442554, 406, 159918,
     [ ("barrier", (48, 6256)); ("diff", (216, 22436)); ("lock", (54, 2816));
       ("own", (34, 714)); ("page", (54, 111456)) ]);
    ("Water", Config.Wfs_wg, 3, 1.5938376384442554, 406, 159918,
     [ ("barrier", (48, 6256)); ("diff", (216, 22436)); ("lock", (54, 2816));
       ("own", (34, 714)); ("page", (54, 111456)) ]);
    ("Shallow", Config.Mw, 1, 141.43544026792017, 134, 188387,
     [ ("barrier", (48, 5184)); ("diff", (86, 177843)) ]);
    ("Shallow", Config.Mw, 2, 141.43544026792017, 134, 188387,
     [ ("barrier", (48, 5184)); ("diff", (86, 177843)) ]);
    ("Shallow", Config.Mw, 3, 141.43544026792017, 134, 188387,
     [ ("barrier", (48, 5184)); ("diff", (86, 177843)) ]);
    ("Shallow", Config.Sw, 1, 141.43544026792017, 134, 189152,
     [ ("barrier", (48, 6288)); ("page", (86, 177504)) ]);
    ("Shallow", Config.Sw, 2, 141.43544026792017, 134, 189152,
     [ ("barrier", (48, 6288)); ("page", (86, 177504)) ]);
    ("Shallow", Config.Sw, 3, 141.43544026792017, 134, 189152,
     [ ("barrier", (48, 6288)); ("page", (86, 177504)) ]);
    ("Shallow", Config.Wfs, 1, 141.43544026792017, 134, 189152,
     [ ("barrier", (48, 6288)); ("page", (86, 177504)) ]);
    ("Shallow", Config.Wfs, 2, 141.43544026792017, 134, 189152,
     [ ("barrier", (48, 6288)); ("page", (86, 177504)) ]);
    ("Shallow", Config.Wfs, 3, 141.43544026792017, 134, 189152,
     [ ("barrier", (48, 6288)); ("page", (86, 177504)) ]);
    ("Shallow", Config.Wfs_wg, 1, 141.43544026792017, 134, 189172,
     [ ("barrier", (48, 6048)); ("diff", (40, 82820)); ("page", (46, 94944)) ]);
    ("Shallow", Config.Wfs_wg, 2, 141.43544026792017, 134, 189172,
     [ ("barrier", (48, 6048)); ("diff", (40, 82820)); ("page", (46, 94944)) ]);
    ("Shallow", Config.Wfs_wg, 3, 141.43544026792017, 134, 189172,
     [ ("barrier", (48, 6048)); ("diff", (40, 82820)); ("page", (46, 94944)) ]);
  ]

let run_case (app_name, protocol, seed, result, messages, wire_bytes, by_kind) =
  let case_name =
    Printf.sprintf "%s/%s/seed%d" app_name
      (Config.protocol_name protocol)
      seed
  in
  let app =
    match Registry.find app_name with
    | Some app -> app
    | None -> Alcotest.failf "%s: unknown application" case_name
  in
  let cfg = Config.make ~protocol ~nprocs:4 () in
  let cfg = { cfg with Config.schedule_fuzz = Some seed } in
  let t = Dsm.create cfg in
  let program, got_result = app.Registry.instantiate Registry.Tiny t in
  let report = Dsm.run t program in
  Alcotest.(check (float 0.0))
    (case_name ^ ": application result") result (got_result ());
  Alcotest.(check int) (case_name ^ ": messages") messages report.Dsm.messages;
  Alcotest.(check int)
    (case_name ^ ": wire bytes") wire_bytes report.Dsm.wire_bytes;
  Alcotest.(check (list (pair string (pair int int))))
    (case_name ^ ": per-kind counters") by_kind report.Dsm.by_kind

let test_against_baselines () = List.iter run_case baselines

(* Independent of recorded counters: every protocol (including HLRC,
   which has no pre-refactor baseline entry above because its message
   mix was already covered elsewhere) still computes the same
   application result through the split stack. *)
let test_all_protocols_agree () =
  List.iter
    (fun app_name ->
      let app = Option.get (Registry.find app_name) in
      let results =
        List.map
          (fun protocol ->
            let cfg = Config.make ~protocol ~nprocs:4 () in
            let t = Dsm.create cfg in
            let program, result = app.Registry.instantiate Registry.Tiny t in
            ignore (Dsm.run t program);
            result ())
          Config.all_protocols
      in
      match results with
      | [] -> ()
      | r0 :: rest ->
        List.iter
          (fun r ->
            Alcotest.(check (float 0.0))
              (app_name ^ ": protocols agree") r0 r)
          rest)
    [ "SOR"; "TSP"; "Water"; "Shallow" ]

(* Paper scale: SOR, Water and 3D-FFT under the four protocols at 8
   nodes, default scale, default seed (the configuration of the
   paper's tables).  The pins above run tiny inputs at 4 nodes, where
   a change to, say, the order of Water's locked force write-back could
   go unseen.  Recorded at 83f0341 as (app, protocol, simulated time,
   events, messages, wire bytes, read faults, write faults, diff bytes,
   result, by_kind). *)
let paper_scale =
  [
    ("SOR", Config.Mw, 5270689650, 84567, 4594, 4637605,
     1562, 24640, 34309608, 2.6180339887498949,
     [ ("barrier", (1372, 1635536)); ("diff", (2482, 1487301)); ("gc", (98, 784)); ("page", (642, 1330224)) ]);
    ("SOR", Config.Sw, 4801927400, 59346, 4722, 9450160,
     1451, 24640, 0, 2.6180339887498949,
     [ ("barrier", (1372, 2325456)); ("own", (448, 922880)); ("page", (2902, 6012944)) ]);
    ("SOR", Config.Wfs, 4687822500, 59229, 4768, 8637424,
     1474, 24640, 0, 2.6180339887498949,
     [ ("barrier", (1372, 2325456)); ("own", (448, 12992)); ("page", (2948, 6108256)) ]);
    ("SOR", Config.Wfs_wg, 4588227055, 61793, 4952, 5162156,
     1566, 24640, 1618072, 2.6180339887498949,
     [ ("barrier", (1372, 2288020)); ("diff", (2648, 1660216)); ("own", (448, 12992)); ("page", (484, 1002848)) ]);
    ("Water", Config.Mw, 4111049550, 43963, 19433, 3522871,
     3157, 2792, 477792, 1.3515464410031166,
     [ ("barrier", (238, 194656)); ("diff", (18646, 2460315)); ("lock", (549, 90580)) ]);
    ("Water", Config.Sw, 6232602200, 28485, 12013, 21342084,
     3117, 2978, 0, 1.3515464410031166,
     [ ("barrier", (238, 277892)); ("lock", (549, 121424)); ("own", (4992, 7545400)); ("page", (6234, 12916848)) ]);
    ("Water", Config.Wfs, 5206795485, 26912, 11087, 13549340,
     3157, 2914, 21552, 1.3515464410031166,
     [ ("barrier", (238, 264028)); ("diff", (856, 102792)); ("lock", (549, 117272)); ("own", (3400, 98600)); ("page", (6044, 12523168)) ]);
    ("Water", Config.Wfs_wg, 4417417645, 40683, 17785, 6013806,
     3157, 2823, 383572, 1.3515464410031166,
     [ ("barrier", (238, 211248)); ("diff", (14892, 1980866)); ("lock", (549, 95040)); ("own", (660, 19140)); ("page", (1446, 2996112)) ]);
    ("3D-FFT", Config.Mw, 3007361710, 32658, 6286, 13497211,
     2717, 880, 3411096, -192243679.412635,
     [ ("barrier", (266, 85848)); ("diff", (5950, 13043779)); ("gc", (14, 112)); ("page", (56, 116032)) ]);
    ("3D-FFT", Config.Sw, 2800491900, 31021, 6054, 12267572,
     2717, 880, 0, -192243679.412635,
     [ ("barrier", (266, 110488)); ("own", (354, 655676)); ("page", (5434, 11259248)) ]);
    ("3D-FFT", Config.Wfs, 2706581630, 31508, 6412, 11672605,
     2717, 880, 564, -192243679.412635,
     [ ("barrier", (266, 109172)); ("diff", (462, 15939)); ("own", (238, 6902)); ("page", (5446, 11284112)) ]);
    ("3D-FFT", Config.Wfs_wg, 2702933445, 31580, 6412, 11676637,
     2717, 880, 262964, -192243679.412635,
     [ ("barrier", (266, 107380)); ("diff", (1358, 1878275)); ("own", (238, 6902)); ("page", (4550, 9427600)) ]);
  ]

let test_paper_scale () =
  List.iter
    (fun (app_name, protocol, time_ns, events, messages, wire_bytes,
          read_faults, write_faults, diff_bytes, result, by_kind) ->
      let name what =
        Printf.sprintf "%s/%s: %s" app_name (Config.protocol_name protocol) what
      in
      let app = Option.get (Registry.find app_name) in
      let t = Dsm.create (Config.make ~protocol ~nprocs:8 ()) in
      let program, got_result = app.Registry.instantiate Registry.Default t in
      let r = Dsm.run t program in
      let s = r.Dsm.stats in
      Alcotest.(check int) (name "time") time_ns r.Dsm.time_ns;
      Alcotest.(check int) (name "events") events r.Dsm.events;
      Alcotest.(check int) (name "messages") messages r.Dsm.messages;
      Alcotest.(check int) (name "wire bytes") wire_bytes r.Dsm.wire_bytes;
      Alcotest.(check (list (pair string (pair int int))))
        (name "per-kind counters") by_kind r.Dsm.by_kind;
      Alcotest.(check int) (name "read faults") read_faults (Stats.read_faults s);
      Alcotest.(check int)
        (name "write faults") write_faults (Stats.write_faults s);
      Alcotest.(check int)
        (name "diff bytes") diff_bytes (Stats.diff_bytes_total s);
      Alcotest.(check (float 0.0)) (name "result") result (got_result ()))
    paper_scale

let () =
  Alcotest.run "proto-split"
    [
      ( "equivalence",
        [
          Alcotest.test_case "matches pre-refactor counters" `Quick
            test_against_baselines;
          Alcotest.test_case "all protocols agree" `Quick
            test_all_protocols_agree;
          Alcotest.test_case "paper-scale pins at 8 nodes" `Slow
            test_paper_scale;
        ] );
    ]
