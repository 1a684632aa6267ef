(* Tracing subsystem tests: codec round-trips, sink output validity, the
   zero-cost disabled path, and protocol-level assertions made against
   captured event streams (the paper's Section 6 narratives). *)

module Trace = Adsm_trace
module Event = Trace.Event
module Json = Trace.Json
module Sink = Trace.Sink
module Tracer = Trace.Tracer
module Query = Trace.Query
module Kind = Adsm_net.Kind
module Config = Adsm_dsm.Config
module Registry = Adsm_apps.Registry
module Runner = Adsm_harness.Runner

(* One of each constructor, with distinctive field values. *)
let sample_events : Event.t list =
  [
    Event.Read_fault { page = 3 };
    Event.Write_fault { page = 4 };
    Event.Twin_create { page = 5 };
    Event.Twin_free { page = 5 };
    Event.Diff_create { page = 5; seq = 2; bytes = 144; modified = 128 };
    Event.Diff_apply { page = 5; writer = 1; seq = 2 };
    Event.Diff_gc { count = 7; bytes = 9_000 };
    Event.Gc_drop { page = 6 };
    Event.Mode_change { page = 7; mode = Event.Mw };
    Event.Mode_change { page = 7; mode = Event.Sw };
    Event.Own_request { page = 8; owner = 2; version = 11 };
    Event.Own_grant { page = 8; requester = 0; version = 12 };
    Event.Own_refuse { page = 8; requester = 0; reason = Event.Fs };
    Event.Own_refuse { page = 8; requester = 3; reason = Event.Measure };
    Event.Lock_acquire { lock = 1 };
    Event.Lock_release { lock = 1 };
    Event.Barrier_enter { epoch = 4 };
    Event.Barrier_leave { epoch = 4 };
    Event.Msg_send { dst = 2; kind = Kind.Diff; bytes = 356 };
    Event.Msg_deliver { src = 0; kind = Kind.Diff; bytes = 356 };
    Event.Compute { ns = 123_456 };
    Event.Sim_events { executed = 640 };
  ]

let sample_stamped : Event.stamped list =
  List.mapi
    (fun i event -> { Event.time = i * 1_000; node = i mod 4; event })
    sample_events

(* ------------------------------------------------------------------ *)
(* Codec round-trips                                                  *)
(* ------------------------------------------------------------------ *)

let test_json_roundtrip () =
  List.iter
    (fun (s : Event.stamped) ->
      match Event.of_json (Event.to_json s) with
      | Some s' ->
        Alcotest.(check bool)
          (Printf.sprintf "%s round-trips" (Event.tag s.Event.event))
          true (s = s')
      | None ->
        Alcotest.failf "of_json rejected %s" (Event.tag s.Event.event))
    sample_stamped

let test_jsonl_parse_back () =
  (* The JSONL sink followed by Query.of_jsonl is the identity. *)
  let buf = Buffer.create 1024 in
  let sink = Sink.jsonl (Buffer.add_string buf) in
  List.iter sink.Sink.emit sample_stamped;
  sink.Sink.close ();
  let back = Query.of_jsonl (Buffer.contents buf) in
  Alcotest.(check int) "event count" (List.length sample_stamped)
    (List.length back);
  Alcotest.(check bool) "events identical" true (back = sample_stamped)

let test_of_json_rejects_garbage () =
  let cases =
    [
      Json.Null;
      Json.String "read-fault";
      Json.Obj [ ("t", Json.Int 0); ("node", Json.Int 0) ];
      Json.Obj
        [ ("t", Json.Int 0); ("node", Json.Int 0); ("ev", Json.String "nope") ];
      (* right tag, missing payload field *)
      Json.Obj
        [
          ("t", Json.Int 0);
          ("node", Json.Int 0);
          ("ev", Json.String "diff-create");
          ("page", Json.Int 1);
        ];
    ]
  in
  List.iter
    (fun j ->
      Alcotest.(check bool) "rejected" true (Event.of_json j = None))
    cases

let test_of_jsonl_skips_bad_lines () =
  let buf = Buffer.create 256 in
  let sink = Sink.jsonl (Buffer.add_string buf) in
  List.iter sink.Sink.emit (List.filteri (fun i _ -> i < 3) sample_stamped);
  let text = "not json at all\n" ^ Buffer.contents buf ^ "{\"half\": tru\n" in
  Alcotest.(check int) "three good lines survive" 3
    (List.length (Query.of_jsonl text))

(* ------------------------------------------------------------------ *)
(* Chrome sink                                                        *)
(* ------------------------------------------------------------------ *)

let test_chrome_output_is_valid_json () =
  let buf = Buffer.create 4096 in
  let sink = Sink.chrome ~nodes:4 (Buffer.add_string buf) in
  List.iter sink.Sink.emit sample_stamped;
  sink.Sink.close ();
  sink.Sink.close ();
  (* idempotent: one footer *)
  let json =
    match Json.parse (Buffer.contents buf) with
    | Ok j -> j
    | Error e -> Alcotest.failf "chrome output does not parse: %s" e
  in
  let records =
    match Option.bind (Json.member "traceEvents" json) Json.to_list with
    | Some l -> l
    | None -> Alcotest.failf "no traceEvents array"
  in
  let phase r =
    Option.value ~default:"?" (Option.bind (Json.member "ph" r) Json.to_str)
  in
  let count ph = List.length (List.filter (fun r -> phase r = ph) records) in
  Alcotest.(check int) "one process_name metadata per node" 4 (count "M");
  Alcotest.(check int) "barrier duration pair" (count "B") (count "E");
  Alcotest.(check bool) "barriers present" true (count "B" >= 1);
  Alcotest.(check int) "compute complete slice" 1 (count "X");
  Alcotest.(check int) "sim-events counter sample" 1 (count "C");
  (* every non-metadata record sits on a node track: pid = tid = node *)
  List.iter
    (fun r ->
      if phase r <> "M" then begin
        let field k = Option.bind (Json.member k r) Json.to_int in
        match (field "pid", field "tid") with
        | Some pid, Some tid ->
          Alcotest.(check bool) "pid = tid" true (pid = tid);
          Alcotest.(check bool) "pid in range" true (pid >= 0 && pid < 4)
        | _ -> Alcotest.failf "record without pid/tid"
      end)
    records

(* ------------------------------------------------------------------ *)
(* Ring sink and tracer plumbing                                      *)
(* ------------------------------------------------------------------ *)

let test_ring_eviction () =
  let ring = Sink.ring ~capacity:4 () in
  let sink = Sink.ring_sink ring in
  List.iteri
    (fun i _ ->
      sink.Sink.emit
        { Event.time = i; node = 0; event = Event.Read_fault { page = i } })
    [ (); (); (); (); (); () ];
  let contents = Sink.ring_contents ring in
  Alcotest.(check int) "keeps capacity" 4 (List.length contents);
  Alcotest.(check int) "counts evictions" 2 (Sink.ring_dropped ring);
  Alcotest.(check (list int)) "oldest first" [ 2; 3; 4; 5 ]
    (List.map (fun (s : Event.stamped) -> s.Event.time) contents)

let test_tracer_fan_out () =
  let r1 = Sink.ring () and r2 = Sink.ring () in
  let tracer = Tracer.create [ Sink.ring_sink r1; Sink.ring_sink r2 ] in
  Alcotest.(check bool) "enabled" true (Tracer.enabled tracer);
  Tracer.emit tracer ~time:7 ~node:1 (Event.Lock_acquire { lock = 0 });
  Tracer.close tracer;
  Tracer.close tracer;
  Alcotest.(check int) "emitted counted" 1 (Tracer.emitted tracer);
  Alcotest.(check int) "sink 1 got it" 1 (List.length (Sink.ring_contents r1));
  Alcotest.(check int) "sink 2 got it" 1 (List.length (Sink.ring_contents r2))

let test_disabled_path_does_not_allocate () =
  (* The emission idiom used throughout lib/dsm:
       if tracing then emit (Event.X {...})
     must construct nothing when tracing is off.  10k iterations through
     the guard should stay within noise (the Gc.minor_words calls
     themselves box a float). *)
  let tracer = Tracer.disabled in
  Alcotest.(check bool) "disabled" false (Tracer.enabled tracer);
  let page = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    if Tracer.enabled tracer then begin
      page := i;
      Tracer.emit tracer ~time:i ~node:0 (Event.Read_fault { page = !page })
    end
  done;
  let after = Gc.minor_words () in
  Alcotest.(check bool)
    (Printf.sprintf "no per-event allocation (%.0f words)" (after -. before))
    true
    (after -. before < 256.)

(* ------------------------------------------------------------------ *)
(* Query combinators                                                  *)
(* ------------------------------------------------------------------ *)

let test_query_filters () =
  let evs = sample_stamped in
  Alcotest.(check int) "by tag" 2 (Query.count ~tag:"own-refuse" evs);
  Alcotest.(check int) "by page" 4 (Query.count ~page:8 evs);
  Alcotest.(check int) "by node" (List.length (Query.filter ~node:2 evs))
    (Query.count ~node:2 evs);
  Alcotest.(check int) "conjunction" 1
    (Query.count ~page:8 ~tag:"own-grant" evs);
  (* events are stamped 0, 1000, ..., 21000 ns; the window is inclusive *)
  Alcotest.(check int) "window"
    (List.length evs - 2)
    (Query.count ~since:1_000 ~until:20_000 evs);
  (match Query.first ~tag:"mode-change" evs with
  | Some { Event.event = Event.Mode_change { mode = Event.Mw; _ }; _ } -> ()
  | _ -> Alcotest.failf "first mode-change should be the Mw flip");
  (match Query.last ~tag:"mode-change" evs with
  | Some { Event.event = Event.Mode_change { mode = Event.Sw; _ }; _ } -> ()
  | _ -> Alcotest.failf "last mode-change should be the Sw flip");
  Alcotest.(check (list int)) "nodes" [ 0; 1; 2; 3 ] (Query.nodes evs);
  Alcotest.(check bool) "pages sorted" true
    (let p = Query.pages evs in
     p = List.sort_uniq compare p)

(* Time-window and page criteria composed in one query: the page-8
   ownership exchange spans 10–13 µs (request, grant, two refusals), so
   slicing it by window must keep page and time predicates ANDed, and
   first/last must respect the window rather than the whole stream. *)
let test_query_window_page_composed () =
  let evs = sample_stamped in
  Alcotest.(check int) "page 8 events in a sub-window" 2
    (Query.count ~page:8 ~since:11_000 ~until:12_000 evs);
  List.iter
    (fun { Event.time; event; _ } ->
      Alcotest.(check bool) "inside window" true
        (time >= 11_000 && time <= 12_000);
      Alcotest.(check (option int)) "right page" (Some 8) (Event.page event))
    (Query.filter ~page:8 ~since:11_000 ~until:12_000 evs);
  Alcotest.(check int) "three-way conjunction" 1
    (Query.count ~page:8 ~tag:"own-refuse" ~since:13_000 evs);
  (match Query.first ~page:8 ~since:11_000 evs with
  | Some { Event.event = Event.Own_grant { page = 8; _ }; time = 11_000; _ }
    -> ()
  | _ -> Alcotest.fail "first page-8 event at/after 11 us should be the grant");
  (match Query.last ~page:8 ~until:12_000 evs with
  | Some { Event.event = Event.Own_refuse { page = 8; _ }; time = 12_000; _ }
    -> ()
  | _ -> Alcotest.fail "last page-8 event up to 12 us should be the refusal");
  Alcotest.(check int) "window past the page's events" 0
    (Query.count ~page:8 ~since:14_000 ~until:9_000_000 evs)

(* ------------------------------------------------------------------ *)
(* Captured protocol runs                                             *)
(* ------------------------------------------------------------------ *)

let capture ?(nprocs = 4) app_name protocol =
  let app =
    match Registry.find app_name with
    | Some app -> app
    | None -> Alcotest.failf "unknown app %s" app_name
  in
  let ring = Sink.ring ~capacity:1_000_000 () in
  let tracer = Tracer.create [ Sink.ring_sink ring ] in
  let m =
    Runner.run ~tracer ~app ~protocol ~nprocs ~scale:Registry.Tiny ()
  in
  Tracer.close tracer;
  Alcotest.(check int) "ring kept everything" 0 (Sink.ring_dropped ring);
  (m, Sink.ring_contents ring)

let test_sor_wfs_trace_matches_stats () =
  (* SOR has no write-write false sharing: WFS keeps every page in SW
     mode, so the trace must show ownership traffic but no twins, no
     diffs and no mode departures (paper Section 6.4). *)
  let m, evs = capture "SOR" Config.Wfs in
  Alcotest.(check int) "read faults" m.Runner.read_faults
    (Query.count ~tag:"read-fault" evs);
  Alcotest.(check int) "write faults" m.Runner.write_faults
    (Query.count ~tag:"write-fault" evs);
  Alcotest.(check int) "ownership requests" m.Runner.own_requests
    (Query.count ~tag:"own-request" evs);
  Alcotest.(check int) "messages" m.Runner.messages
    (Query.count ~tag:"msg-send" evs);
  Alcotest.(check int) "every send delivered"
    (Query.count ~tag:"msg-send" evs)
    (Query.count ~tag:"msg-deliver" evs);
  Alcotest.(check bool) "ownership moved" true (m.Runner.own_requests > 0);
  Alcotest.(check int) "no twins" 0 (Query.count ~tag:"twin-create" evs);
  Alcotest.(check int) "no diffs" 0 (Query.count ~tag:"diff-create" evs);
  Alcotest.(check int) "never leaves SW" 0
    (Query.count ~tag:"mode-change" evs);
  Alcotest.(check int) "barriers balanced"
    (Query.count ~tag:"barrier-enter" evs)
    (Query.count ~tag:"barrier-leave" evs)

(* [Stats.mode_switches] counts exactly the traced page transitions.
   Under WFS+WG the write-granularity measurement flips a page's
   large-write flag without changing its mode; IS, 3D-FFT and Shallow
   flip it often at the default scale. *)
let test_wfs_wg_switches_match_trace () =
  List.iter
    (fun app_name ->
      let app = Option.get (Registry.find app_name) in
      let changes = ref 0 in
      let sink =
        {
          Sink.emit =
            (fun (s : Event.stamped) ->
              match s.Event.event with
              | Event.Mode_change _ -> incr changes
              | _ -> ());
          close = ignore;
        }
      in
      let tracer = Tracer.create [ sink ] in
      let m =
        Runner.run ~tracer ~app ~protocol:Config.Wfs_wg ~nprocs:8
          ~scale:Registry.Default ()
      in
      Tracer.close tracer;
      Alcotest.(check bool) (app_name ^ ": pages change mode") true (!changes > 0);
      Alcotest.(check int) (app_name ^ ": switches = mode-change events")
        !changes m.Runner.mode_switches)
    [ "IS"; "3D-FFT"; "Shallow" ]

let test_is_mw_trace_shows_multiple_writers () =
  (* IS under MW: the shared bucket pages are written by several nodes in
     the same interval — the trace must show some page with diffs created
     by at least two distinct nodes. *)
  let m, evs = capture "IS" Config.Mw in
  Alcotest.(check int) "diff count matches stats" m.Runner.diffs_created
    (Query.count ~tag:"diff-create" evs);
  Alcotest.(check bool) "diffs exist" true (m.Runner.diffs_created > 0);
  let dc = Query.filter ~tag:"diff-create" evs in
  let multi_writer_page =
    List.exists
      (fun p -> List.length (Query.nodes (Query.filter ~page:p dc)) >= 2)
      (Query.pages dc)
  in
  Alcotest.(check bool) "some page diffed by >= 2 nodes" true
    multi_writer_page;
  Alcotest.(check bool) "locks traced" true
    (Query.count ~tag:"lock-acquire" evs > 0);
  Alcotest.(check int) "locks balanced"
    (Query.count ~tag:"lock-acquire" evs)
    (Query.count ~tag:"lock-release" evs)

(* ------------------------------------------------------------------ *)
(* Pinned traces of the paper configuration                           *)
(* ------------------------------------------------------------------ *)

(* MD5 of the JSONL trace of every (app, protocol) cell of the paper's
   grid at 8 nodes, tiny scale, on the paper's central barrier.  The
   trace records every fault, diff, message and barrier step with its
   simulated time, plus a [sim-events] record every 64 engine events, so
   any change to what the protocol does, or to the order in which the
   engine runs it, moves a digest. *)
let trace_pins =
  [
    ("IS", Config.Mw, "a03510daa29e667de8714d8250953e2f");
    ("IS", Config.Sw, "bc0e8e3027536c0e7b3df75726d5fc65");
    ("IS", Config.Wfs, "9e3004da2c855949f9b5d60b781c37eb");
    ("IS", Config.Wfs_wg, "c02b85fd6a79e9f9aa5e3b59e2f4fc15");
    ("3D-FFT", Config.Mw, "efa5170b6817d8e6ef9da31a3ea0f8da");
    ("3D-FFT", Config.Sw, "9f7fa062b6ea5df64f44c902d86106b4");
    ("3D-FFT", Config.Wfs, "d9482ad77ac4ddc0c67503d3ea28a54b");
    ("3D-FFT", Config.Wfs_wg, "9997ee305cd2991b57201ae80bcb7a4b");
    ("SOR", Config.Mw, "3dec4b9f38cd7419eb152f77367e9f99");
    ("SOR", Config.Sw, "d74b7a972681ad42ea44896d9869f4d2");
    ("SOR", Config.Wfs, "7ae525404d60dacf1a51deaf5a9e1966");
    ("SOR", Config.Wfs_wg, "48f6998a6db64b022599871695cdce1a");
    ("TSP", Config.Mw, "59b188bdd26ea1f31196e8a9d64ee817");
    ("TSP", Config.Sw, "45a4056e0fcaf65af888305de6124af6");
    ("TSP", Config.Wfs, "d4d779984a3b11a1c9f4b2326493667f");
    ("TSP", Config.Wfs_wg, "2a3e9d6350d1971b2678c19d314ab45c");
    ("Water", Config.Mw, "add8d014e69aee15b90048b4c440c1c7");
    ("Water", Config.Sw, "802544d4f084a8a071884c4466a92ab8");
    ("Water", Config.Wfs, "b4fef62a0a26370717452b65196d5839");
    ("Water", Config.Wfs_wg, "4e782366def39d389cdd3700d988f1f6");
    ("Shallow", Config.Mw, "1eb46848ee7d717eda1d610d4e94903c");
    ("Shallow", Config.Sw, "aa81cd5d7437deff952c695e140aec48");
    ("Shallow", Config.Wfs, "68f17c1b4690603a31d53e608b978af0");
    ("Shallow", Config.Wfs_wg, "0e98b5d9c399df99b1a2534e2e1216a4");
    ("Barnes", Config.Mw, "729e3294a431658e18257fa10176a9b8");
    ("Barnes", Config.Sw, "e099c290b321472ba6984c0aa8aa8acd");
    ("Barnes", Config.Wfs, "02832fce1e21fb265dedf4b1111e0db2");
    ("Barnes", Config.Wfs_wg, "5f9246e3be7557fafa6623b5dba74e62");
    ("ILINK", Config.Mw, "3e5b03c714e0b68b120a8e9cd26011d7");
    ("ILINK", Config.Sw, "c1ec7627054dcea2798a8c500b279cf4");
    ("ILINK", Config.Wfs, "036ee2402ab02004126ec708650fc8ce");
    ("ILINK", Config.Wfs_wg, "4db8826aad05153c45c98a184aec620f")
  ]

(* One traced run at 8 nodes, tiny scale: its measurement and the MD5 of
   its JSONL trace. *)
let traced_run ?(migratory = false) app_name protocol =
  let app = Option.get (Registry.find app_name) in
  let buf = Buffer.create (1 lsl 20) in
  let tracer = Tracer.create [ Sink.jsonl (Buffer.add_string buf) ] in
  let tweak c = { c with Config.migratory_detection = migratory } in
  let m =
    Runner.run ~tracer ~tweak ~app ~protocol ~nprocs:8
      ~scale:Registry.Tiny ()
  in
  Tracer.close tracer;
  (m, Digest.to_hex (Digest.string (Buffer.contents buf)))

let test_paper_trace_pins () =
  List.iter
    (fun (app_name, protocol, digest) ->
      Alcotest.(check string)
        (Printf.sprintf "%s/%s trace digest" app_name
           (Config.protocol_name protocol))
        digest
        (snd (traced_run app_name protocol)))
    trace_pins

(* Pins for paths the paper grid never runs, same recipe as
   [trace_pins]: the migratory-detection extension under WFS (TSP and
   Water are the tiny-scale cells where the read upgrade fires; under
   WFS+WG, and in IS or SOR, it never does at this scale) and HLRC on
   every app. *)
let extra_trace_pins =
  [
    ("TSP", Config.Wfs, true, "0865a7fdf38bbb38f9bd0a6adb291dce");
    ("Water", Config.Wfs, true, "a16b36f23f3db30b6993711f028cfe1c");
    ("IS", Config.Hlrc, false, "996bcf381a177f70ef0ef3f5406873b2");
    ("3D-FFT", Config.Hlrc, false, "4b30d5b5b96cdd78f8171a1f3314b900");
    ("SOR", Config.Hlrc, false, "e17b4fb52e43574fcd74df59651825f6");
    ("TSP", Config.Hlrc, false, "44753a7c809a98ee4d93650ee4141451");
    ("Water", Config.Hlrc, false, "987cbec6073d8e1b12169fc3dca226cb");
    ("Shallow", Config.Hlrc, false, "6e8a2176860f51cfbcac358ab68d3ec6");
    ("Barnes", Config.Hlrc, false, "0875634a46dcf6004c5b6f1d342634a6");
    ("ILINK", Config.Hlrc, false, "cd7142f8dbc8b8644ed654f97b71c8bd")
  ]

let test_extra_trace_pins () =
  List.iter
    (fun (app_name, protocol, migratory, digest) ->
      let label =
        Printf.sprintf "%s/%s%s" app_name
          (Config.protocol_name protocol)
          (if migratory then "+migratory" else "")
      in
      let m, got = traced_run ~migratory app_name protocol in
      Alcotest.(check string) (label ^ " trace digest") digest got;
      if migratory then begin
        (* Not vacuous: the read upgrade fired and changed the traffic. *)
        let off, _ = traced_run app_name protocol in
        if m.Runner.messages = off.Runner.messages then
          Alcotest.failf "%s: %d messages, the same as without the extension"
            label m.Runner.messages
      end)
    extra_trace_pins

let () =
  Alcotest.run "trace"
    [
      ( "codec",
        [
          Alcotest.test_case "to_json/of_json round-trip" `Quick
            test_json_roundtrip;
          Alcotest.test_case "jsonl sink parse-back" `Quick
            test_jsonl_parse_back;
          Alcotest.test_case "of_json rejects garbage" `Quick
            test_of_json_rejects_garbage;
          Alcotest.test_case "of_jsonl skips bad lines" `Quick
            test_of_jsonl_skips_bad_lines;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "chrome output valid" `Quick
            test_chrome_output_is_valid_json;
          Alcotest.test_case "ring eviction" `Quick test_ring_eviction;
          Alcotest.test_case "tracer fan-out" `Quick test_tracer_fan_out;
          Alcotest.test_case "disabled path allocation-free" `Quick
            test_disabled_path_does_not_allocate;
        ] );
      ( "query",
        [
          Alcotest.test_case "filters" `Quick test_query_filters;
          Alcotest.test_case "time-window + page composition" `Quick
            test_query_window_page_composed;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "SOR/WFS stays single-writer" `Quick
            test_sor_wfs_trace_matches_stats;
          Alcotest.test_case "IS/MW multiple writers" `Quick
            test_is_mw_trace_shows_multiple_writers;
          Alcotest.test_case "WFS+WG switch count = mode-change events" `Quick
            test_wfs_wg_switches_match_trace;
        ] );
      ( "pins",
        [
          Alcotest.test_case "paper grid traces at 8 nodes" `Quick
            test_paper_trace_pins;
          Alcotest.test_case "migratory and HLRC traces at 8 nodes" `Quick
            test_extra_trace_pins;
        ] );
    ]
