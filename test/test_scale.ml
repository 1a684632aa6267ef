(* Scaling-refactor tests: the combining tree barrier, sharded lock
   homes, sparse vector-clock accounting and the node-count scaling
   study must all be pure COST-MODEL changes — every application result
   stays bit-identical to the central-barrier flat fabric — while the
   barrier's traffic stays within the combining-tree bound. *)

module Config = Adsm_dsm.Config
module Dsm = Adsm_dsm.Dsm
module Registry = Adsm_apps.Registry
module Runner = Adsm_harness.Runner
module Scaling = Adsm_harness.Scaling

let run ?(tweak = Fun.id) ~app ~protocol ~nprocs () =
  let entry =
    match Registry.find app with
    | Some e -> e
    | None -> Alcotest.fail ("unknown app " ^ app)
  in
  Runner.run ~tweak ~app:entry ~protocol ~nprocs ~scale:Registry.Tiny ()

let tree_tweak = Scaling.tweak_of_fabric Scaling.Tree_combining

let barrier_msgs (m : Runner.measurement) =
  match List.assoc_opt "barrier" m.Runner.by_kind with
  | Some (count, _) -> count
  | None -> 0

(* ------------------------------------------------------------------ *)
(* Tree fabric is checksum-transparent                                 *)
(* ------------------------------------------------------------------ *)

(* Every application, both protocol families: the full large-cluster
   configuration (tree topology + combining barrier + sharded locks +
   sparse VCs) reproduces the flat/central checksum exactly. *)
let test_tree_transparent_all_apps () =
  List.iter
    (fun app ->
      List.iter
        (fun protocol ->
          let flat = run ~app ~protocol ~nprocs:8 () in
          let tree = run ~tweak:tree_tweak ~app ~protocol ~nprocs:8 () in
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s/%s checksum" app
               (Config.protocol_name protocol))
            flat.Runner.checksum tree.Runner.checksum)
        [ Config.Mw; Config.Wfs ])
    Registry.names

(* SOR under every protocol, including the adaptive ones. *)
let test_tree_transparent_all_protocols () =
  List.iter
    (fun protocol ->
      let flat = run ~app:"SOR" ~protocol ~nprocs:8 () in
      let tree = run ~tweak:tree_tweak ~app:"SOR" ~protocol ~nprocs:8 () in
      Alcotest.(check (float 0.0))
        (Config.protocol_name protocol)
        flat.Runner.checksum tree.Runner.checksum)
    Config.all_protocols

(* A combining tree uses exactly 2(n-1) barrier messages per round —
   the same TOTAL as the central barrier (the tree's win is fan-in, not
   message count), so the two fabrics must agree on it exactly. *)
let test_barrier_message_parity () =
  let flat = run ~app:"SOR" ~protocol:Config.Mw ~nprocs:8 () in
  let tree = run ~tweak:tree_tweak ~app:"SOR" ~protocol:Config.Mw ~nprocs:8 () in
  Alcotest.(check int) "barrier messages" (barrier_msgs flat)
    (barrier_msgs tree)

(* The fanout only reshapes the combining tree; results and barrier
   traffic are unchanged. *)
let test_fanout_invariance () =
  let base = run ~app:"SOR" ~protocol:Config.Mw ~nprocs:13 () in
  List.iter
    (fun fanout ->
      let tweak cfg = { cfg with Config.barrier_fanout = fanout } in
      let m = run ~tweak ~app:"SOR" ~protocol:Config.Mw ~nprocs:13 () in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "fanout %d checksum" fanout)
        base.Runner.checksum m.Runner.checksum;
      Alcotest.(check int)
        (Printf.sprintf "fanout %d barrier msgs" fanout)
        (barrier_msgs base) (barrier_msgs m))
    [ 2; 4; 8 ]

(* ------------------------------------------------------------------ *)
(* Tree-mode garbage collection                                        *)
(* ------------------------------------------------------------------ *)

(* Drive the GC rounds through the tree (Gc_done combining up,
   Gc_complete fanning down) by shrinking the trigger threshold, and
   check the result still matches a central-barrier run under the same
   threshold. *)
let test_tree_gc_round () =
  let low cfg = { cfg with Config.gc_threshold_bytes = 2_048 } in
  let flat = run ~tweak:low ~app:"SOR" ~protocol:Config.Mw ~nprocs:8 () in
  let tree =
    run
      ~tweak:(fun cfg -> low (tree_tweak cfg))
      ~app:"SOR" ~protocol:Config.Mw ~nprocs:8 ()
  in
  Alcotest.(check bool) "gc actually ran" true (tree.Runner.gc_runs > 0);
  Alcotest.(check int) "same gc rounds" flat.Runner.gc_runs
    tree.Runner.gc_runs;
  Alcotest.(check (float 0.0)) "checksum" flat.Runner.checksum
    tree.Runner.checksum

(* ------------------------------------------------------------------ *)
(* Sharded lock homes                                                  *)
(* ------------------------------------------------------------------ *)

(* Lock-home placement is pure policy: any shard count yields the same
   result as the historical modulo placement on a lock-heavy program. *)
let test_sharded_locks_transparent () =
  let base = run ~app:"Water" ~protocol:Config.Mw ~nprocs:8 () in
  List.iter
    (fun shards ->
      let tweak cfg = { cfg with Config.lock_shards = shards } in
      let m = run ~tweak ~app:"Water" ~protocol:Config.Mw ~nprocs:8 () in
      Alcotest.(check (float 0.0))
        (Printf.sprintf "%d shards checksum" shards)
        base.Runner.checksum m.Runner.checksum)
    [ 1; 2; 4 ]

(* Grant order is FIFO by request arrival at the home, whichever node
   the placement policy makes the home.  Node 0 grabs the lock and
   holds it while every other node's request (staggered well past the
   1 ms message latency) queues up; grants must then follow arrival
   order exactly. *)
let test_sharded_lock_fifo () =
  List.iter
    (fun lock_shards ->
      let cfg =
        { (Config.make ~protocol:Config.Mw ~nprocs:8 ()) with lock_shards }
      in
      let t = Dsm.create cfg in
      let l = Dsm.fresh_lock t in
      let order = ref [] in
      ignore
        (Dsm.run t (fun ctx ->
             let me = Dsm.me ctx in
             Dsm.compute ctx (me * 5_000_000);
             Dsm.lock ctx l;
             order := me :: !order;
             (* Hold long enough that every later request queues. *)
             if me = 0 then Dsm.compute ctx 200_000_000;
             Dsm.unlock ctx l));
      Alcotest.(check (list int))
        (Printf.sprintf "grant order (sharded %d)" lock_shards)
        (List.init 8 Fun.id) (List.rev !order))
    [ 1; 2; 4; 8 ]

(* A barrier fanout below 2 or a shard count outside 1..nprocs is
   rejected by [Dsm.run] before any event runs — the application body
   never starts — instead of dividing by zero mid-run (fanout 0) or
   being silently clamped (shards).  The boundary values still run. *)
let test_bad_sync_config_rejected () =
  let nprocs = 8 in
  let attempt (barrier_fanout, lock_shards) =
    let cfg =
      {
        (Config.make ~protocol:Config.Mw ~nprocs ()) with
        barrier_fanout;
        lock_shards;
      }
    in
    let t = Dsm.create cfg in
    let l = Dsm.fresh_lock t in
    let started = ref false in
    let result =
      try
        Ok
          (Dsm.run t (fun ctx ->
               started := true;
               Dsm.lock ctx l;
               Dsm.unlock ctx l;
               Dsm.barrier ctx))
      with Invalid_argument msg -> Error msg
    in
    (result, !started)
  in
  let label (fanout, shards) =
    Printf.sprintf "fanout %d, sharded %d" fanout shards
  in
  List.iter
    (fun c ->
      match attempt c with
      | Error _, started ->
        Alcotest.(check bool) (label c ^ ": no event ran") false started
      | Ok _, _ -> Alcotest.fail (label c ^ ": accepted"))
    [
      (0, nprocs);
      (1, nprocs);
      (nprocs, 0);
      (nprocs, -1);
      (nprocs, nprocs + 1);
    ];
  List.iter
    (fun c ->
      match attempt c with
      | Ok _, started -> Alcotest.(check bool) (label c ^ ": ran") true started
      | Error msg, _ -> Alcotest.fail (label c ^ ": rejected: " ^ msg))
    [ (2, 1); (nprocs, nprocs) ]

(* ------------------------------------------------------------------ *)
(* 256-node completion and the scaling study's own checks              *)
(* ------------------------------------------------------------------ *)

(* The CI smoke study end-to-end: SOR to 256 nodes on both fabrics.
   Asserts the study's two hard invariants (fabric checksum equality,
   barrier traffic within 4 R n log2 n) and the refactor's headline:
   at 256 nodes the tree fabric beats the flat fabric's serialized
   barrier fan-in by a wide margin. *)
let test_smoke_study () =
  let study = Scaling.collect ~smoke:true ~max_nodes:256 () in
  Alcotest.(check int) "rows" 16 (List.length study.Scaling.rows);
  Alcotest.(check (list string)) "fabric checksums agree" []
    (Scaling.checksum_mismatches study);
  Alcotest.(check (list string)) "barrier traffic within bound" []
    (Scaling.barrier_bound_violations study);
  let time fabric =
    match
      List.find_opt
        (fun r ->
          r.Scaling.nprocs = 256 && r.Scaling.fabric = fabric
          && r.Scaling.protocol = Config.Mw)
        study.Scaling.rows
    with
    | Some r -> r.Scaling.time_ns
    | None -> Alcotest.fail "missing 256-node row"
  in
  Alcotest.(check bool) "tree fabric wins at 256 nodes" true
    (time Scaling.Tree_combining * 10 < time Scaling.Flat_central)

(* The dominating-slot summary behind the write-write false-sharing
   check is host-side only; pin the full measurement where it matters,
   at 256 nodes on the tree fabric.  IS never detects false sharing, so
   every notice takes the summary's fast path; Water detects it on 7
   pages with ~8.5k mode switches, so it exercises the dense fallback
   and the re-establishment of the summary.  Values recorded before the
   summary existed. *)
let fast_path_pins =
  [
    ( "IS", 16656785629, 6128, 143445004, 0, 0, 10697.545982764903,
      [ ("barrier", (2550, 93443824)); ("lock", (1530, 46588828));
        ("own", (1024, 537600)); ("page", (1024, 2629632)) ] );
    ( "Water", 27584512165, 50403, 346644196, 7, 8475, 1.5938376384442556,
      [ ("barrier", (4080, 264823668)); ("diff", (35780, 13813162));
        ("lock", (7493, 60761628)); ("own", (1274, 668850));
        ("page", (1776, 4560768)) ] );
  ]

let check_pinned name ~time_ns ~messages ~wire_bytes ~checksum ~by_kind
    (m : Runner.measurement) =
  let name what = Printf.sprintf "%s: %s" name what in
  Alcotest.(check int) (name "time") time_ns m.Runner.time_ns;
  Alcotest.(check int) (name "messages") messages m.Runner.messages;
  Alcotest.(check int) (name "wire bytes") wire_bytes m.Runner.wire_bytes;
  Alcotest.(check (list (pair string (pair int int))))
    (name "by kind") by_kind m.Runner.by_kind;
  Alcotest.(check (float 0.0)) (name "checksum") checksum m.Runner.checksum

(* The large-n fast paths (summarized clocks, indexed interval logs)
   are all behavior-neutral claims; pin them where they actually bite —
   SOR/MW at 512 and 1024 nodes on both fabrics — and require checksum
   identity between the fabrics themselves.
   Values recorded while the parallel engine was still in the tree. *)
let large_n_pins =
  [
    ( 512,
      [ ("flat", Fun.id, 30804566170, 10670, 147071865,
         [ ("barrier", (10220, 145590032)); ("diff", (450, 1055033)) ]);
        ("tree", tree_tweak, 164266762, 10670, 3094537,
         [ ("barrier", (10220, 2263552)); ("diff", (450, 404185)) ]) ] );
    ( 1024,
      [ ("flat", Fun.id, 122385117750, 20910, 583170937,
         [ ("barrier", (20460, 580589328)); ("diff", (450, 1745209)) ]);
        ("tree", tree_tweak, 184595950, 20910, 5765129,
         [ ("barrier", (20460, 4524544)); ("diff", (450, 404185)) ]) ] );
  ]

let test_large_n_byte_identity () =
  List.iter
    (fun (nprocs, fabrics) ->
      let checksums =
        List.map
          (fun (fabric, tweak, time_ns, messages, wire_bytes, by_kind) ->
            let m = run ~tweak ~app:"SOR" ~protocol:Config.Mw ~nprocs () in
            check_pinned
              (Printf.sprintf "SOR/MW/%d %s" nprocs fabric)
              ~time_ns ~messages ~wire_bytes ~checksum:2.618033988749895
              ~by_kind m;
            m.Runner.checksum)
          fabrics
      in
      List.iter
        (Alcotest.(check (float 0.0))
           (Printf.sprintf "SOR/%d nodes: flat vs tree checksum" nprocs)
           (List.hd checksums))
        checksums)
    large_n_pins

let test_notice_summary_pins () =
  List.iter
    (fun (app, time_ns, messages, wire_bytes, false_shared, switches, checksum,
          by_kind) ->
      let m = run ~tweak:tree_tweak ~app ~protocol:Config.Wfs ~nprocs:256 () in
      let name = Printf.sprintf "%s/WFS/256 tree" app in
      check_pinned name ~time_ns ~messages ~wire_bytes ~checksum ~by_kind m;
      Alcotest.(check int) (name ^ ": pages false shared") false_shared
        m.Runner.pages_false_shared;
      Alcotest.(check int) (name ^ ": mode switches") switches
        m.Runner.mode_switches)
    fast_path_pins

(* The flat fabric's central barrier lends each arriving node's clock to
   the manager by reference, and the writer-indexed interval logs walk
   only the writers that logged something.  Neither may change an
   output: pin the full measurement at 256 nodes, where most nodes write
   nothing (SOR) or every node writes (IS). *)
let central_pins =
  [
    ( "SOR", Config.Mw, 7841819670, 5550, 37549945, 2.618033988749895,
      [ ("barrier", (5100, 36618000)); ("diff", (450, 709945)) ] );
    ( "IS", Config.Wfs, 32965848590, 6123, 142641082, 10697.545982764903,
      [ ("barrier", (2550, 70022004)); ("lock", (1527, 69207976));
        ("own", (1022, 536550)); ("page", (1024, 2629632)) ] );
  ]

let test_central_barrier_pins () =
  List.iter
    (fun (app, protocol, time_ns, messages, wire_bytes, checksum, by_kind) ->
      let m = run ~app ~protocol ~nprocs:256 () in
      let name =
        Printf.sprintf "%s/%s/256 flat" app (Config.protocol_name protocol)
      in
      check_pinned name ~time_ns ~messages ~wire_bytes ~checksum ~by_kind m)
    central_pins

(* Per-node metadata is sized by the writers a node has heard from: pin
   the words reachable from the [Dsm.t] after a run (what perfbench's
   [heap.retained_mb] reads) on the tree fabric, measured on the release
   build.  Each bound keeps the relative slack it has carried so far:
   IS/WFS/256 81%, TSP/MW/256 39%, SOR/MW/1024 23%, Water/MW/256 and
   IS/WFS/512 10%.  Earlier steps (writer maps, record-free interval
   logs, shared epoch bases for the clocks, logs read off the clock,
   bitset copysets, diff tables holding only a node's own diffs) took
   IS/WFS/256 from 2,331,741 words to 665,425, TSP/MW/256 from 1,567,260
   to 690,902, Water/MW/256 from 5,614,718 to 3,722,190, IS/WFS/512 from
   3,061,377 to 2,119,333 and SOR/MW/1024 from 4,898,811 to 1,797,470.
   Keeping one writer -> seq map per page for the false-sharing check,
   with the clocks read from the interval store, in place of a writer ->
   slot map and two slot arrays (writers and clocks), took them to
   530,001, 650,454, 3,437,774, 1,586,341 and 1,585,502, and IS/SW/512,
   whose copies fill [reflected] from the whole clock, from 2,120,343 to
   1,587,351 (pinned with 10% slack).  Keeping a reflected view as a
   clock snapshot shared by reference plus the writer map above it, in
   place of a dense writer-map copy per fill and per reply, took
   IS/WFS/256 from 529,745 to 486,343, IS/WFS/512 from 1,585,829 to
   1,411,931 and IS/SW/512 from 1,586,839 to 1,340,279.  A view that
   records diffs only (no clock fills, a frozen writer map in place of
   the clock snapshot), with the copyset and rule-1 bitsets kept only
   by the adaptive protocols, took them to 463,175, 1,321,627 and
   1,317,013. *)
let footprint_pins =
  [
    ("IS", Config.Wfs, 256, 839_000);
    ("TSP", Config.Mw, 256, 904_000);
    ("Water", Config.Mw, 256, 3_782_000);
    ("IS", Config.Wfs, 512, 1_454_000);
    ("IS", Config.Sw, 512, 1_449_000);
    ("SOR", Config.Mw, 1024, 1_949_000);
  ]

let test_footprint_pins ~nprocs () =
  List.iter
    (fun (app, protocol, _, bound) ->
      let entry = Option.get (Registry.find app) in
      let t = Dsm.create (tree_tweak (Config.make ~protocol ~nprocs ())) in
      let program, _ = entry.Registry.instantiate Registry.Tiny t in
      ignore (Dsm.run t program);
      let words = Obj.reachable_words (Obj.repr t) in
      if words > bound then
        Alcotest.failf "%s/%s/%d tree: %d words reachable, bound %d" app
          (Config.protocol_name protocol) nprocs words bound)
    (List.filter (fun (_, _, n, _) -> n = nprocs) footprint_pins)

(* What a node that touched nothing retains in its interval log does
   not depend on the cluster size: the log holds no [nprocs]-sized
   array.  The log's own words are those its store and clock (shared
   with the rest of the cluster) do not reach; the store reaches the
   log's floor, not the log, so they include the log's record.  The
   node's diffs live on its page entries, of which it has none. *)
let test_untouched_node_size_free () =
  let words ~nprocs =
    let cfg = Config.make ~protocol:Config.Wfs ~nprocs () in
    let store = Adsm_dsm.Interval.Store.create ~nprocs in
    let node =
      Adsm_dsm.State.make_node ~cfg ~vc_epoch:(Adsm_dsm.Vc.Epoch.create ~nprocs)
        ~store ~id:1 ~total_pages:1
    in
    let reach x = Obj.reachable_words (Obj.repr x) in
    let shared = (store, node.Adsm_dsm.State.vc) in
    reach (node.Adsm_dsm.State.intervals, shared) - reach (shared, shared)
  in
  let log8 = words ~nprocs:8 and log512 = words ~nprocs:512 in
  Alcotest.(check bool) "the log owns its record" true (log8 > 0);
  Alcotest.(check int) "interval-log words, 8 vs 512 nodes" log8 log512

(* A node's interval log is a window onto the cluster's interval store
   and has no other form: an append that does not continue its writer's
   window raises, so a run that completes kept every log a window.  Run
   that where the logs are largest (IS/WFS on the 256-node tree, no GC)
   and where GC purges and trims them (SOR/MW at 8 nodes, default
   scale). *)
let test_logs_stay_windows () =
  List.iter
    (fun (name, tweak, app, protocol, nprocs, scale, gcs) ->
      let entry = Option.get (Registry.find app) in
      let t = Dsm.create (tweak (Config.make ~protocol ~nprocs ())) in
      let program, _ = entry.Registry.instantiate scale t in
      let r = Dsm.run t program in
      Alcotest.(check int) (name ^ ": GC rounds") gcs
        (Adsm_dsm.Stats.gc_count r.Dsm.stats))
    [
      ("IS/WFS/256 tree", tree_tweak, "IS", Config.Wfs, 256, Registry.Tiny, 0);
      ("SOR/MW/8", Fun.id, "SOR", Config.Mw, 8, Registry.Default, 7);
    ]

let () =
  Alcotest.run "scale"
    [
      ( "tree-fabric",
        [
          Alcotest.test_case "transparent for all apps" `Quick
            test_tree_transparent_all_apps;
          Alcotest.test_case "transparent for all protocols" `Quick
            test_tree_transparent_all_protocols;
          Alcotest.test_case "barrier message parity" `Quick
            test_barrier_message_parity;
          Alcotest.test_case "fanout invariance" `Quick test_fanout_invariance;
          Alcotest.test_case "tree gc round" `Quick test_tree_gc_round;
        ] );
      ( "locks",
        [
          Alcotest.test_case "sharded homes transparent" `Quick
            test_sharded_locks_transparent;
          Alcotest.test_case "fifo grants under any placement" `Quick
            test_sharded_lock_fifo;
          Alcotest.test_case "bad fanout and shard counts rejected" `Quick
            test_bad_sync_config_rejected;
        ] );
      ( "study",
        [
          Alcotest.test_case "smoke study to 256 nodes" `Slow test_smoke_study;
          Alcotest.test_case "byte identity at 512/1024 nodes" `Slow
            test_large_n_byte_identity;
          Alcotest.test_case "IS/Water WFS pinned at 256 nodes" `Slow
            test_notice_summary_pins;
          Alcotest.test_case "central barrier pinned at 256 nodes" `Slow
            test_central_barrier_pins;
          Alcotest.test_case "retained words bounded at 256 nodes" `Slow
            (test_footprint_pins ~nprocs:256);
          Alcotest.test_case "retained words bounded at 512 nodes" `Slow
            (test_footprint_pins ~nprocs:512);
          Alcotest.test_case "retained words bounded at 1024 nodes" `Slow
            (test_footprint_pins ~nprocs:1024);
          Alcotest.test_case "untouched node's log size-free"
            `Quick test_untouched_node_size_free;
          Alcotest.test_case "fault-free interval logs stay windows" `Slow
            test_logs_stay_windows;
        ] );
    ]
