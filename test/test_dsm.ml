(* End-to-end protocol tests: small access-pattern scenarios executed under
   all four protocols, checking both correctness (values read back) and
   protocol behaviour (twins, diffs, ownership traffic, adaptation). *)

module Config = Adsm_dsm.Config
module Dsm = Adsm_dsm.Dsm
module Stats = Adsm_dsm.Stats

let protocols = Config.all_protocols

let check_all_protocols ?(nprocs = 2) name scenario =
  List.iter
    (fun protocol ->
      let cfg = Config.make ~protocol ~nprocs () in
      scenario
        (Printf.sprintf "%s [%s]" name (Config.protocol_name protocol))
        cfg)
    protocols

(* ------------------------------------------------------------------ *)
(* Basic read/write correctness                                       *)
(* ------------------------------------------------------------------ *)

let test_single_proc_roundtrip () =
  check_all_protocols ~nprocs:1 "roundtrip" (fun name cfg ->
      let t = Dsm.create cfg in
      let a = Dsm.alloc_f64 t ~name:"a" ~len:1000 in
      let ok = ref true in
      let report =
        Dsm.run t (fun ctx ->
            for i = 0 to 999 do
              Dsm.f64_set ctx a i (float_of_int (i * i))
            done;
            for i = 0 to 999 do
              if Dsm.f64_get ctx a i <> float_of_int (i * i) then ok := false
            done)
      in
      Alcotest.(check bool) (name ^ " values") true !ok;
      Alcotest.(check int) (name ^ " no messages") 0 report.Dsm.messages)

let test_initial_zero () =
  check_all_protocols "initial zero" (fun name cfg ->
      let t = Dsm.create cfg in
      let a = Dsm.alloc_f64 t ~name:"a" ~len:100 in
      let sum = ref 1.0 in
      ignore
        (Dsm.run t (fun ctx ->
             if Dsm.me ctx = 0 then begin
               sum := 0.;
               for i = 0 to 99 do
                 sum := !sum +. Dsm.f64_get ctx a i
               done
             end));
      Alcotest.(check (float 0.)) (name ^ " zero-filled") 0. !sum)

(* ------------------------------------------------------------------ *)
(* Producer/consumer through a barrier                                *)
(* ------------------------------------------------------------------ *)

let test_producer_consumer () =
  check_all_protocols "producer-consumer" (fun name cfg ->
      let t = Dsm.create cfg in
      let a = Dsm.alloc_f64 t ~name:"a" ~len:512 in
      let seen = ref [] in
      ignore
        (Dsm.run t (fun ctx ->
             (* p0 produces a full page per iteration; p1 consumes. *)
             for iter = 1 to 3 do
               if Dsm.me ctx = 0 then
                 for i = 0 to 511 do
                   Dsm.f64_set ctx a i (float_of_int (iter * 1000 + i))
                 done;
               Dsm.barrier ctx;
               if Dsm.me ctx = 1 then begin
                 let v = Dsm.f64_get ctx a 100 in
                 seen := v :: !seen
               end;
               Dsm.barrier ctx
             done));
      Alcotest.(check (list (float 0.)))
        (name ^ " consumed values")
        [ 3100.; 2100.; 1100. ]
        !seen)

(* ------------------------------------------------------------------ *)
(* Migratory data through a lock                                      *)
(* ------------------------------------------------------------------ *)

let test_migratory_lock () =
  check_all_protocols ~nprocs:4 "migratory" (fun name cfg ->
      let t = Dsm.create cfg in
      let a = Dsm.alloc_f64 t ~name:"counter" ~len:8 in
      let l = Dsm.fresh_lock t in
      let final = ref 0. in
      ignore
        (Dsm.run t (fun ctx ->
             for _ = 1 to 5 do
               Dsm.lock ctx l;
               let v = Dsm.f64_get ctx a 0 in
               Dsm.f64_set ctx a 0 (v +. 1.);
               Dsm.unlock ctx l
             done;
             Dsm.barrier ctx;
             if Dsm.me ctx = 0 then final := Dsm.f64_get ctx a 0));
      Alcotest.(check (float 0.)) (name ^ " count") 20. !final)

(* ------------------------------------------------------------------ *)
(* Write-write false sharing                                          *)
(* ------------------------------------------------------------------ *)

(* Two processors repeatedly write disjoint halves of the same page
   between barriers. *)
let false_sharing_run cfg =
  let t = Dsm.create cfg in
  let a = Dsm.alloc_f64 t ~name:"page" ~len:512 in
  let ok = ref true in
  let report =
    Dsm.run t (fun ctx ->
        let me = Dsm.me ctx in
        let base = me * 256 in
        for iter = 1 to 4 do
          for i = base to base + 255 do
            Dsm.f64_set ctx a i (float_of_int ((iter * 10_000) + i))
          done;
          Dsm.barrier ctx;
          (* Everyone checks the whole page. *)
          for i = 0 to 511 do
            let expect = float_of_int ((iter * 10_000) + i) in
            if Dsm.f64_get ctx a i <> expect then ok := false
          done;
          Dsm.barrier ctx
        done)
  in
  (report, !ok)

let test_false_sharing_correct () =
  check_all_protocols "false sharing" (fun name cfg ->
      let _, ok = false_sharing_run cfg in
      Alcotest.(check bool) (name ^ " merged correctly") true ok)

let test_false_sharing_detected_by_wfs () =
  let cfg = Config.make ~protocol:Config.Wfs ~nprocs:2 () in
  let report, _ = false_sharing_run cfg in
  Alcotest.(check bool)
    "ownership refused at least once" true
    (Stats.ownership_refusals report.Dsm.stats >= 1);
  Alcotest.(check int) "page marked falsely shared" 1
    (Stats.pages_false_shared report.Dsm.stats);
  Alcotest.(check bool)
    "twins were created (MW mode engaged)" true
    (Stats.twins_created_total report.Dsm.stats > 0)

let test_no_false_sharing_under_wfs_means_no_twins () =
  (* Pure producer-consumer sharing: WFS should keep everything in SW mode
     and never twin or diff. *)
  let cfg = Config.make ~protocol:Config.Wfs ~nprocs:2 () in
  let t = Dsm.create cfg in
  let a = Dsm.alloc_f64 t ~name:"a" ~len:512 in
  let report =
    Dsm.run t (fun ctx ->
        for _ = 1 to 5 do
          if Dsm.me ctx = 0 then
            for i = 0 to 511 do
              Dsm.f64_set ctx a i 1.0
            done;
          Dsm.barrier ctx;
          if Dsm.me ctx = 1 then ignore (Dsm.f64_get ctx a 5);
          Dsm.barrier ctx
        done)
  in
  Alcotest.(check int) "no twins" 0 (Stats.twins_created_total report.Dsm.stats);
  Alcotest.(check int) "no diffs" 0 (Stats.diffs_created_total report.Dsm.stats)

let test_mw_always_twins () =
  (* The same producer-consumer pattern under MW must twin and diff. *)
  let cfg = Config.make ~protocol:Config.Mw ~nprocs:2 () in
  let t = Dsm.create cfg in
  let a = Dsm.alloc_f64 t ~name:"a" ~len:512 in
  let report =
    Dsm.run t (fun ctx ->
        for _ = 1 to 3 do
          if Dsm.me ctx = 0 then
            for i = 0 to 511 do
              Dsm.f64_set ctx a i 1.0
            done;
          Dsm.barrier ctx;
          if Dsm.me ctx = 1 then ignore (Dsm.f64_get ctx a 5);
          Dsm.barrier ctx
        done)
  in
  Alcotest.(check bool) "twins created" true
    (Stats.twins_created_total report.Dsm.stats >= 3);
  Alcotest.(check bool) "diffs created" true
    (Stats.diffs_created_total report.Dsm.stats >= 3)

(* ------------------------------------------------------------------ *)
(* SW protocol specifics                                              *)
(* ------------------------------------------------------------------ *)

let test_sw_ping_pong_is_correct () =
  (* False sharing under SW: slow (ping-pong) but correct. *)
  let cfg = Config.make ~protocol:Config.Sw ~nprocs:2 () in
  let report, ok = false_sharing_run cfg in
  Alcotest.(check bool) "correct" true ok;
  Alcotest.(check int) "SW never twins" 0
    (Stats.twins_created_total report.Dsm.stats);
  Alcotest.(check bool) "ownership moved" true
    (Stats.ownership_requests report.Dsm.stats > 0)

let test_adaptive_beats_sw_on_false_sharing () =
  (* Interleaved multi-pass writes to disjoint halves of one page: under SW
     the page ping-pongs on every pass; WFS refuses ownership once and then
     both writers proceed locally with twins and diffs. *)
  let time_for protocol =
    let cfg = Config.make ~protocol ~nprocs:2 () in
    let t = Dsm.create cfg in
    let a = Dsm.alloc_f64 t ~name:"page" ~len:512 in
    let report =
      Dsm.run t (fun ctx ->
          let base = Dsm.me ctx * 256 in
          for _iter = 1 to 3 do
            for pass = 1 to 5 do
              for i = base to base + 255 do
                Dsm.f64_set ctx a i (float_of_int (pass + i))
              done;
              (* computation between passes lets the writes interleave *)
              Dsm.compute ctx 300_000
            done;
            Dsm.barrier ctx
          done)
    in
    report.Dsm.time_ns
  in
  let sw = time_for Config.Sw and wfs = time_for Config.Wfs in
  Alcotest.(check bool)
    (Printf.sprintf "WFS (%d ns) faster than SW (%d ns) under false sharing"
       wfs sw)
    true (wfs < sw)

let test_sw_quantum_delays_transfer () =
  (* A freshly acquired page cannot be taken away before the ownership
     quantum expires: with a 10 ms quantum, a competing writer's transfer
     completes no earlier than 10 ms. *)
  let run quantum =
    let cfg = Config.make ~protocol:Config.Sw ~nprocs:2 () in
    let cfg = { cfg with Config.ownership_quantum_ns = quantum } in
    let t = Dsm.create cfg in
    let a = Dsm.alloc_f64 t ~name:"a" ~len:8 in
    let report =
      Dsm.run t (fun ctx ->
          (* Page is homed at p0, which grabs ownership immediately; p1's
             concurrent write forces a transfer. *)
          if Dsm.me ctx = 0 then Dsm.f64_set ctx a 0 1.0
          else Dsm.f64_set ctx a 1 2.0;
          Dsm.barrier ctx)
    in
    report.Dsm.time_ns
  in
  let slow = run 10_000_000 and fast = run 0 in
  Alcotest.(check bool)
    (Printf.sprintf "transfer waits for quantum (%d ns >= 10 ms)" slow)
    true (slow >= 10_000_000);
  Alcotest.(check bool)
    (Printf.sprintf "no quantum is faster (%d < %d)" fast slow)
    true
    (fast < slow)

(* ------------------------------------------------------------------ *)
(* Garbage collection                                                 *)
(* ------------------------------------------------------------------ *)

let test_mw_gc_triggers_and_preserves_data () =
  (* Rewrite several whole pages many times under MW with a tiny GC
     threshold: GC must run and data must survive. *)
  let cfg = Config.make ~protocol:Config.Mw ~nprocs:2 () in
  let cfg = { cfg with Config.gc_threshold_bytes = 16_384 } in
  let t = Dsm.create cfg in
  let npages = 8 in
  let a = Dsm.alloc_f64 t ~name:"a" ~len:(512 * npages) in
  let ok = ref true in
  let report =
    Dsm.run t (fun ctx ->
        let me = Dsm.me ctx in
        for iter = 1 to 6 do
          (* each proc overwrites its own pages completely *)
          for p = 0 to (npages / 2) - 1 do
            let page = (me * npages / 2) + p in
            for i = 0 to 511 do
              Dsm.f64_set ctx a ((page * 512) + i)
                (float_of_int ((iter * 100_000) + (page * 512) + i))
            done
          done;
          Dsm.barrier ctx;
          (* read it all back cross-wise *)
          let other_first = (1 - me) * npages / 2 * 512 in
          for i = 0 to (npages / 2 * 512) - 1 do
            let idx = other_first + i in
            let expect = float_of_int ((iter * 100_000) + idx) in
            if Dsm.f64_get ctx a idx <> expect then ok := false
          done;
          Dsm.barrier ctx
        done)
  in
  Alcotest.(check bool) "data correct across GC" true !ok;
  Alcotest.(check bool) "GC ran" true (Stats.gc_count report.Dsm.stats >= 1)

(* The byte account the GC trigger reads ([State.diff_bytes]) is the
   own-diff bytes on the node's entries plus its fetched-diff account.
   Each node checks every node's account after each barrier of a
   two-node MW run whose 16 KB threshold makes GC rounds run, and its
   own account reads 0 after a barrier that ran a round: its purge ran
   before the barrier returned.  HLRC flushes each diff to its home, so
   its accounts read 0 throughout. *)
let check_accounts where (cl : Adsm_dsm.State.cluster) ~zero =
  Array.iter
    (fun (n : Adsm_dsm.State.node) ->
      let held = ref 0 in
      Adsm_dsm.State.iter_entries n (fun e ->
          List.iter
            (fun (_, _, d) -> held := !held + Adsm_dsm.Diff.size_bytes d)
            e.Adsm_dsm.State.own_diffs);
      let account = Adsm_dsm.State.diff_bytes n in
      let what = Printf.sprintf "%s: node %d's account" where n.id in
      Alcotest.(check int) what (!held + n.Adsm_dsm.State.fetched_bytes)
        account;
      if zero n then Alcotest.(check int) (what ^ " after a purge") 0 account)
    cl.Adsm_dsm.State.nodes

let test_diff_account_at_every_barrier () =
  List.iter
    (fun (protocol, min_gcs) ->
      let cfg = Config.make ~protocol ~nprocs:2 () in
      let cfg = { cfg with Config.gc_threshold_bytes = 16_384 } in
      let t = Dsm.create cfg in
      let a = Dsm.alloc_f64 t ~name:"a" ~len:(512 * 8) in
      let checks = ref 0 in
      let report =
        Dsm.run t (fun ctx ->
            let me = Dsm.me ctx in
            let cl = Option.get (Dsm.cluster t) in
            let barrier step =
              let gcs = Stats.gc_count cl.Adsm_dsm.State.stats in
              Dsm.barrier ctx;
              let purged = Stats.gc_count cl.Adsm_dsm.State.stats > gcs in
              let where =
                Printf.sprintf "%s step %d, node %d"
                  (Config.protocol_name protocol) step me
              in
              check_accounts where cl ~zero:(fun n ->
                  protocol = Config.Hlrc || (purged && n.Adsm_dsm.State.id = me));
              incr checks
            in
            for iter = 1 to 6 do
              for i = 0 to (4 * 512) - 1 do
                Dsm.f64_set ctx a ((me * 4 * 512) + i)
                  (float_of_int ((iter * 100_000) + i))
              done;
              barrier (2 * iter);
              for i = 0 to (4 * 512) - 1 do
                ignore (Dsm.f64_get ctx a (((1 - me) * 4 * 512) + i))
              done;
              barrier ((2 * iter) + 1)
            done)
      in
      let name = Config.protocol_name protocol in
      Alcotest.(check int) (name ^ ": every barrier checked") 24 !checks;
      Alcotest.(check bool)
        (Printf.sprintf "%s: at least %d GC rounds" name min_gcs)
        true
        (Stats.gc_count report.Dsm.stats >= min_gcs))
    [ (Config.Mw, 2); (Config.Hlrc, 0) ]

(* ------------------------------------------------------------------ *)
(* WFS+WG specifics                                                   *)
(* ------------------------------------------------------------------ *)

let test_wg_switches_large_writes_to_sw () =
  (* Producer overwrites a whole page with values whose bytes genuinely
     change every iteration: WFS+WG must measure once (one diff, above the
     3 KB threshold) and then stop diffing, switching the page to SW. *)
  let cfg = Config.make ~protocol:Config.Wfs_wg ~nprocs:2 () in
  let t = Dsm.create cfg in
  let a = Dsm.alloc_f64 t ~name:"a" ~len:512 in
  let report =
    Dsm.run t (fun ctx ->
        for iter = 1 to 6 do
          if Dsm.me ctx = 0 then
            for i = 0 to 511 do
              Dsm.f64_set ctx a i (sqrt (float_of_int ((iter * 100_000) + i)))
            done;
          Dsm.barrier ctx;
          if Dsm.me ctx = 1 then ignore (Dsm.f64_get ctx a 0);
          Dsm.barrier ctx
        done)
  in
  let diffs = Stats.diffs_created_total report.Dsm.stats in
  Alcotest.(check bool)
    (Printf.sprintf "exactly one measurement diff (%d)" diffs)
    true (diffs = 1);
  Alcotest.(check bool) "measured diff above threshold" true
    (Stats.mean_diff_size report.Dsm.stats
    > float_of_int cfg.Config.wg_threshold_bytes)

let test_wg_keeps_small_writes_in_mw () =
  (* Producer writes 16 bytes per page per iteration: WFS+WG should keep
     using (cheap, small) diffs rather than whole-page transfers. *)
  let cfg = Config.make ~protocol:Config.Wfs_wg ~nprocs:2 () in
  let t = Dsm.create cfg in
  let a = Dsm.alloc_f64 t ~name:"a" ~len:512 in
  let report =
    Dsm.run t (fun ctx ->
        for iter = 1 to 6 do
          if Dsm.me ctx = 0 then begin
            Dsm.f64_set ctx a 0 (float_of_int iter);
            Dsm.f64_set ctx a 1 (float_of_int (iter + 1))
          end;
          Dsm.barrier ctx;
          if Dsm.me ctx = 1 then ignore (Dsm.f64_get ctx a 0);
          Dsm.barrier ctx
        done)
  in
  let diffs = Stats.diffs_created_total report.Dsm.stats in
  Alcotest.(check bool)
    (Printf.sprintf "keeps diffing (%d diffs)" diffs)
    true (diffs >= 4);
  Alcotest.(check (float 64.)) "diffs are small" 16.
    (Stats.mean_diff_size report.Dsm.stats)

(* ------------------------------------------------------------------ *)
(* Figure 3 live-diff series                                          *)
(* ------------------------------------------------------------------ *)

let test_live_diff_series_counts_stored_copies () =
  (* Producer/consumer on one page under MW: p0 creates one diff per
     iteration and p1 fetches each into its fetched-diff account.  Both
     sides count toward the live-diff population that GC eventually collects,
     so the Figure 3 series must sample at both kinds of event — the
     fetched copies used to be counted but never sampled, leaving the
     even plateaus invisible. *)
  let cfg = Config.make ~protocol:Config.Mw ~nprocs:2 () in
  let t = Dsm.create cfg in
  let a = Dsm.alloc_f64 t ~name:"a" ~len:512 in
  let report =
    Dsm.run t (fun ctx ->
        for iter = 1 to 3 do
          if Dsm.me ctx = 0 then Dsm.f64_set ctx a 0 (float_of_int iter);
          Dsm.barrier ctx;
          if Dsm.me ctx = 1 then ignore (Dsm.f64_get ctx a 0);
          Dsm.barrier ctx
        done)
  in
  Alcotest.(check int) "three diffs created" 3
    (Stats.diffs_created_total report.Dsm.stats);
  let series =
    Adsm_sim.Series.to_list (Stats.live_diff_series report.Dsm.stats)
  in
  let values =
    List.sort_uniq compare (List.map (fun (_, v) -> v) series)
  in
  Alcotest.(check (list (float 0.)))
    "series samples every creation and every stored copy"
    [ 1.; 2.; 3.; 4.; 5.; 6. ]
    values;
  let times = List.map fst series in
  Alcotest.(check bool) "timestamps nondecreasing" true
    (List.sort compare times = times)

(* ------------------------------------------------------------------ *)
(* Deadlock detection                                                 *)
(* ------------------------------------------------------------------ *)

(* The report names what each node's process awaits.  It is pinned from
   the bracketed list on: the simulated time before it is the run's. *)
let deadlock_report ~setup =
  let cfg = Config.make ~protocol:Config.Mw ~nprocs:2 () in
  let t = Dsm.create cfg in
  let _a = Dsm.alloc_f64 t ~name:"a" ~len:8 in
  let app = setup t in
  match Dsm.run t app with
  | _ -> Alcotest.fail "deadlock not reported"
  | exception Failure msg -> (
    match String.index_opt msg '[' with
    | Some i -> String.sub msg i (String.length msg - i)
    | None -> Alcotest.failf "deadlock report without waits: %s" msg)

let test_deadlock_detected () =
  (* only node 0 reaches the barrier *)
  let report =
    deadlock_report ~setup:(fun _ ctx -> if Dsm.me ctx = 0 then Dsm.barrier ctx)
  in
  Alcotest.(check string) "barrier deadlock"
    "[node 0: barrier; node 1: (running/none)]" report;
  (* node 0 holds the lock at a barrier node 1 never reaches: node 1 is
     blocked on the lock *)
  let report =
    deadlock_report ~setup:(fun t ->
        let l = Dsm.fresh_lock t in
        fun ctx ->
          if Dsm.me ctx = 0 then begin
            Dsm.lock ctx l;
            Dsm.barrier ctx;
            Dsm.unlock ctx l
          end
          else begin
            Dsm.compute ctx 1_000_000;
            Dsm.lock ctx l
          end)
  in
  Alcotest.(check string) "lock deadlock"
    "[node 0: barrier; node 1: lock:0]" report

(* ------------------------------------------------------------------ *)
(* API edge cases                                                     *)
(* ------------------------------------------------------------------ *)

let test_api_errors () =
  let cfg = Config.make ~protocol:Config.Mw ~nprocs:1 () in
  let t = Dsm.create cfg in
  Alcotest.check_raises "bad alloc"
    (Invalid_argument "Dsm.alloc_f64: len must be positive") (fun () ->
      ignore (Dsm.alloc_f64 t ~name:"x" ~len:0));
  let a = Dsm.alloc_f64 t ~name:"a" ~len:10 in
  let raised = ref 0 in
  ignore
    (Dsm.run t (fun ctx ->
         (try ignore (Dsm.f64_get ctx a 10)
          with Invalid_argument _ -> incr raised);
         (try Dsm.f64_set ctx a (-1) 0. with Invalid_argument _ -> incr raised);
         try Dsm.unlock ctx 0 with Invalid_argument _ -> incr raised));
  Alcotest.(check int) "all three rejected" 3 !raised

let test_lock_ids_are_independent () =
  (* Distinct locks never exclude each other. *)
  let cfg = Config.make ~protocol:Config.Mw ~nprocs:2 () in
  let t = Dsm.create cfg in
  let l0 = Dsm.fresh_lock t and l1 = Dsm.fresh_lock t in
  Alcotest.(check bool) "distinct ids" true (l0 <> l1);
  let entered = ref 0 in
  ignore
    (Dsm.run t (fun ctx ->
         let l = if Dsm.me ctx = 0 then l0 else l1 in
         Dsm.lock ctx l;
         incr entered;
         (* both hold "their" lock across a long window simultaneously *)
         Dsm.compute ctx 5_000_000;
         Alcotest.(check bool) "both inside" true (!entered >= 1);
         Dsm.unlock ctx l;
         Dsm.barrier ctx));
  Alcotest.(check int) "both entered" 2 !entered

(* ------------------------------------------------------------------ *)
(* Page pool: a recycled buffer is never shared                       *)
(* ------------------------------------------------------------------ *)

module State = Adsm_dsm.State
module Registry = Adsm_apps.Registry
module Page = Adsm_mem.Page
module Event = Adsm_trace.Event

(* Twins and the page copies messages carry come from the cluster's page
   pool and go back to it: a twin once its diff exists, a copy once its
   receiver installed it.  At every moment each live twin must be a
   buffer of its own, and no spare may be in the pool twice or still be
   some entry's twin or frame. *)
let check_no_alias where (cl : State.cluster) =
  let twins = ref [] and frames = ref [] in
  Array.iter
    (fun n ->
      State.iter_entries n (fun (e : State.entry) ->
          Option.iter (fun tw -> twins := tw :: !twins) e.State.twin;
          Option.iter (fun f -> frames := f :: !frames) e.State.data))
    cl.State.nodes;
  let rec distinct = function
    | [] -> true
    | x :: rest -> (not (List.exists (( == ) x) rest)) && distinct rest
  in
  if not (distinct !twins) then Alcotest.failf "%s: two entries share a twin" where;
  if not (distinct cl.State.spare_pages) then
    Alcotest.failf "%s: a buffer is in the pool twice" where;
  List.iter
    (fun spare ->
      if List.exists (( == ) spare) !twins then
        Alcotest.failf "%s: a spare buffer is a live twin" where;
      if List.exists (( == ) spare) !frames then
        Alcotest.failf "%s: a spare buffer is a frame" where)
    cl.State.spare_pages;
  List.iter
    (fun tw ->
      if List.exists (( == ) tw) !frames then
        Alcotest.failf "%s: a twin is a frame" where)
    !twins

let carries_pages = function
  | Adsm_net.Kind.Page | Adsm_net.Kind.Own -> true
  | _ -> false

(* Run [app] and check at every twin creation, diff creation and page or
   ownership message delivery (the moments a buffer changes hands), then
   once the run is over. *)
let run_checking_pool ?faults ~app ~protocol () =
  let app = Option.get (Registry.find app) in
  let cfg = Config.make ~protocol ~nprocs:4 () in
  let cfg = { cfg with Config.faults } in
  let t = Dsm.create cfg in
  let program, result = app.Registry.instantiate Registry.Tiny t in
  let where =
    Printf.sprintf "%s/%s%s" app.Registry.name
      (Config.protocol_name protocol)
      (if faults = None then "" else " with a crash")
  in
  let twin_checks = ref 0 and delivery_checks = ref 0 in
  let probe (s : Event.stamped) =
    match s.Event.event with
    | Event.Twin_create _ | Event.Diff_create _ ->
      incr twin_checks;
      check_no_alias where (Option.get (Dsm.cluster t))
    | Event.Msg_deliver { kind; _ } when carries_pages kind ->
      incr delivery_checks;
      check_no_alias where (Option.get (Dsm.cluster t))
    | _ -> ()
  in
  let tracer =
    Adsm_trace.Tracer.create
      [ { Adsm_trace.Sink.emit = probe; close = ignore } ]
  in
  let report = Dsm.run ~tracer t program in
  Adsm_trace.Tracer.close tracer;
  ignore (result ());
  let cl = Option.get (Dsm.cluster t) in
  check_no_alias (where ^ " after the run") cl;
  Alcotest.(check int) (where ^ ": no spare after the run") 0
    (List.length cl.State.spare_pages);
  if protocol = Config.Mw || protocol = Config.Hlrc then
    Alcotest.(check bool) (where ^ ": twins were checked") true
      (Stats.twins_created_total report.Dsm.stats > 0 && !twin_checks > 0);
  if protocol = Config.Sw || protocol = Config.Hlrc then
    Alcotest.(check bool) (where ^ ": page copies were checked") true
      (!delivery_checks > 0);
  report

let test_pool_no_alias () =
  List.iter
    (fun app ->
      List.iter
        (fun protocol -> ignore (run_checking_pool ~app ~protocol ()))
        [ Config.Mw; Config.Sw; Config.Wfs; Config.Wfs_wg; Config.Hlrc ])
    [ "SOR"; "IS"; "Water" ]

let test_pool_under_crash () =
  List.iter
    (fun app ->
      let base = run_checking_pool ~app ~protocol:Config.Mw () in
      let d = base.Dsm.time_ns in
      let faults =
        {
          Adsm_net.Fault.empty with
          Adsm_net.Fault.crashes =
            [ { Adsm_net.Fault.node = 1; at = d / 2; downtime = max 1 (d / 10) } ];
        }
      in
      let crashed = run_checking_pool ~faults ~app ~protocol:Config.Mw () in
      Alcotest.(check bool) (app ^ ": the crash ran a recovery round") true
        (List.mem_assoc "recover" crashed.Dsm.by_kind))
    [ "SOR"; "IS"; "Water" ]

(* A copy belongs to its message until it is installed.  Node 0 writes
   42 to a page it is home of; node 1 then reads the page, or writes
   another word of it first and reads after.  Just before each page or
   ownership message reaches node 1, the probe zeroes node 0's frames,
   standing in for the server writing the page after it sent its copy:
   node 1 must still read the 42 that was served. *)
let test_pool_copy_isolated () =
  List.iter
    (fun (protocol, write_first) ->
      let name =
        Printf.sprintf "%s %s" (Config.protocol_name protocol)
          (if write_first then "write miss" else "read miss")
      in
      let t = Dsm.create (Config.make ~protocol ~nprocs:2 ()) in
      let a = Dsm.alloc_f64 t ~name:"a" ~len:2 in
      let zeroed = ref 0 in
      let probe (s : Event.stamped) =
        match s.Event.event with
        | Event.Msg_deliver { kind; _ }
          when s.Event.node = 1 && carries_pages kind ->
          let cl = Option.get (Dsm.cluster t) in
          State.iter_entries cl.State.nodes.(0) (fun (e : State.entry) ->
              Option.iter
                (fun f ->
                  incr zeroed;
                  Page.blit ~src:(Page.create ()) ~dst:f)
                e.State.data)
        | _ -> ()
      in
      let tracer =
        Adsm_trace.Tracer.create
          [ { Adsm_trace.Sink.emit = probe; close = ignore } ]
      in
      let seen = ref nan in
      ignore
        (Dsm.run ~tracer t (fun ctx ->
             if Dsm.me ctx = 0 then Dsm.f64_set ctx a 0 42.;
             Dsm.barrier ctx;
             if Dsm.me ctx = 1 then begin
               if write_first then Dsm.f64_set ctx a 1 7.;
               seen := Dsm.f64_get ctx a 0
             end;
             Dsm.barrier ctx));
      Adsm_trace.Tracer.close tracer;
      Alcotest.(check bool) (name ^ ": a served frame was overwritten") true
        (!zeroed > 0);
      Alcotest.(check (float 0.)) (name ^ ": node 1 read the served copy") 42.
        !seen)
    [
      (Config.Sw, false);
      (Config.Sw, true);
      (Config.Wfs, true);
      (Config.Hlrc, false);
    ]

(* The pool is last in, first out: the buffer node 1 returns when it
   installs a page copy is the one node 0 blits its next copy into.
   Node 0 writes pages 0 and 2 (both homed on it, so SW serves them with
   no ownership traffic); node 1 reads them one after the other and then
   writes page 0, whose ownership transfer carries the third copy.
   Right after each access the head of the pool is the buffer its
   install returned. *)
let test_pool_reuses_returned_copy () =
  let t = Dsm.create (Config.make ~protocol:Config.Sw ~nprocs:2 ()) in
  let a = Dsm.alloc_f64 t ~name:"a" ~len:(3 * Page.size / 8) in
  let page2 = 2 * Page.size / 8 in
  let returned = ref [] in
  ignore
    (Dsm.run t (fun ctx ->
         if Dsm.me ctx = 0 then begin
           Dsm.f64_set ctx a 0 1.;
           Dsm.f64_set ctx a page2 2.
         end;
         Dsm.barrier ctx;
         if Dsm.me ctx = 1 then
           List.iter
             (fun access ->
               let pool () = (Option.get (Dsm.cluster t)).State.spare_pages in
               let before = List.length (pool ()) in
               access ();
               (* The server took a spare (or, with none, allocated one)
                  and the install gave it back. *)
               Alcotest.(check int) "pool size" (max 1 before)
                 (List.length (pool ()));
               returned := List.hd (pool ()) :: !returned)
             [
               (fun () ->
                 Alcotest.(check (float 0.)) "page 0" 1. (Dsm.f64_get ctx a 0));
               (fun () ->
                 Alcotest.(check (float 0.)) "page 2" 2.
                   (Dsm.f64_get ctx a page2));
               (fun () -> Dsm.f64_set ctx a 1 3.);
             ];
         Dsm.barrier ctx));
  match !returned with
  | [ third; second; first ] ->
    Alcotest.(check bool) "the page copies shared one buffer" true
      (second == first && third == first)
  | _ -> Alcotest.fail "expected three page copies"

let () =
  Alcotest.run "dsm"
    [
      ( "correctness",
        [
          Alcotest.test_case "single-proc roundtrip" `Quick
            test_single_proc_roundtrip;
          Alcotest.test_case "initial zero" `Quick test_initial_zero;
          Alcotest.test_case "producer-consumer" `Quick test_producer_consumer;
          Alcotest.test_case "migratory lock" `Quick test_migratory_lock;
          Alcotest.test_case "false sharing merges" `Quick
            test_false_sharing_correct;
        ] );
      ( "adaptation",
        [
          Alcotest.test_case "WFS detects false sharing" `Quick
            test_false_sharing_detected_by_wfs;
          Alcotest.test_case "WFS stays SW without FS" `Quick
            test_no_false_sharing_under_wfs_means_no_twins;
          Alcotest.test_case "MW always twins" `Quick test_mw_always_twins;
          Alcotest.test_case "WFS beats SW on FS" `Quick
            test_adaptive_beats_sw_on_false_sharing;
          Alcotest.test_case "WG large writes -> SW" `Quick
            test_wg_switches_large_writes_to_sw;
          Alcotest.test_case "WG small writes stay MW" `Quick
            test_wg_keeps_small_writes_in_mw;
        ] );
      ( "sw",
        [
          Alcotest.test_case "ping-pong correct" `Quick
            test_sw_ping_pong_is_correct;
          Alcotest.test_case "quantum delays transfer" `Quick
            test_sw_quantum_delays_transfer;
        ] );
      ( "gc",
        [
          Alcotest.test_case "MW GC preserves data" `Quick
            test_mw_gc_triggers_and_preserves_data;
          Alcotest.test_case "live-diff series counts stored copies" `Quick
            test_live_diff_series_counts_stored_copies;
          Alcotest.test_case "diff account at every barrier" `Quick
            test_diff_account_at_every_barrier;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "deadlock detected" `Quick test_deadlock_detected;
          Alcotest.test_case "API errors" `Quick test_api_errors;
          Alcotest.test_case "independent locks" `Quick
            test_lock_ids_are_independent;
        ] );
      ( "page-pool",
        [
          Alcotest.test_case "spares never alias" `Quick test_pool_no_alias;
          Alcotest.test_case "spares never alias: MW crash" `Quick
            test_pool_under_crash;
          Alcotest.test_case "a served copy is isolated" `Quick
            test_pool_copy_isolated;
          Alcotest.test_case "a returned copy is reused" `Quick
            test_pool_reuses_returned_copy;
        ] );
    ]
