(* Protocol-level tests: the ownership-refusal state machine, the MW->SW
   detection rules, SW forwarding and quantum behaviour, garbage-collection
   policies, and regression tests for the concurrency bugs found during
   development (barrier interval batching, transfer-receipt atomicity,
   dirty-owner committed versions, interval-closure reentrancy). *)

module Config = Adsm_dsm.Config
module Dsm = Adsm_dsm.Dsm
module Stats = Adsm_dsm.Stats
module Interval = Adsm_dsm.Interval
module Vc = Adsm_dsm.Vc
module State = Adsm_dsm.State
module Registry = Adsm_apps.Registry
module Runner = Adsm_harness.Runner

let make ?(nprocs = 2) ?(tweak = Fun.id) protocol =
  let cfg = tweak (Config.make ~protocol ~nprocs ()) in
  Dsm.create cfg

(* ------------------------------------------------------------------ *)
(* Ownership refusal (paper 3.1.1)                                    *)
(* ------------------------------------------------------------------ *)

(* Example 2 of Section 3.1.1: p0 owns and writes; p1 takes ownership
   (granted: no sharing yet); then p0 writes again WITHOUT synchronizing —
   its version number is stale, so its request must be refused and the
   page must go to MW mode. *)
let test_refusal_on_stale_version () =
  let t = make Config.Wfs in
  let a = Dsm.alloc_f64 t ~name:"page" ~len:512 in
  let report =
    Dsm.run t (fun ctx ->
        match Dsm.me ctx with
        | 0 ->
          Dsm.f64_set ctx a 0 1.0;
          (* p0 acquires ownership (v1) *)
          Dsm.barrier ctx;
          (* p1 takes ownership during this window *)
          Dsm.compute ctx 20_000_000;
          (* concurrent write: stale version -> refusal *)
          Dsm.f64_set ctx a 1 2.0;
          Dsm.barrier ctx
        | _ ->
          Dsm.barrier ctx;
          Dsm.f64_set ctx a 256 3.0;
          (* granted: v2 *)
          Dsm.compute ctx 40_000_000;
          Dsm.barrier ctx)
  in
  Alcotest.(check int) "exactly one refusal" 1
    (Stats.ownership_refusals report.Dsm.stats);
  Alcotest.(check bool) "page flagged falsely shared" true
    (Stats.pages_false_shared report.Dsm.stats = 1)

(* Migratory handoff: ownership is granted, never refused, and no twin is
   ever made (paper Figure 1, top right). *)
let test_migratory_grants_without_twins () =
  let t = make ~nprocs:4 Config.Wfs in
  let a = Dsm.alloc_f64 t ~name:"page" ~len:512 in
  let report =
    Dsm.run t (fun ctx ->
        for turn = 0 to 3 do
          if Dsm.me ctx = turn then begin
            ignore (Dsm.f64_get ctx a 0);
            Dsm.f64_set ctx a 0 (float_of_int turn)
          end;
          Dsm.barrier ctx
        done)
  in
  Alcotest.(check bool) "ownership moved" true
    (Stats.ownership_requests report.Dsm.stats >= 3);
  Alcotest.(check int) "no refusals" 0 (Stats.ownership_refusals report.Dsm.stats);
  Alcotest.(check int) "no twins" 0 (Stats.twins_created_total report.Dsm.stats)

(* Producer-consumer: ownership stays with the producer across repeated
   rewrites (local reacquisition bumps the version, paper Figure 1 top
   left: v1 then v2 from the same owner). *)
let test_producer_keeps_ownership () =
  let t = make Config.Wfs in
  let a = Dsm.alloc_f64 t ~name:"page" ~len:512 in
  let report =
    Dsm.run t (fun ctx ->
        for _ = 1 to 4 do
          if Dsm.me ctx = 0 then
            for i = 0 to 511 do
              Dsm.f64_set ctx a i 1.0
            done;
          Dsm.barrier ctx;
          if Dsm.me ctx = 1 then ignore (Dsm.f64_get ctx a 7);
          Dsm.barrier ctx
        done)
  in
  Alcotest.(check int) "no ownership traffic" 0
    (Stats.ownership_requests report.Dsm.stats);
  Alcotest.(check int) "no twins" 0 (Stats.twins_created_total report.Dsm.stats)

(* ------------------------------------------------------------------ *)
(* MW -> SW detection (paper 3.1.2)                                   *)
(* ------------------------------------------------------------------ *)

(* False sharing that STOPS: two writers share a page for a few
   iterations, then only one keeps writing.  The adaptive protocol must
   return the page to SW mode (diff creation stops). *)
let test_fs_stop_returns_to_sw () =
  let t = make Config.Wfs in
  let a = Dsm.alloc_f64 t ~name:"page" ~len:512 in
  let report =
    Dsm.run t (fun ctx ->
        let me = Dsm.me ctx in
        (* phase 1: genuine false sharing *)
        for _ = 1 to 3 do
          let base = me * 256 in
          for i = base to base + 255 do
            Dsm.f64_set ctx a i 1.0
          done;
          Dsm.barrier ctx
        done;
        (* phase 2: single writer only *)
        for iter = 1 to 8 do
          if me = 0 then
            for i = 0 to 511 do
              Dsm.f64_set ctx a i (float_of_int iter)
            done;
          Dsm.barrier ctx;
          if me = 1 then ignore (Dsm.f64_get ctx a 0);
          Dsm.barrier ctx
        done)
  in
  (* Phase 1 creates about 2 diffs per iteration (both writers); phase 2
     must stop creating them well before its 8 iterations are over (rule 3
     clears the flag at the barrier once one writer's notices dominate,
     then ownership resumes).  Allow phase 1's six diffs plus a couple of
     transition diffs. *)
  let diffs = Stats.diffs_created_total report.Dsm.stats in
  Alcotest.(check bool)
    (Printf.sprintf "diff creation stops (%d diffs total)" diffs)
    true (diffs <= 10)

(* Sustained false sharing must NOT flap between modes (regression: rules
   2/3 once ignored the node's own concurrent writes, so every barrier
   reset the flag and every iteration re-refused ownership). *)
let test_sustained_fs_does_not_flap () =
  let t = make Config.Wfs in
  let a = Dsm.alloc_f64 t ~name:"page" ~len:512 in
  let iterations = 8 in
  let report =
    Dsm.run t (fun ctx ->
        let base = Dsm.me ctx * 256 in
        for _ = 1 to iterations do
          for i = base to base + 255 do
            Dsm.f64_set ctx a i 1.0
          done;
          Dsm.barrier ctx
        done)
  in
  Alcotest.(check bool)
    (Printf.sprintf "at most a couple of refusals (%d)"
       (Stats.ownership_refusals report.Dsm.stats))
    true
    (Stats.ownership_refusals report.Dsm.stats <= 2);
  (* Once in MW mode, both writers diff every iteration. *)
  Alcotest.(check bool)
    (Printf.sprintf "diffing is steady (%d)" (Stats.diffs_created_total report.Dsm.stats))
    true
    (Stats.diffs_created_total report.Dsm.stats >= (2 * iterations) - 4)

(* ------------------------------------------------------------------ *)
(* WFS+WG measurement and threshold                                   *)
(* ------------------------------------------------------------------ *)

let wg_run ~bytes_per_iter =
  let t = make Config.Wfs_wg in
  let a = Dsm.alloc_f64 t ~name:"page" ~len:512 in
  let words = bytes_per_iter / 8 in
  let report =
    Dsm.run t (fun ctx ->
        for iter = 1 to 6 do
          if Dsm.me ctx = 0 then
            for i = 0 to words - 1 do
              Dsm.f64_set ctx a i (sqrt (float_of_int ((iter * 7919) + i)))
            done;
          Dsm.barrier ctx;
          if Dsm.me ctx = 1 then ignore (Dsm.f64_get ctx a 0);
          Dsm.barrier ctx
        done)
  in
  Stats.diffs_created_total report.Dsm.stats

let test_wg_threshold_behaviour () =
  (* Writes above the 3 KB threshold: exactly one measuring diff, then SW.
     Writes below it: a diff per iteration. *)
  let large = wg_run ~bytes_per_iter:4096 in
  let small = wg_run ~bytes_per_iter:1024 in
  Alcotest.(check int) "large writes: one measuring diff" 1 large;
  Alcotest.(check bool)
    (Printf.sprintf "small writes keep diffing (%d)" small)
    true (small >= 5)

(* ------------------------------------------------------------------ *)
(* SW protocol: forwarding chains and quantum                         *)
(* ------------------------------------------------------------------ *)

(* Ownership requests chase the grant chain through stale hints; with 4
   processors writing in turn, every transfer must eventually land
   (regression: forwards used to be lost in the transfer-receipt window,
   deadlocking the run). *)
let test_sw_forwarding_chain () =
  let t = make ~nprocs:4 Config.Sw in
  let a = Dsm.alloc_f64 t ~name:"page" ~len:512 in
  let final = ref 0. in
  ignore
    (Dsm.run t (fun ctx ->
         (* unsynchronized competing writes: maximal chain chasing *)
         for round = 1 to 5 do
           Dsm.f64_set ctx a (Dsm.me ctx) (float_of_int round);
           Dsm.compute ctx 300_000
         done;
         Dsm.barrier ctx;
         if Dsm.me ctx = 0 then final := Dsm.f64_get ctx a 3));
  Alcotest.(check (float 0.)) "last round visible" 5. !final

let test_sw_quantum_zero_vs_large () =
  let run quantum =
    let t =
      make ~tweak:(fun c -> { c with Config.ownership_quantum_ns = quantum })
        Config.Sw
    in
    let a = Dsm.alloc_f64 t ~name:"page" ~len:512 in
    let report =
      Dsm.run t (fun ctx ->
          if Dsm.me ctx = 0 then Dsm.f64_set ctx a 0 1.0
          else Dsm.f64_set ctx a 1 2.0;
          Dsm.barrier ctx)
    in
    report.Dsm.time_ns
  in
  Alcotest.(check bool) "larger quantum delays the competing writer" true
    (run 20_000_000 > run 0 + 15_000_000)

(* ------------------------------------------------------------------ *)
(* Garbage collection policies                                        *)
(* ------------------------------------------------------------------ *)

let gc_run protocol =
  let t =
    make ~nprocs:4
      ~tweak:(fun c -> { c with Config.gc_threshold_bytes = 32_768 })
      protocol
  in
  let pages = 8 in
  let a = Dsm.alloc_f64 t ~name:"data" ~len:(512 * pages) in
  let ok = ref true in
  let report =
    Dsm.run t (fun ctx ->
        let me = Dsm.me ctx and nprocs = Dsm.nprocs ctx in
        let mine = pages / nprocs in
        for iter = 1 to 8 do
          for k = 0 to mine - 1 do
            let p = (me * mine) + k in
            for i = 0 to 511 do
              Dsm.f64_set ctx a ((p * 512) + i)
                (sqrt (float_of_int ((iter * 1_000_000) + (p * 512) + i)))
            done
          done;
          Dsm.barrier ctx;
          (* read a remote page back and check it *)
          let p = (me + 1) mod nprocs * mine in
          let expect = sqrt (float_of_int ((iter * 1_000_000) + (p * 512) + 5)) in
          if Dsm.f64_get ctx a ((p * 512) + 5) <> expect then ok := false;
          Dsm.barrier ctx
        done)
  in
  (report, !ok)

let test_gc_under_all_protocols () =
  List.iter
    (fun protocol ->
      let report, ok = gc_run protocol in
      let name = Config.protocol_name protocol in
      Alcotest.(check bool) (name ^ " data survives GC") true ok;
      match protocol with
      | Config.Mw ->
        (* MW keeps diffing whole pages, so it must hit the threshold. *)
        Alcotest.(check bool) (name ^ " GC ran") true
          (Stats.gc_count report.Dsm.stats >= 1)
      | Config.Sw | Config.Wfs | Config.Wfs_wg | Config.Hlrc ->
        (* SW makes no diffs at all, the adaptive protocols keep these
           single-writer pages in SW mode, and HLRC flushes diffs to the
           home immediately (avoiding GC is the point); GC may or may not
           trigger. *)
        ())
    Config.all_protocols

let test_adaptive_gc_cheaper_than_mw () =
  (* The adaptive protocols validate only the last owner's copy at GC;
     MW validates every concurrent writer.  On a single-writer workload
     the adaptive GC must not be more expensive in messages. *)
  let msgs protocol =
    let report, _ = gc_run protocol in
    report.Dsm.messages
  in
  let mw = msgs Config.Mw and wfs = msgs Config.Wfs in
  Alcotest.(check bool)
    (Printf.sprintf "WFS (%d msgs) <= MW (%d msgs)" wfs mw)
    true (wfs <= mw)

(* ------------------------------------------------------------------ *)
(* Regression tests for specific bugs found during development        *)
(* ------------------------------------------------------------------ *)

(* Barrier arrivals must be merged in ONE causally-ordered batch: merging
   one node's vector clock before another node's intervals were applied
   used to drop those intervals' write notices (lost bucket updates). *)
let test_barrier_interval_batching () =
  let t = make ~nprocs:4 Config.Mw in
  let buckets = 512 in
  let a = Dsm.alloc_i32 t ~name:"buckets" ~len:buckets in
  let l = Dsm.fresh_lock t in
  let total = ref 0 in
  ignore
    (Dsm.run t (fun ctx ->
         for _ = 1 to 2 do
           Dsm.lock ctx l;
           for b = 0 to buckets - 1 do
             Dsm.i32_add ctx a b 1l
           done;
           Dsm.unlock ctx l;
           Dsm.barrier ctx
         done;
         if Dsm.me ctx = 0 then begin
           total := 0;
           for b = 0 to buckets - 1 do
             total := !total + Int32.to_int (Dsm.i32_get ctx a b)
           done
         end));
  Alcotest.(check int) "no lost updates through lock chains + barriers"
    (2 * 4 * buckets) !total

(* A dirty owner serving a page copy must claim only its COMMITTED
   version: claiming the in-progress one made the eventual owner notice
   look dominated, and the fetcher silently missed the rest of the
   interval's writes. *)
(* A batch reaches [apply_intervals] in timestamp order, as the interval
   store hands it out; a receiver does not sort, so a reversed batch
   fails before anything in it applies. *)
let test_out_of_order_batch_fails () =
  let t = make Config.Mw in
  ignore (Dsm.run t (fun ctx -> Dsm.barrier ctx));
  let cl = Option.get (Dsm.cluster t) in
  let node = cl.Adsm_dsm.State.nodes.(0) in
  let interval seq =
    let vc = Vc.zero ~nprocs:2 in
    Vc.set vc 1 seq;
    Interval.make ~proc:1 ~vc ~notices:[]
  in
  Alcotest.check_raises "reversed neighbours"
    (Failure
       "Proto: node 0 got writer 1's interval 2 before writer 1's interval 1, \
        out of timestamp order")
    (fun () ->
      Adsm_dsm.Lrc_core.apply_intervals cl node
        [ interval 2; interval 1 ]);
  Alcotest.(check int) "nothing applied" 0 (Vc.get node.Adsm_dsm.State.vc 1)

let test_dirty_owner_copy_versioning () =
  let t = make Config.Sw in
  let a = Dsm.alloc_f64 t ~name:"page" ~len:512 in
  let seen = ref (-1.) in
  ignore
    (Dsm.run t (fun ctx ->
         if Dsm.me ctx = 0 then begin
           (* long interval: write, and keep the page dirty while the
              reader fetches a copy mid-interval *)
           Dsm.f64_set ctx a 0 1.0;
           Dsm.compute ctx 30_000_000;
           Dsm.f64_set ctx a 1 2.0;
           Dsm.barrier ctx;
           Dsm.barrier ctx
         end
         else begin
           Dsm.compute ctx 10_000_000;
           ignore (Dsm.f64_get ctx a 0);
           (* mid-interval fetch *)
           Dsm.barrier ctx;
           (* after synchronization, the FULL interval must be visible *)
           seen := Dsm.f64_get ctx a 1;
           Dsm.barrier ctx
         end));
  Alcotest.(check (float 0.)) "post-sync read sees the whole interval" 2.
    !seen

(* Lock grants under way must not be granted twice when a forward arrives
   during the grant's interval-closure charge (reentrancy regression). *)
let test_lock_storm () =
  let t = make ~nprocs:8 Config.Mw in
  let a = Dsm.alloc_f64 t ~name:"counter" ~len:8 in
  let locks = List.init 4 (fun _ -> Dsm.fresh_lock t) in
  let final = ref 0. in
  ignore
    (Dsm.run t (fun ctx ->
         for round = 1 to 5 do
           List.iteri
             (fun k l ->
               if (round + k + Dsm.me ctx) mod 2 = 0 then begin
                 Dsm.lock ctx l;
                 Dsm.f64_set ctx a k (Dsm.f64_get ctx a k +. 1.);
                 Dsm.unlock ctx l
               end)
             locks
         done;
         Dsm.barrier ctx;
         if Dsm.me ctx = 0 then
           final :=
             List.fold_left
               (fun acc k -> acc +. Dsm.f64_get ctx a k)
               0.
               [ 0; 1; 2; 3 ]));
  (* every increment must survive: 8 procs x 5 rounds x 4 locks, half the
     (round,k,me) combinations hit *)
  Alcotest.(check (float 0.)) "all increments survive" 80. !final

(* ------------------------------------------------------------------ *)
(* Migratory-detection extension (paper Section 7)                    *)
(* ------------------------------------------------------------------ *)

let migratory_workload detection =
  let t =
    make ~nprocs:4
      ~tweak:(fun c -> { c with Config.migratory_detection = detection })
      Config.Wfs
  in
  let a = Dsm.alloc_f64 t ~name:"page" ~len:512 in
  let final = ref 0. in
  let report =
    Dsm.run t (fun ctx ->
        (* classic migratory: each processor in turn reads then updates *)
        for round = 1 to 6 do
          for turn = 0 to 3 do
            if Dsm.me ctx = turn then begin
              let v = Dsm.f64_get ctx a 0 in
              Dsm.f64_set ctx a 0 (v +. 1.);
              ignore round
            end;
            Dsm.barrier ctx
          done
        done;
        if Dsm.me ctx = 0 then final := Dsm.f64_get ctx a 0)
  in
  (report, !final)

let test_migratory_detection_saves_messages () =
  let off, v_off = migratory_workload false in
  let on, v_on = migratory_workload true in
  Alcotest.(check (float 0.)) "same result" v_off v_on;
  Alcotest.(check (float 0.)) "correct count" 24. v_on;
  Alcotest.(check bool) "upgrades happened" true
    (Stats.migratory_upgrades on.Dsm.stats > 0);
  Alcotest.(check int) "no upgrades when disabled" 0
    (Stats.migratory_upgrades off.Dsm.stats);
  (* With the upgrade, the write fault's ownership exchange disappears:
     page-related message traffic must drop. *)
  let page_own msgs =
    List.fold_left
      (fun acc (kind, (n, _)) ->
        if kind = "page" || kind = "own" then acc + n else acc)
      0 msgs
  in
  Alcotest.(check bool)
    (Printf.sprintf "fewer page+ownership messages (%d < %d)"
       (page_own on.Dsm.by_kind) (page_own off.Dsm.by_kind))
    true
    (page_own on.Dsm.by_kind < page_own off.Dsm.by_kind)

let test_migratory_detection_harmless_on_fs () =
  (* Detection must not break false-sharing adaptation. *)
  let t =
    make ~tweak:(fun c -> { c with Config.migratory_detection = true })
      Config.Wfs
  in
  let a = Dsm.alloc_f64 t ~name:"page" ~len:512 in
  let ok = ref true in
  ignore
    (Dsm.run t (fun ctx ->
         let base = Dsm.me ctx * 256 in
         for iter = 1 to 4 do
           for i = base to base + 255 do
             Dsm.f64_set ctx a i (float_of_int (iter + i))
           done;
           Dsm.barrier ctx;
           for i = 0 to 511 do
             if Dsm.f64_get ctx a i <> float_of_int (iter + i) then ok := false
           done;
           Dsm.barrier ctx
         done));
  Alcotest.(check bool) "false sharing still merges correctly" true !ok

(* ------------------------------------------------------------------ *)
(* HLRC extension                                                     *)
(* ------------------------------------------------------------------ *)

let test_hlrc_no_diff_store () =
  (* HLRC flushes every diff to the home immediately: the live diff store
     stays empty and GC never triggers, even with a tiny threshold. *)
  let t =
    make ~nprocs:4
      ~tweak:(fun c -> { c with Config.gc_threshold_bytes = 8_192 })
      Config.Hlrc
  in
  let a = Dsm.alloc_f64 t ~name:"data" ~len:2048 in
  let ok = ref true in
  let report =
    Dsm.run t (fun ctx ->
        let me = Dsm.me ctx in
        (* write a block homed at ANOTHER node, so the writes twin/diff
           and flush to the home *)
        let mine = (me + 1) mod 4 in
        for iter = 1 to 6 do
          for i = 0 to 511 do
            Dsm.f64_set ctx a ((mine * 512) + i)
              (sqrt (float_of_int ((iter * 4096) + i)))
          done;
          Dsm.barrier ctx;
          let q = (me + 2) mod 4 in
          let expect = sqrt (float_of_int ((iter * 4096) + 3)) in
          if Dsm.f64_get ctx a ((q * 512) + 3) <> expect then ok := false;
          Dsm.barrier ctx
        done)
  in
  Alcotest.(check bool) "reads correct" true !ok;
  Alcotest.(check int) "no GC" 0 (Stats.gc_count report.Dsm.stats);
  Alcotest.(check bool) "diffs were made and flushed" true
    (Stats.diffs_created_total report.Dsm.stats > 0)

let test_hlrc_false_sharing_merges () =
  let t = make Config.Hlrc in
  let a = Dsm.alloc_f64 t ~name:"page" ~len:512 in
  let ok = ref true in
  ignore
    (Dsm.run t (fun ctx ->
         let base = Dsm.me ctx * 256 in
         for iter = 1 to 4 do
           for i = base to base + 255 do
             Dsm.f64_set ctx a i (float_of_int (iter + i))
           done;
           Dsm.barrier ctx;
           for i = 0 to 511 do
             if Dsm.f64_get ctx a i <> float_of_int (iter + i) then ok := false
           done;
           Dsm.barrier ctx
         done));
  Alcotest.(check bool) "home merges concurrent diffs" true !ok

(* Paper Section 3.3: "with priority to the test for write-write false
   sharing" — a page that is BOTH falsely shared AND writes large diffs
   must stay in MW mode under WFS+WG (the granularity preference for SW
   yields to the false-sharing test). *)
let test_wg_fs_priority () =
  let t = make Config.Wfs_wg in
  let a = Dsm.alloc_f64 t ~name:"page" ~len:512 in
  let iterations = 6 in
  let report =
    Dsm.run t (fun ctx ->
        let base = Dsm.me ctx * 256 in
        for iter = 1 to iterations do
          (* each writer rewrites its half with fresh bytes: per-writer
             diffs are ~2 KB, but the PAGE is falsely shared *)
          for i = base to base + 255 do
            Dsm.f64_set ctx a i (sqrt (float_of_int ((iter * 100_000) + i)))
          done;
          Dsm.barrier ctx
        done)
  in
  (* staying in MW means both writers keep diffing every iteration *)
  Alcotest.(check bool)
    (Printf.sprintf "page stays MW under FS (%d diffs)"
       (Stats.diffs_created_total report.Dsm.stats))
    true
    (Stats.diffs_created_total report.Dsm.stats >= (2 * iterations) - 4);
  Alcotest.(check bool) "at most the initial refusal" true
    (Stats.ownership_refusals report.Dsm.stats <= 2)

(* HLRC: a fetch that arrives at the home before the needed diff must be
   deferred, not answered stale.  We force the window with a slow link by
   making the writer's diff large (slow to arrive) and the reader's fetch
   race it through the barrier release. *)
let test_hlrc_fetch_waits_for_diffs () =
  let t = make ~nprocs:4 Config.Hlrc in
  let a = Dsm.alloc_f64 t ~name:"data" ~len:2048 in
  let seen = ref [] in
  ignore
    (Dsm.run t (fun ctx ->
         let me = Dsm.me ctx in
         for iter = 1 to 4 do
           (* p1 writes a page homed at p2; p3 reads it immediately after
              the barrier, often before the diff has landed at p2. *)
           if me = 1 then
             for i = 0 to 511 do
               Dsm.f64_set ctx a (512 + i)
                 (float_of_int ((iter * 4096) + i))
             done;
           Dsm.barrier ctx;
           if me = 3 then
             seen := Dsm.f64_get ctx a (512 + 100) :: !seen;
           Dsm.barrier ctx
         done));
  Alcotest.(check (list (float 0.)))
    "every read sees the synchronized value"
    [ 16484.; 12388.; 8292.; 4196. ]
    !seen

(* The adaptive protocols' GC round at application scale: at a 64 KB
   threshold ILINK/WFS and Water/WFS+WG collect (8 and 4 rounds at 8
   nodes, default scale), and each must compute what the same cell
   computes at the default threshold, where it never collects. *)
let test_adaptive_gc_at_app_scale () =
  List.iter
    (fun (app, protocol) ->
      let name = app ^ "/" ^ Config.protocol_name protocol in
      let run tweak =
        Runner.run ~tweak
          ~app:(Option.get (Registry.find app))
          ~protocol ~nprocs:8 ~scale:Registry.Default ()
      in
      let base = run Fun.id in
      let low = run (fun c -> { c with Config.gc_threshold_bytes = 65_536 }) in
      Alcotest.(check bool) (name ^ ": GC ran") true (low.Runner.gc_runs >= 1);
      Alcotest.(check (float 0.)) (name ^ ": checksum") base.Runner.checksum
        low.Runner.checksum)
    [ ("ILINK", Config.Wfs); ("Water", Config.Wfs_wg) ]

(* ------------------------------------------------------------------ *)
(* The reflected view                                                 *)
(* ------------------------------------------------------------------ *)

(* A copy's reflected view records the diffs it holds, and nothing
   else.  SW makes no diffs, so an SW run leaves every entry's view
   empty on every node: at 8 nodes, and on a 64-node tree. *)
let test_sw_views_stay_empty () =
  List.iter
    (fun (app, nprocs, tweak) ->
      let t = Dsm.create (tweak (Config.make ~protocol:Config.Sw ~nprocs ())) in
      let program, _ =
        (Option.get (Registry.find app)).Registry.instantiate Registry.Tiny t
      in
      ignore (Dsm.run t program : Dsm.report);
      let held = ref 0 in
      Array.iter
        (fun node ->
          State.iter_entries node (fun e ->
              for q = 0 to nprocs - 1 do
                if State.reflected_get e q <> 0 then incr held
              done))
        (Option.get (Dsm.cluster t)).State.nodes;
      Alcotest.(check int)
        (Printf.sprintf "%s/SW/%d: writers in reflected views" app nprocs)
        0 !held)
    [
      ("Water", 8, Fun.id);
      ( "IS",
        64,
        Adsm_harness.Scaling.tweak_of_fabric
          Adsm_harness.Scaling.Tree_combining );
    ]

let () =
  Alcotest.run "proto"
    [
      ( "ownership-refusal",
        [
          Alcotest.test_case "stale version refused" `Quick
            test_refusal_on_stale_version;
          Alcotest.test_case "migratory grants" `Quick
            test_migratory_grants_without_twins;
          Alcotest.test_case "producer keeps ownership" `Quick
            test_producer_keeps_ownership;
        ] );
      ( "mode-detection",
        [
          Alcotest.test_case "FS stop returns to SW" `Quick
            test_fs_stop_returns_to_sw;
          Alcotest.test_case "sustained FS stable" `Quick
            test_sustained_fs_does_not_flap;
          Alcotest.test_case "WG threshold" `Quick test_wg_threshold_behaviour;
          Alcotest.test_case "FS has priority over WG" `Quick
            test_wg_fs_priority;
        ] );
      ( "sw-protocol",
        [
          Alcotest.test_case "forwarding chain" `Quick test_sw_forwarding_chain;
          Alcotest.test_case "quantum" `Quick test_sw_quantum_zero_vs_large;
        ] );
      ( "gc",
        [
          Alcotest.test_case "all protocols survive GC" `Quick
            test_gc_under_all_protocols;
          Alcotest.test_case "adaptive GC cheaper" `Quick
            test_adaptive_gc_cheaper_than_mw;
          Alcotest.test_case "adaptive GC at application scale" `Quick
            test_adaptive_gc_at_app_scale;
        ] );
      ( "reflected-view",
        [
          Alcotest.test_case "an SW run leaves every view empty" `Quick
            test_sw_views_stay_empty;
        ] );
      ( "regressions",
        [
          Alcotest.test_case "out-of-order batch fails" `Quick
            test_out_of_order_batch_fails;
          Alcotest.test_case "barrier interval batching" `Quick
            test_barrier_interval_batching;
          Alcotest.test_case "dirty-owner copy versioning" `Quick
            test_dirty_owner_copy_versioning;
          Alcotest.test_case "lock storm" `Quick test_lock_storm;
        ] );
      ( "migratory-extension",
        [
          Alcotest.test_case "saves messages" `Quick
            test_migratory_detection_saves_messages;
          Alcotest.test_case "harmless on FS" `Quick
            test_migratory_detection_harmless_on_fs;
        ] );
      ( "hlrc-extension",
        [
          Alcotest.test_case "no diff store, no GC" `Quick
            test_hlrc_no_diff_store;
          Alcotest.test_case "false sharing merges" `Quick
            test_hlrc_false_sharing_merges;
          Alcotest.test_case "fetch waits for diffs" `Quick
            test_hlrc_fetch_waits_for_diffs;
        ] );
    ]
