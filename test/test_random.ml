(* Randomized cross-protocol equivalence.

   For random (but race-free) shared-memory programs, all four protocols
   and every processor count must produce bit-identical results — the
   protocols may only differ in cost, never in outcome.

   Program shape (deterministic from a seed): a few pages of shared
   float64s; ownership of indices is partitioned round-robin so concurrent
   writes never touch the same word but freely falsely-share pages.  Each
   phase: every processor overwrites a random subset of its own indices
   (values derived from the seed), then a barrier, then every processor
   reads a random subset of ALL indices into a running checksum, then a
   barrier.  Locks guard a shared accumulator to exercise the migratory
   path too. *)

module Config = Adsm_dsm.Config
module Dsm = Adsm_dsm.Dsm
module Rng = Adsm_sim.Rng

let total_len = 1536 (* three pages of f64 *)

let run_program ?(write_ranges = false) ?schedule_fuzz ~seed ~protocol ~nprocs ~phases () =
  let cfg = Config.make ~protocol ~nprocs () in
  (* a tiny GC threshold exercises garbage collection in the mix *)
  let cfg =
    {
      cfg with
      Config.gc_threshold_bytes = 24_576;
      write_ranges;
      schedule_fuzz;
    }
  in
  let t = Dsm.create cfg in
  let data = Dsm.alloc_f64 t ~name:"data" ~len:total_len in
  let acc = Dsm.alloc_f64 t ~name:"acc" ~len:8 in
  let l = Dsm.fresh_lock t in
  let results = Array.make nprocs 0. in
  let report =
    Dsm.run t (fun ctx ->
        let me = Dsm.me ctx in
        let rng = Rng.create (Int64.of_int ((seed * 7919) + 13)) in
        let checksum = ref 0. in
        for phase = 1 to phases do
          (* Every processor draws the same stream and filters to its own
             actions, so the workload is identical across nprocs... for a
             fixed virtual processor count. *)
          let virtual_procs = 4 in
          for v = 0 to virtual_procs - 1 do
            let writes = 8 + Rng.int rng 24 in
            for _ = 1 to writes do
              let slot = Rng.int rng (total_len / virtual_procs) in
              let idx = (slot * virtual_procs) + v in
              let value =
                float_of_int ((phase * 100_000) + idx)
                /. float_of_int (1 + Rng.int rng 97)
              in
              if v mod nprocs = me then Dsm.f64_set ctx data idx value
            done;
            (* occasional lock-guarded accumulation (migratory) *)
            if Rng.int rng 3 = 0 then begin
              let inc = float_of_int (Rng.int rng 1000) in
              if v mod nprocs = me then begin
                Dsm.lock ctx l;
                Dsm.f64_set ctx acc 0 (Dsm.f64_get ctx acc 0 +. inc);
                Dsm.unlock ctx l
              end
            end
          done;
          Dsm.barrier ctx;
          (* reads: same index stream on every processor *)
          let reads = 16 + Rng.int rng 32 in
          for _ = 1 to reads do
            let idx = Rng.int rng total_len in
            checksum :=
              (!checksum *. 0.99) +. Dsm.f64_get ctx data idx
          done;
          checksum := !checksum +. Dsm.f64_get ctx acc 0;
          Dsm.barrier ctx
        done;
        results.(me) <- !checksum)
  in
  (* every processor read the same stream, so all checksums must agree *)
  Array.iter
    (fun r ->
      if r <> results.(0) then
        Alcotest.failf "intra-run checksum divergence (%h vs %h)" r
          results.(0))
    results;
  (results.(0), report)

let prop_cross_protocol_equivalence =
  QCheck.Test.make ~name:"all protocols compute identical results" ~count:12
    QCheck.(int_bound 100_000)
    (fun seed ->
      let reference, _ =
        run_program ~seed ~protocol:Config.Sw ~nprocs:1 ~phases:3 ()
      in
      List.for_all
        (fun protocol ->
          List.for_all
            (fun nprocs ->
              List.for_all
                (fun write_ranges ->
                  let value, _ =
                    run_program ~write_ranges ~seed ~protocol ~nprocs
                      ~phases:3 ()
                  in
                  value = reference)
                [ false; true ])
            [ 2; 4 ])
        Config.extended_protocols)

(* Schedule fuzzing: permuting the firing order of same-instant events
   explores different legal interleavings of protocol handlers and
   processes.  The application result must be identical under every
   schedule (timings and message counts may differ). *)
let prop_schedule_fuzz_equivalence =
  QCheck.Test.make ~name:"results are schedule-independent" ~count:8
    QCheck.(pair (int_bound 100_000) (int_bound 1_000_000))
    (fun (seed, fuzz) ->
      let reference, _ =
        run_program ~seed ~protocol:Config.Sw ~nprocs:1 ~phases:2 ()
      in
      List.for_all
        (fun protocol ->
          let value, _ =
            run_program ~schedule_fuzz:fuzz ~seed ~protocol ~nprocs:4
              ~phases:2 ()
          in
          value = reference)
        Config.extended_protocols)

let prop_runs_are_deterministic =
  QCheck.Test.make ~name:"identical configurations replay bit-for-bit"
    ~count:6
    QCheck.(int_bound 100_000)
    (fun seed ->
      let run () =
        let value, report =
          run_program ~seed ~protocol:Config.Wfs ~nprocs:4 ~phases:2 ()
        in
        (value, report.Dsm.time_ns, report.Dsm.messages)
      in
      run () = run ())

let () =
  Alcotest.run "random"
    [
      ( "equivalence",
        [
          QCheck_alcotest.to_alcotest prop_cross_protocol_equivalence;
          QCheck_alcotest.to_alcotest prop_schedule_fuzz_equivalence;
          QCheck_alcotest.to_alcotest prop_runs_are_deterministic;
        ] );
    ]
