(* Tests for the domain work pool and the parallel suite runner.

   The load-bearing property is determinism: [Pool.map ~jobs:n] must be
   indistinguishable from [List.map] for every [n], and a full
   [Experiments.collect ~jobs] suite must reproduce the sequential suite
   field for field — that test doubles as the domain-safety audit of
   [Runner.run] (any cross-run mutable global would show up as a
   diverging counter under contention). *)

module Pool = Adsm_harness.Pool
module Runner = Adsm_harness.Runner
module Experiments = Adsm_harness.Experiments
module Registry = Adsm_apps.Registry
module Config = Adsm_dsm.Config

(* --- Pool.map ------------------------------------------------------ *)

let test_ordering () =
  let items = List.init 100 Fun.id in
  let f x = (x * x) - (3 * x) in
  let expect = List.map f items in
  Alcotest.(check (list int)) "jobs=1 is List.map" expect (Pool.map ~jobs:1 f items);
  Alcotest.(check (list int)) "jobs=8 same order" expect (Pool.map ~jobs:8 f items)

let test_empty_and_single () =
  Alcotest.(check (list int)) "empty" [] (Pool.map ~jobs:8 (fun x -> x) []);
  Alcotest.(check (list string)) "singleton" [ "a" ]
    (Pool.map ~jobs:8 String.lowercase_ascii [ "A" ])

let test_invalid_jobs () =
  Alcotest.check_raises "jobs=0 rejected"
    (Invalid_argument "Pool.map: jobs must be >= 1") (fun () ->
      ignore (Pool.map ~jobs:0 Fun.id [ 1 ]))

exception Boom of int

let test_exception_propagation () =
  (* Two tasks fail; the pool must join every worker (no hang, no orphan
     domain) and re-raise the failure of the lowest-indexed task. *)
  let items = List.init 50 Fun.id in
  match
    Pool.map ~jobs:4 (fun x -> if x = 7 || x = 23 then raise (Boom x) else x) items
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "lowest failing index" 7 i

let test_exception_does_not_poison_pool () =
  (* A failed map leaves no shared state behind: the next map works. *)
  (try ignore (Pool.map ~jobs:4 (fun _ -> raise Exit) [ 1; 2; 3 ])
   with Exit -> ());
  Alcotest.(check (list int)) "pool reusable after failure" [ 2; 4; 6 ]
    (Pool.map ~jobs:4 (fun x -> 2 * x) [ 1; 2; 3 ])

let test_oversubscription () =
  (* Far more tasks than workers, and more workers than cores: every
     task runs exactly once and order is preserved. *)
  let n = 200 in
  let hits = Array.make n 0 in
  let results =
    Pool.map ~jobs:8
      (fun i ->
        hits.(i) <- hits.(i) + 1;
        i)
      (List.init n Fun.id)
  in
  Alcotest.(check (list int)) "order preserved" (List.init n Fun.id) results;
  Alcotest.(check bool) "each task ran exactly once" true
    (Array.for_all (fun h -> h = 1) hits)

let test_weighted_dispatch () =
  (* Heaviest-first dispatch changes only the start order: results are
     still [List.map], every item runs once, and the failure re-raised
     is the lowest-indexed one even when a heavier item failed first. *)
  let n = 60 in
  let items = List.init n Fun.id in
  let weight x = (x * 37) mod 11 in
  let hits = Array.init n (fun _ -> Atomic.make 0) in
  let f x =
    Atomic.incr hits.(x);
    (x * x) + 1
  in
  Alcotest.(check (list int)) "weighted jobs=4 is List.map"
    (List.map (fun x -> (x * x) + 1) items)
    (Pool.map ~jobs:4 ~weight f items);
  Alcotest.(check bool) "each item ran exactly once" true
    (Array.for_all (fun h -> Atomic.get h = 1) hits);
  (* Item 9 weighs 3 and item 40 weighs 6, so 40 starts first. *)
  match
    Pool.map ~jobs:4 ~weight
      (fun x -> if x = 9 || x = 40 then raise (Boom x) else x)
      items
  with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom i -> Alcotest.(check int) "lowest failing index" 9 i

let test_default_jobs () =
  Alcotest.(check bool) "default_jobs >= 1" true (Pool.default_jobs () >= 1)

(* --- parallel suite = sequential suite ----------------------------- *)

let cell_name (m : Runner.measurement) =
  Printf.sprintf "%s/%s/%dp" m.Runner.app
    (Config.protocol_name m.Runner.protocol)
    m.Runner.nprocs

(* Field-for-field equality of two measurements, with a per-field check
   so a divergence names the field instead of just "records differ". *)
let check_measurement (a : Runner.measurement) (b : Runner.measurement) =
  let name = cell_name a in
  let ci field get = Alcotest.(check int) (name ^ " " ^ field) (get a) (get b) in
  Alcotest.(check string) (name ^ " app") a.Runner.app b.Runner.app;
  Alcotest.(check bool) (name ^ " protocol") true (a.Runner.protocol = b.Runner.protocol);
  ci "nprocs" (fun m -> m.Runner.nprocs);
  ci "time_ns" (fun m -> m.Runner.time_ns);
  ci "messages" (fun m -> m.Runner.messages);
  ci "data_bytes" (fun m -> m.Runner.data_bytes);
  ci "wire_bytes" (fun m -> m.Runner.wire_bytes);
  ci "own_requests" (fun m -> m.Runner.own_requests);
  ci "own_refusals" (fun m -> m.Runner.own_refusals);
  ci "twins_created" (fun m -> m.Runner.twins_created);
  ci "twin_bytes" (fun m -> m.Runner.twin_bytes);
  ci "diffs_created" (fun m -> m.Runner.diffs_created);
  ci "diff_bytes" (fun m -> m.Runner.diff_bytes);
  ci "gc_runs" (fun m -> m.Runner.gc_runs);
  ci "mode_switches" (fun m -> m.Runner.mode_switches);
  ci "shared_pages" (fun m -> m.Runner.shared_pages);
  ci "pages_written" (fun m -> m.Runner.pages_written);
  ci "pages_false_shared" (fun m -> m.Runner.pages_false_shared);
  ci "read_faults" (fun m -> m.Runner.read_faults);
  ci "write_faults" (fun m -> m.Runner.write_faults);
  ci "events" (fun m -> m.Runner.events);
  ci "compute_ns" (fun m -> m.Runner.compute_ns);
  ci "fault_time_ns" (fun m -> m.Runner.fault_time_ns);
  ci "lock_time_ns" (fun m -> m.Runner.lock_time_ns);
  ci "barrier_time_ns" (fun m -> m.Runner.barrier_time_ns);
  Alcotest.(check (float 0.)) (name ^ " mean_diff_bytes") a.Runner.mean_diff_bytes
    b.Runner.mean_diff_bytes;
  Alcotest.(check (float 0.)) (name ^ " checksum") a.Runner.checksum
    b.Runner.checksum;
  Alcotest.(check bool) (name ^ " live_diff_series") true
    (Adsm_sim.Series.to_list a.Runner.live_diff_series
    = Adsm_sim.Series.to_list b.Runner.live_diff_series)

let test_parallel_suite_identical () =
  (* The full grid — every application under all four protocols plus
     the sequential baselines — run twice: plain and on 8 domains. *)
  let seq = Experiments.collect ~scale:Registry.Tiny ~nprocs:8 () in
  let par = Experiments.collect ~scale:Registry.Tiny ~nprocs:8 ~jobs:8 () in
  Alcotest.(check int) "same cell count"
    (List.length seq.Experiments.measurements)
    (List.length par.Experiments.measurements);
  List.iter2 check_measurement seq.Experiments.measurements
    par.Experiments.measurements

let test_runner_inside_worker_domain () =
  (* A single Runner.run executed inside a pool worker must match the
     same run from the main domain (no domain-local state leaks). *)
  let app =
    match Registry.find "IS" with Some a -> a | None -> Alcotest.fail "no IS"
  in
  let go () =
    Runner.run ~app ~protocol:Config.Wfs ~nprocs:4 ~scale:Registry.Tiny ()
  in
  let main = go () in
  match Pool.map ~jobs:2 (fun () -> go ()) [ (); () ] with
  | [ a; b ] ->
    check_measurement main a;
    check_measurement main b
  | _ -> Alcotest.fail "expected two results"

let () =
  Alcotest.run "pool"
    [
      ( "map",
        [
          Alcotest.test_case "deterministic ordering" `Quick test_ordering;
          Alcotest.test_case "empty and singleton" `Quick test_empty_and_single;
          Alcotest.test_case "invalid jobs" `Quick test_invalid_jobs;
          Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation;
          Alcotest.test_case "reusable after failure" `Quick
            test_exception_does_not_poison_pool;
          Alcotest.test_case "oversubscription" `Quick test_oversubscription;
          Alcotest.test_case "weighted dispatch" `Quick test_weighted_dispatch;
          Alcotest.test_case "default_jobs" `Quick test_default_jobs;
        ] );
      ( "suite",
        [
          Alcotest.test_case "runner in worker domain" `Quick
            test_runner_inside_worker_domain;
          Alcotest.test_case "parallel suite = sequential suite" `Slow
            test_parallel_suite_identical;
        ] );
    ]
