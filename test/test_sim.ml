(* Unit and property tests for the discrete-event simulation substrate. *)

module Eheap = Adsm_sim.Eheap
module Engine = Adsm_sim.Engine
module Proc = Adsm_sim.Proc
module Rng = Adsm_sim.Rng
module Series = Adsm_sim.Series

(* ------------------------------------------------------------------ *)
(* Eheap                                                              *)
(* ------------------------------------------------------------------ *)

let test_heap_empty () =
  let h = Eheap.create () in
  Alcotest.(check bool) "empty" true (Eheap.is_empty h);
  Alcotest.(check int) "length" 0 (Eheap.length h);
  Alcotest.(check bool) "pop none" true (Eheap.pop_min h = None);
  Alcotest.(check bool) "peek none" true (Eheap.peek_time h = None)

let test_heap_order () =
  let h = Eheap.create () in
  let input = [ (5, 0, "a"); (1, 1, "b"); (3, 2, "c"); (1, 3, "d"); (0, 4, "e") ] in
  List.iter (fun (time, seq, v) -> Eheap.push h ~time ~seq v) input;
  let rec drain acc =
    match Eheap.pop_min h with
    | None -> List.rev acc
    | Some (_, _, v) -> drain (v :: acc)
  in
  Alcotest.(check (list string)) "sorted by (time,seq)" [ "e"; "b"; "d"; "c"; "a" ]
    (drain [])

let test_heap_fifo_ties () =
  let h = Eheap.create () in
  for i = 0 to 99 do
    Eheap.push h ~time:7 ~seq:i i
  done;
  let out = ref [] in
  let rec drain () =
    match Eheap.pop_min h with
    | None -> ()
    | Some (_, _, v) ->
      out := v :: !out;
      drain ()
  in
  drain ();
  Alcotest.(check (list int)) "ties pop in insertion order"
    (List.init 100 (fun i -> i))
    (List.rev !out)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in nondecreasing time order" ~count:200
    QCheck.(list (pair small_nat small_nat))
    (fun pairs ->
      let h = Eheap.create () in
      List.iteri (fun seq (time, v) -> Eheap.push h ~time ~seq v) pairs;
      let rec drain last =
        match Eheap.pop_min h with
        | None -> true
        | Some (time, _, _) -> time >= last && drain time
      in
      drain min_int)

(* Model-based check under randomized push/pop interleavings: the heap
   must agree, element for element, with a sorted-list reference — not
   just on final drain order, but at every intermediate pop, with
   pending pushes mixed in.  Times are drawn from a tiny range so equal
   keys are the common case and tie-stability is exercised hard. *)
let test_heap_random_interleaving () =
  let r = Rng.create 2024L in
  let h = Eheap.create () in
  let model = ref [] in
  let seq = ref 0 in
  let insert_model entry =
    let rec go = function
      | [] -> [ entry ]
      | e :: rest -> if entry < e then entry :: e :: rest else e :: go rest
    in
    model := go !model
  in
  let expect_check = Alcotest.(triple int int int) in
  for step = 1 to 5_000 do
    if !model = [] || Rng.int r 3 < 2 then begin
      let time = Rng.int r 40 in
      Eheap.push h ~time ~seq:!seq step;
      insert_model (time, !seq, step);
      incr seq
    end
    else begin
      match (Eheap.pop_min h, !model) with
      | Some got, expect :: rest ->
        model := rest;
        Alcotest.(check expect_check) "pop matches model" expect got
      | None, _ -> Alcotest.fail "heap empty while model holds elements"
      | Some _, [] -> Alcotest.fail "heap holds elements while model empty"
    end
  done;
  List.iter
    (fun expect ->
      match Eheap.pop_min h with
      | Some got -> Alcotest.(check expect_check) "drain matches model" expect got
      | None -> Alcotest.fail "heap drained before model")
    !model;
  Alcotest.(check bool) "both empty" true (Eheap.is_empty h)

(* A popped value must become unreachable from the heap: the old
   representation left it live in the vacated slot until a later push
   overwrote it, pinning arbitrarily large closures for the rest of the
   run.  Track a popped block with a weak pointer and force a major GC;
   the helpers are [@inline never] so no stack slot keeps it alive. *)
let[@inline never] push_tracked h w ~time ~seq =
  let v = ref 42 in
  Weak.set w 0 (Some v);
  Eheap.push h ~time ~seq v

let[@inline never] pop_and_drop h =
  match Eheap.pop_min h with Some _ -> () | None -> ()

let check_collected name w =
  Gc.full_major ();
  Gc.full_major ();
  Alcotest.(check bool) name true (Weak.get w 0 = None)

let test_heap_pop_releases_value () =
  (* Pop with entries remaining: the last entry moves into the root and
     its old slot is vacated. *)
  let h = Eheap.create () in
  let w = Weak.create 1 in
  push_tracked h w ~time:1 ~seq:0;
  Eheap.push h ~time:2 ~seq:1 (ref 0);
  Eheap.push h ~time:3 ~seq:2 (ref 0);
  pop_and_drop h;
  check_collected "popped value collected (non-empty heap)" w;
  (* Pop to empty: slot 0 itself is the vacated slot. *)
  let h = Eheap.create () in
  let w = Weak.create 1 in
  push_tracked h w ~time:1 ~seq:0;
  pop_and_drop h;
  check_collected "popped value collected (emptied heap)" w

let test_heap_exn_variants () =
  let h = Eheap.create () in
  Alcotest.check_raises "min_time_exn on empty"
    (Invalid_argument "Eheap.min_time_exn: empty heap") (fun () ->
      ignore (Eheap.min_time_exn h));
  Alcotest.check_raises "pop_min_exn on empty"
    (Invalid_argument "Eheap.pop_min_exn: empty heap") (fun () ->
      ignore (Eheap.pop_min_exn h : int));
  Eheap.push h ~time:9 ~seq:1 111;
  Eheap.push h ~time:4 ~seq:0 222;
  Alcotest.(check int) "min_time_exn" 4 (Eheap.min_time_exn h);
  Alcotest.(check int) "pop_min_exn pops min" 222 (Eheap.pop_min_exn h);
  Alcotest.(check int) "then next" 111 (Eheap.pop_min_exn h);
  Alcotest.(check bool) "empty after" true (Eheap.is_empty h)

(* Insertion order of equal keys must survive pops happening in between
   the pushes, not only a push-everything-then-drain pattern. *)
let test_heap_ties_stable_under_interleaving () =
  let h = Eheap.create () in
  let seq = ref 0 in
  let push v =
    Eheap.push h ~time:3 ~seq:!seq v;
    incr seq
  in
  let pop () =
    match Eheap.pop_min h with
    | Some (_, _, v) -> v
    | None -> Alcotest.fail "unexpected empty heap"
  in
  push 0;
  push 1;
  push 2;
  Alcotest.(check int) "first tie" 0 (pop ());
  push 3;
  push 4;
  Alcotest.(check int) "second tie" 1 (pop ());
  Alcotest.(check int) "third tie" 2 (pop ());
  push 5;
  Alcotest.(check (list int)) "remaining ties in insertion order" [ 3; 4; 5 ]
    (List.init 3 (fun _ -> pop ()));
  Alcotest.(check bool) "empty" true (Eheap.is_empty h)

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

let test_engine_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~delay:30 (fun () -> log := (30, Engine.now e) :: !log);
  Engine.schedule e ~delay:10 (fun () -> log := (10, Engine.now e) :: !log);
  Engine.schedule e ~delay:20 (fun () ->
      log := (20, Engine.now e) :: !log;
      (* nested scheduling from within an event *)
      Engine.schedule e ~delay:5 (fun () -> log := (25, Engine.now e) :: !log));
  let final = Engine.run e in
  Alcotest.(check int) "final time" 30 final;
  Alcotest.(check (list (pair int int)))
    "events ran at their times"
    [ (10, 10); (20, 20); (25, 25); (30, 30) ]
    (List.rev !log)

let test_engine_negative_delay () =
  let e = Engine.create () in
  Alcotest.check_raises "negative delay rejected"
    (Invalid_argument "Engine.schedule: negative delay") (fun () ->
      Engine.schedule e ~delay:(-1) (fun () -> ()))

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 0 to 9 do
    Engine.schedule e ~delay:5 (fun () -> log := i :: !log)
  done;
  ignore (Engine.run e);
  Alcotest.(check (list int)) "fifo at equal time" (List.init 10 Fun.id)
    (List.rev !log)

let test_engine_counts_events () =
  let e = Engine.create () in
  for _ = 1 to 17 do
    Engine.schedule e ~delay:1 (fun () -> ())
  done;
  ignore (Engine.run e);
  Alcotest.(check int) "executed" 17 (Engine.events_executed e)

(* A pure hash (splitmix-style) so every decision of the handler model
   below depends only on (seed, id, k), never on execution order. *)
let model_hash seed id k =
  let z = Int64.of_int ((seed * 0x9E3779B9) + (id * 0x85EBCA6B) + (k * 0xC2B2AE35)) in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.to_int (Int64.shift_right_logical (Int64.logxor z (Int64.shift_right_logical z 31)) 2)

(* Seeded handler workload: 8 roots, each handler logs [(time, id)] and
   spawns two children.  Times are coarse multiples of 250 ns and delays
   may be 0, so same-instant ties are the common case.  Every event's
   time depends only on its ancestry, never on execution order, so the
   set of [(time, id)] pairs is fixed by [seed] alone.  Returns the
   final time, the executed-event count and the execution log. *)
let handler_model ?schedule_seed seed =
  let e = Engine.create ?schedule_seed () in
  let log = ref [] in
  let rec handler id depth () =
    log := (Engine.now e, id) :: !log;
    if depth < 4 then begin
      let kid k = (id * 7) + k + 1 in
      Engine.schedule e
        ~delay:(model_hash seed id 1 mod 4 * 250)
        (handler (kid 1) (depth + 1));
      Engine.schedule e
        ~delay:(model_hash seed id 3 mod 4 * 250)
        (handler (kid 2) (depth + 1))
    end
  in
  for root = 0 to 7 do
    Engine.schedule_at e ~time:(model_hash seed root 0 mod 4 * 250)
      (handler root 0)
  done;
  let final = Engine.run e in
  (final, Engine.events_executed e, List.rev !log)

(* The seeded handler model replayed without the engine: a plain list
   of pending [(time, seq, id, depth)] from which the least (time, seq)
   runs next, [seq] counting schedules in issue order.  This is the
   sequential order the engine's heap must merge its events into. *)
let sequential_model seed =
  let seq = ref 0 in
  let push pending time id depth =
    let ev = (time, !seq, id, depth) in
    incr seq;
    ev :: pending
  in
  let pending = ref [] in
  for root = 0 to 7 do
    pending := push !pending (model_hash seed root 0 mod 4 * 250) root 0
  done;
  let log = ref [] and now = ref 0 and count = ref 0 in
  let rec loop () =
    match List.sort compare !pending with
    | [] -> ()
    | ((time, _, id, depth) as ev) :: _ ->
        pending := List.filter (fun x -> x != ev) !pending;
        now := time;
        incr count;
        log := (time, id) :: !log;
        if depth < 4 then begin
          let kid k = (id * 7) + k + 1 in
          pending :=
            push !pending (time + (model_hash seed id 1 mod 4 * 250)) (kid 1)
              (depth + 1);
          pending :=
            push !pending (time + (model_hash seed id 3 mod 4 * 250)) (kid 2)
              (depth + 1)
        end;
        loop ()
  in
  loop ();
  (!now, !count, List.rev !log)

let test_engine_seeded_merge_model () =
  (* Without fuzzing the engine runs the seeded model in exactly the
     sequential (time, issue order) order; with fuzzing it keeps the
     sequential run's clock and event count. *)
  for seed = 0 to 9 do
    let ft', ev', log' = sequential_model seed in
    let name what = Printf.sprintf "seed %d: %s" seed what in
    let ft, ev, log = handler_model seed in
    Alcotest.(check int) (name "final time") ft' ft;
    Alcotest.(check int) (name "events executed") ev' ev;
    Alcotest.(check bool) (name "execution log") true (log = log');
    let ft, ev, _ = handler_model ~schedule_seed:(seed + 100) seed in
    Alcotest.(check int) (name "fuzzed final time") ft' ft;
    Alcotest.(check int) (name "fuzzed events executed") ev' ev
  done

let test_engine_schedule_fuzz () =
  (* [schedule_seed] may reorder events that share an instant and
     nothing else: a fuzzed run is deterministic per seed, keeps the
     unfuzzed run's clock and event count, and executes the same ids at
     every instant, in non-decreasing time. *)
  let by_instant log = List.sort compare log in
  let rec non_decreasing = function
    | (t1, _) :: ((t2, _) :: _ as rest) -> t1 <= t2 && non_decreasing rest
    | [ _ ] | [] -> true
  in
  let reordered = ref false in
  for seed = 0 to 9 do
    let ft, ev, log = handler_model seed in
    let schedule_seed = seed + 100 in
    let name what = Printf.sprintf "seed %d, fuzz %d: %s" seed schedule_seed what in
    let ft', ev', log' = handler_model ~schedule_seed seed in
    let _, _, again = handler_model ~schedule_seed seed in
    Alcotest.(check bool) (name "same seed, same log") true (log' = again);
    Alcotest.(check int) (name "final time") ft ft';
    Alcotest.(check int) (name "events executed") ev ev';
    Alcotest.(check bool) (name "time non-decreasing") true
      (non_decreasing log');
    Alcotest.(check bool) (name "same ids per instant") true
      (by_instant log = by_instant log');
    if log <> log' then reordered := true
  done;
  Alcotest.(check bool) "some seed reorders a tie" true !reordered

let test_time_units () =
  Alcotest.(check int) "us" 3_000 (Engine.us 3);
  Alcotest.(check int) "ms" 2_000_000 (Engine.ms 2);
  Alcotest.(check (float 1e-9)) "us_of_ns" 1.5 (Engine.us_of_ns 1_500)

(* ------------------------------------------------------------------ *)
(* Proc                                                               *)
(* ------------------------------------------------------------------ *)

let test_proc_sleep () =
  let e = Engine.create () in
  let finished_at = ref (-1) in
  Proc.spawn e (fun () ->
      Proc.sleep e 100;
      Proc.sleep e 250;
      finished_at := Engine.now e);
  ignore (Engine.run e);
  Alcotest.(check int) "slept 350" 350 !finished_at

let test_proc_interleaving () =
  let e = Engine.create () in
  let log = ref [] in
  let say tag = log := (tag, Engine.now e) :: !log in
  Proc.spawn e (fun () ->
      say "a0";
      Proc.sleep e 10;
      say "a1";
      Proc.sleep e 20;
      say "a2");
  Proc.spawn e (fun () ->
      say "b0";
      Proc.sleep e 15;
      say "b1");
  ignore (Engine.run e);
  Alcotest.(check (list (pair string int)))
    "two processes interleave deterministically"
    [ ("a0", 0); ("b0", 0); ("a1", 10); ("b1", 15); ("a2", 30) ]
    (List.rev !log)

let test_ivar_fill_then_await () =
  let e = Engine.create () in
  let iv = Proc.Ivar.create () in
  let got = ref 0 in
  Proc.Ivar.fill e iv 42;
  Proc.spawn e (fun () -> got := Proc.Ivar.await iv);
  ignore (Engine.run e);
  Alcotest.(check int) "value" 42 !got

let test_ivar_await_then_fill () =
  let e = Engine.create () in
  let iv = Proc.Ivar.create () in
  let got = ref (0, -1) in
  Proc.spawn e (fun () ->
      let v = Proc.Ivar.await iv in
      got := (v, Engine.now e));
  Proc.spawn e (fun () ->
      Proc.sleep e 500;
      Proc.Ivar.fill e iv 7);
  ignore (Engine.run e);
  Alcotest.(check (pair int int)) "resumed with value at fill time" (7, 500) !got

let test_ivar_double_fill () =
  let e = Engine.create () in
  let iv = Proc.Ivar.create () in
  Proc.Ivar.fill e iv 1;
  Alcotest.check_raises "double fill" (Failure "Ivar.fill: already filled")
    (fun () -> Proc.Ivar.fill e iv 2)

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.next64 a) (Rng.next64 b)
  done

let test_rng_replay () =
  let r = Rng.create 1234567L in
  let first = Rng.next64 r in
  let second = Rng.next64 r in
  Alcotest.(check bool) "distinct" true (first <> second);
  let r' = Rng.create 1234567L in
  Alcotest.(check int64) "replay first" first (Rng.next64 r');
  Alcotest.(check int64) "replay second" second (Rng.next64 r')

let prop_rng_int_in_bounds =
  QCheck.Test.make ~name:"Rng.int stays in bounds" ~count:500
    QCheck.(pair int64 (int_range 1 1000))
    (fun (seed, bound) ->
      let r = Rng.create seed in
      let v = Rng.int r bound in
      v >= 0 && v < bound)

let prop_rng_float_unit_interval =
  QCheck.Test.make ~name:"Rng.float in [0,1)" ~count:500 QCheck.int64
    (fun seed ->
      let r = Rng.create seed in
      let v = Rng.float r in
      v >= 0. && v < 1.)

let test_rng_split_independent () =
  let r = Rng.create 99L in
  let s = Rng.split r in
  let a = Rng.next64 r and b = Rng.next64 s in
  Alcotest.(check bool) "split streams differ" true (a <> b)

(* Splitting is itself deterministic: the same construction sequence
   yields the same parent AND child streams, and drawing from one must
   not perturb the other. *)
let test_rng_split_replay () =
  let mk () =
    let r = Rng.create 5L in
    ignore (Rng.next64 r);
    let s = Rng.split r in
    (r, s)
  in
  let r1, s1 = mk () in
  let r2, s2 = mk () in
  (* Interleave differently on purpose: drain the child of one pair
     first, the parent of the other first. *)
  let s1_draws = List.init 50 (fun _ -> Rng.next64 s1) in
  let r1_draws = List.init 50 (fun _ -> Rng.next64 r1) in
  let r2_draws = List.init 50 (fun _ -> Rng.next64 r2) in
  let s2_draws = List.init 50 (fun _ -> Rng.next64 s2) in
  Alcotest.(check (list int64)) "parent stream replays" r1_draws r2_draws;
  Alcotest.(check (list int64)) "child stream replays" s1_draws s2_draws

(* The per-node streams the DSM derives (seed + id * 7919, as in
   State.make_node) must be pairwise distinct essentially everywhere —
   a correlated pair would silently synchronize "random" workloads. *)
let test_rng_derived_streams_independent () =
  let streams =
    Array.init 8 (fun id ->
        Rng.create (Int64.add 0x5EEDL (Int64.of_int (id * 7919))))
  in
  let draws = Array.map (fun r -> Array.init 200 (fun _ -> Rng.next64 r)) streams in
  for i = 0 to 7 do
    for j = i + 1 to 7 do
      let equal = ref 0 in
      for k = 0 to 199 do
        if draws.(i).(k) = draws.(j).(k) then incr equal
      done;
      Alcotest.(check bool)
        (Printf.sprintf "streams %d and %d nearly disjoint" i j)
        true (!equal <= 1)
    done
  done

let prop_rng_seeds_give_distinct_streams =
  QCheck.Test.make ~name:"distinct seeds give distinct streams" ~count:200
    QCheck.(pair int64 int64)
    (fun (a, b) ->
      QCheck.assume (a <> b);
      let ra = Rng.create a and rb = Rng.create b in
      let da = List.init 8 (fun _ -> Rng.next64 ra) in
      let db = List.init 8 (fun _ -> Rng.next64 rb) in
      da <> db)

let test_rng_shuffle_permutation () =
  let r = Rng.create 7L in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "shuffle is a permutation"
    (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Series                                                             *)
(* ------------------------------------------------------------------ *)

let test_series_basic () =
  let s = Series.create ~name:"diffs" in
  Alcotest.(check string) "name" "diffs" (Series.name s);
  Series.record s ~time:0 ~value:1.;
  Series.record s ~time:10 ~value:5.;
  Series.record s ~time:20 ~value:3.;
  Alcotest.(check int) "length" 3 (Series.length s);
  Alcotest.(check (float 0.)) "max" 5. (Series.max_value s);
  Alcotest.(check (list (pair int (float 0.))))
    "to_list"
    [ (0, 1.); (10, 5.); (20, 3.) ]
    (Series.to_list s)

let test_series_value_at () =
  let s = Series.create ~name:"x" in
  Series.record s ~time:100 ~value:1.;
  Series.record s ~time:200 ~value:2.;
  Series.record s ~time:300 ~value:3.;
  Alcotest.(check (float 0.)) "before first" 0. (Series.value_at s ~time:50);
  Alcotest.(check (float 0.)) "at sample" 1. (Series.value_at s ~time:100);
  Alcotest.(check (float 0.)) "between" 2. (Series.value_at s ~time:250);
  Alcotest.(check (float 0.)) "after last" 3. (Series.value_at s ~time:1000)

let test_series_resample () =
  let s = Series.create ~name:"x" in
  Series.record s ~time:0 ~value:0.;
  Series.record s ~time:50 ~value:10.;
  let r = Series.resample s ~buckets:3 ~t_end:100 in
  Alcotest.(check (array (float 0.))) "resampled" [| 0.; 10.; 10. |] r

let prop_series_value_at_matches_scan =
  QCheck.Test.make ~name:"Series.value_at agrees with linear scan" ~count:200
    QCheck.(pair (list (pair small_nat (float_bound_exclusive 100.))) small_nat)
    (fun (samples, query) ->
      let samples = List.sort (fun (a, _) (b, _) -> compare a b) samples in
      let s = Series.create ~name:"p" in
      List.iter (fun (time, value) -> Series.record s ~time ~value) samples;
      let expected =
        List.fold_left
          (fun acc (t, v) -> if t <= query then v else acc)
          0. samples
      in
      Series.value_at s ~time:query = expected)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sim"
    [
      ( "eheap",
        [
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "order" `Quick test_heap_order;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "random interleaving vs model" `Quick
            test_heap_random_interleaving;
          Alcotest.test_case "popped values not retained" `Quick
            test_heap_pop_releases_value;
          Alcotest.test_case "exn variants" `Quick test_heap_exn_variants;
          Alcotest.test_case "ties stable under interleaved pops" `Quick
            test_heap_ties_stable_under_interleaving;
          qt prop_heap_sorts;
        ] );
      ( "engine",
        [
          Alcotest.test_case "order" `Quick test_engine_order;
          Alcotest.test_case "negative delay" `Quick test_engine_negative_delay;
          Alcotest.test_case "same-time fifo" `Quick test_engine_same_time_fifo;
          Alcotest.test_case "event count" `Quick test_engine_counts_events;
          Alcotest.test_case "time units" `Quick test_time_units;
          Alcotest.test_case "seeded merge model = sequential" `Quick
            test_engine_seeded_merge_model;
          Alcotest.test_case "schedule fuzz reorders only ties" `Quick
            test_engine_schedule_fuzz;
        ] );
      ( "proc",
        [
          Alcotest.test_case "sleep" `Quick test_proc_sleep;
          Alcotest.test_case "interleaving" `Quick test_proc_interleaving;
          Alcotest.test_case "ivar fill-await" `Quick test_ivar_fill_then_await;
          Alcotest.test_case "ivar await-fill" `Quick test_ivar_await_then_fill;
          Alcotest.test_case "ivar double fill" `Quick test_ivar_double_fill;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "replay" `Quick test_rng_replay;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "split replay" `Quick test_rng_split_replay;
          Alcotest.test_case "derived streams independent" `Quick
            test_rng_derived_streams_independent;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
          qt prop_rng_int_in_bounds;
          qt prop_rng_float_unit_interval;
          qt prop_rng_seeds_give_distinct_streams;
        ] );
      ( "series",
        [
          Alcotest.test_case "basic" `Quick test_series_basic;
          Alcotest.test_case "value_at" `Quick test_series_value_at;
          Alcotest.test_case "resample" `Quick test_series_resample;
          qt prop_series_value_at_matches_scan;
        ] );
    ]
