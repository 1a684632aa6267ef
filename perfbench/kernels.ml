(* Layer primitives timed in isolation: the operations the cost model
   charges for (twin, diff create/apply) and the metadata operations whose
   host cost grows with the node count (vector clocks, interval logs,
   the event heap).  Vector-clock kernels run at [n] components, the
   workload's largest cluster. *)

module Vc = Adsm_dsm.Vc
module Interval = Adsm_dsm.Interval
module Diff = Adsm_dsm.Diff
module Page = Adsm_mem.Page
module Eheap = Adsm_sim.Eheap
module Rng = Adsm_sim.Rng

let page_pair ~modified =
  let twin = Page.create () in
  let rng = Rng.create 7L in
  for i = 0 to (Page.size / 8) - 1 do
    Page.set_f64 twin (8 * i) (Rng.float rng)
  done;
  let current = Page.copy twin in
  let slots = Page.size / 8 in
  let step = max 1 (slots / modified) in
  let k = ref 0 in
  while !k < slots do
    Page.set_f64 current (8 * !k) (float_of_int !k +. 0.5);
    k := !k + step
  done;
  (twin, current)

(* [(name, ops, f)]: [f ()] runs the operation [ops] times. *)
let all ~n =
  let twin_full, current_full = page_pair ~modified:512 in
  let twin_sparse, current_sparse = page_pair ~modified:8 in
  let full_diff = Diff.create ~twin:twin_full ~current:current_full () in
  let target = Page.create () in
  (* [lo] <= [hi] differ in one component, so [leq] and [merge_into] must
     walk the clock; [rebased] is two components ahead of an epoch base,
     the delta-encoding fast path of the tree barrier. *)
  let lo = Vc.zero ~nprocs:n in
  for i = 0 to n - 1 do
    Vc.set lo i i
  done;
  let hi = Vc.copy lo in
  Vc.set hi (n - 1) n;
  let merged = Vc.copy lo in
  let base = Vc.copy lo in
  let rebased = Vc.copy lo in
  Vc.rebase ~epoch:1 rebased ~base;
  Vc.set rebased 0 (2 * n);
  Vc.set rebased (n / 2) (2 * n);
  let log = Interval.Log.create () in
  for i = 1 to 4096 do
    let vc = Vc.zero ~nprocs:4 in
    Vc.set vc 0 i;
    Interval.Log.append log (Interval.make ~proc:0 ~vc ~notices:[])
  done;
  let probe = Vc.zero ~nprocs:4 in
  Vc.set probe 0 4090;
  let heap_keys = Array.init 64 (fun i -> (i * 37) mod 101) in
  let keep x = ignore (Sys.opaque_identity x) in
  [
    ("kernel.twin_ns", 1, fun () -> keep (Page.copy twin_full));
    ( "kernel.diff_create_full_ns",
      1,
      fun () -> keep (Diff.create ~twin:twin_full ~current:current_full ()) );
    ( "kernel.diff_create_sparse_ns",
      1,
      fun () ->
        keep (Diff.create ~twin:twin_sparse ~current:current_sparse ()) );
    ("kernel.diff_apply_ns", 1, fun () -> Diff.apply full_diff target);
    ("kernel.vc_leq_ns", 1, fun () -> keep (Vc.leq lo hi));
    ("kernel.vc_merge_ns", 1, fun () -> Vc.merge_into merged hi);
    ( "kernel.vc_delta_ns",
      1,
      fun () -> keep (Vc.delta_size_bytes ~since:base rebased) );
    ( "kernel.log_unseen_ns",
      1,
      fun () -> keep (Interval.Log.unseen_by probe ~proc:0 log []) );
    (* one push plus one pop, amortized over a 64-event heap *)
    ( "kernel.eheap_ns",
      64,
      fun () ->
        let h = Eheap.create () in
        Array.iteri (fun i k -> Eheap.push h ~time:k ~seq:i i) heap_keys;
        while not (Eheap.is_empty h) do
          ignore (Eheap.pop_min_exn h)
        done );
  ]

(* Median of [batches] batches, each sized to take about [batch_ns]. *)
let time ?(batches = 15) ?(batch_ns = 1_000_000) (_, ops, f) =
  let clock = Profile.now_ns in
  let reps =
    let t0 = clock () in
    let k = ref 0 in
    while clock () - t0 < batch_ns / 10 do
      f ();
      incr k
    done;
    max 1 (!k * 10)
  in
  let samples =
    Array.init batches (fun _ ->
        let t0 = clock () in
        for _ = 1 to reps do
          f ()
        done;
        float_of_int (clock () - t0) /. float_of_int (reps * ops))
  in
  Array.sort compare samples;
  samples.(batches / 2)
