(* Bulk-run accessors are sugar over word accesses: for every protocol,
   a program using the f64 and i32 get/set/fold runs must be
   indistinguishable — values, fault counts, events, per-kind message
   counters, diff bytes — from the same program written with per-word
   accessors.  The scenarios deliberately include runs that straddle a
   fault mid-run and runs starting exactly at a page boundary. *)

module Config = Adsm_dsm.Config
module Dsm = Adsm_dsm.Dsm
module Stats = Adsm_dsm.Stats
module Diff = Adsm_dsm.Diff
module State = Adsm_dsm.State
module Page = Adsm_mem.Page
module Recorder = Adsm_check.Recorder

let protocols = Config.all_protocols

(* Everything observable about a run that the bulk rewrite must not
   move. *)
type summary = {
  time_ns : int;
  messages : int;
  payload_bytes : int;
  wire_bytes : int;
  by_kind : (string * (int * int)) list;
  events : int;
  read_faults : int;
  write_faults : int;
  twins : int;
  diffs : int;
  diff_bytes : int;
  v1 : float;
  v2 : float;
}

let summarize (r : Dsm.report) ~v1 ~v2 =
  {
    time_ns = r.Dsm.time_ns;
    messages = r.Dsm.messages;
    payload_bytes = r.Dsm.payload_bytes;
    wire_bytes = r.Dsm.wire_bytes;
    by_kind = r.Dsm.by_kind;
    events = r.Dsm.events;
    read_faults = Stats.read_faults r.Dsm.stats;
    write_faults = Stats.write_faults r.Dsm.stats;
    twins = Stats.twins_created_total r.Dsm.stats;
    diffs = Stats.diffs_created_total r.Dsm.stats;
    diff_bytes = Stats.diff_bytes_total r.Dsm.stats;
    v1;
    v2;
  }

let check_summary name a b =
  Alcotest.(check int) (name ^ " time_ns") a.time_ns b.time_ns;
  Alcotest.(check int) (name ^ " messages") a.messages b.messages;
  Alcotest.(check int) (name ^ " payload") a.payload_bytes b.payload_bytes;
  Alcotest.(check int) (name ^ " wire") a.wire_bytes b.wire_bytes;
  Alcotest.(check (list (pair string (pair int int))))
    (name ^ " by_kind") a.by_kind b.by_kind;
  Alcotest.(check int) (name ^ " events") a.events b.events;
  Alcotest.(check int) (name ^ " read faults") a.read_faults b.read_faults;
  Alcotest.(check int) (name ^ " write faults") a.write_faults b.write_faults;
  Alcotest.(check int) (name ^ " twins") a.twins b.twins;
  Alcotest.(check int) (name ^ " diffs") a.diffs b.diffs;
  Alcotest.(check int) (name ^ " diff bytes") a.diff_bytes b.diff_bytes;
  Alcotest.(check (float 0.)) (name ^ " v1") a.v1 b.v1;
  Alcotest.(check (float 0.)) (name ^ " v2") a.v2 b.v2

(* The f64 scenario on 2 processors and a 4-page array:

   - p0 writes [300, 1900): starts mid-page and straddles three page
     boundaries, so the bulk run takes a write fault mid-run at 512,
     1024 and 1536.
   - p1 reads the same region back (read faults mid-run at the same
     boundaries) and then overwrites [512, 1536): a run starting
     exactly at a page boundary, covering two whole pages.
   - p0 folds [512, 1536) back.

   Accumulation order is ascending in both variants, so the float
   results are bit-identical, not just close. *)
let f64_scenario ~bulk ?(recorder = Recorder.disabled) ?(write_ranges = false)
    protocol =
  let cfg = { (Config.make ~protocol ~nprocs:2 ()) with Config.write_ranges } in
  let t = Dsm.create cfg in
  let a = Dsm.alloc_f64 t ~name:"bulk-eq" ~len:2048 in
  let v1 = ref 0. and v2 = ref 0. in
  let buf = Array.make 1600 0. in
  let report =
    Dsm.run ~recorder t (fun ctx ->
        let me = Dsm.me ctx in
        if me = 0 then
          if bulk then begin
            for k = 0 to 1599 do
              buf.(k) <- float_of_int (300 + k) *. 0.5
            done;
            Dsm.f64_set_run ctx a 300 buf 0 1600
          end
          else
            for i = 300 to 1899 do
              Dsm.f64_set ctx a i (float_of_int i *. 0.5)
            done;
        Dsm.barrier ctx;
        if me = 1 then begin
          (if bulk then begin
             Dsm.f64_get_run ctx a 300 buf 0 1600;
             let s = ref 0. in
             for k = 0 to 1599 do
               s := !s +. buf.(k)
             done;
             v1 := !s
           end
           else begin
             let s = ref 0. in
             for i = 300 to 1899 do
               s := !s +. Dsm.f64_get ctx a i
             done;
             v1 := !s
           end);
          if bulk then begin
            for k = 0 to 1023 do
              buf.(k) <- float_of_int k +. 0.25
            done;
            Dsm.f64_set_run ctx a 512 buf 0 1024
          end
          else
            for i = 512 to 1535 do
              Dsm.f64_set ctx a i (float_of_int (i - 512) +. 0.25)
            done
        end;
        Dsm.barrier ctx;
        if me = 0 then
          if bulk then
            v2 := Dsm.f64_fold_run ctx a 512 1024 ~init:0. ~f:( +. )
          else begin
            let s = ref 0. in
            for i = 512 to 1535 do
              s := !s +. Dsm.f64_get ctx a i
            done;
            v2 := !s
          end)
  in
  summarize report ~v1:!v1 ~v2:!v2

let test_f64_equivalence () =
  List.iter
    (fun protocol ->
      let name = Config.protocol_name protocol in
      let scalar = f64_scenario ~bulk:false protocol in
      let bulk = f64_scenario ~bulk:true protocol in
      check_summary name scalar bulk;
      (* The scenario must actually exercise faulting runs. *)
      Alcotest.(check bool)
        (name ^ " scenario faults") true
        (scalar.read_faults >= 4 && scalar.write_faults >= 4))
    protocols

(* The i32 scenario, doubling as the i32_add equivalence check:
   i32_add's contract is "exactly i32_get then i32_set", so a run using
   it must summarize identically to one spelling out the
   read-modify-write. *)
let i32_scenario ~fast protocol =
  let cfg = Config.make ~protocol ~nprocs:2 () in
  let t = Dsm.create cfg in
  let b = Dsm.alloc_i32 t ~name:"bulk-i32" ~len:2048 in
  let v = ref 0. in
  let buf = Array.make 1024 0l in
  let report =
    Dsm.run t (fun ctx ->
        let me = Dsm.me ctx in
        if me = 0 then begin
          (* A set_run starting at a page boundary (index 1024) and one
             straddling it (from 1000). *)
          for k = 0 to 1023 do
            buf.(k) <- Int32.of_int (3 * k)
          done;
          Dsm.i32_set_run ctx b 1024 buf 0 1024;
          Dsm.i32_set_run ctx b 1000 buf 0 48
        end;
        Dsm.barrier ctx;
        if me = 1 then begin
          for i = 1000 to 1099 do
            if fast then Dsm.i32_add ctx b i 7l
            else Dsm.i32_set ctx b i (Int32.add (Dsm.i32_get ctx b i) 7l)
          done;
          Dsm.i32_get_run ctx b 1000 buf 0 148;
          let s = ref 0. in
          for k = 0 to 147 do
            s := !s +. Int32.to_float buf.(k)
          done;
          v := !s
        end;
        Dsm.barrier ctx;
        if me = 0 then
          v :=
            !v
            +. Dsm.i32_fold_run ctx b 1000 148 ~init:0. ~f:(fun acc x ->
                   acc +. Int32.to_float x))
  in
  summarize report ~v1:!v ~v2:0.

let test_i32_add_equivalence () =
  List.iter
    (fun protocol ->
      let name = Config.protocol_name protocol in
      check_summary name
        (i32_scenario ~fast:false protocol)
        (i32_scenario ~fast:true protocol))
    protocols

(* The i32 runs against per-word i32_get/i32_set, on 2 processors and a
   3-page array (1024 words a page):

   - p0 writes [1000, 2100): straddles the boundaries at 1024 and 2048,
     so the bulk run takes a write fault mid-run at each.
   - p1 reads the same region back (read faults mid-run) and then
     overwrites [1024, 2048): a run starting exactly at a page boundary,
     covering one whole page.
   - p0 folds [1000, 2100) back, over both boundaries. *)
let i32_runs_scenario ~bulk ?(recorder = Recorder.disabled) protocol =
  let cfg = Config.make ~protocol ~nprocs:2 () in
  let t = Dsm.create cfg in
  let b = Dsm.alloc_i32 t ~name:"bulk-i32-eq" ~len:3072 in
  let v1 = ref 0. and v2 = ref 0. in
  let buf = Array.make 1100 0l in
  let report =
    Dsm.run ~recorder t (fun ctx ->
        let me = Dsm.me ctx in
        if me = 0 then
          if bulk then begin
            for k = 0 to 1099 do
              buf.(k) <- Int32.of_int (5 * (1000 + k))
            done;
            Dsm.i32_set_run ctx b 1000 buf 0 1100
          end
          else
            for i = 1000 to 2099 do
              Dsm.i32_set ctx b i (Int32.of_int (5 * i))
            done;
        Dsm.barrier ctx;
        if me = 1 then begin
          let s = ref 0. in
          if bulk then begin
            Dsm.i32_get_run ctx b 1000 buf 0 1100;
            for k = 0 to 1099 do
              s := !s +. Int32.to_float buf.(k)
            done
          end
          else
            for i = 1000 to 2099 do
              s := !s +. Int32.to_float (Dsm.i32_get ctx b i)
            done;
          v1 := !s;
          if bulk then begin
            for k = 0 to 1023 do
              buf.(k) <- Int32.of_int (7 - k)
            done;
            Dsm.i32_set_run ctx b 1024 buf 0 1024
          end
          else
            for i = 1024 to 2047 do
              Dsm.i32_set ctx b i (Int32.of_int (7 - (i - 1024)))
            done
        end;
        Dsm.barrier ctx;
        if me = 0 then
          if bulk then
            v2 :=
              Dsm.i32_fold_run ctx b 1000 1100 ~init:0. ~f:(fun acc x ->
                  acc +. Int32.to_float x)
          else begin
            let s = ref 0. in
            for i = 1000 to 2099 do
              s := !s +. Int32.to_float (Dsm.i32_get ctx b i)
            done;
            v2 := !s
          end)
  in
  summarize report ~v1:!v1 ~v2:!v2

let test_i32_runs_equivalence () =
  List.iter
    (fun protocol ->
      let name = Config.protocol_name protocol in
      let scalar = i32_runs_scenario ~bulk:false protocol in
      let bulk = i32_runs_scenario ~bulk:true protocol in
      check_summary name scalar bulk;
      Alcotest.(check bool)
        (name ^ " scenario faults") true
        (scalar.read_faults >= 2 && scalar.write_faults >= 2))
    protocols

(* With the consistency recorder live, a bulk run is observed word by
   word, as the scalar loop would be: the recorded streams of the scalar
   and bulk variants must match element for element, for the f64 runs,
   the i32 runs and the f64 runs under software write detection. *)
let test_recorded_streams_equal () =
  List.iter
    (fun (label, scenario) ->
      List.iter
        (fun protocol ->
          let name = Config.protocol_name protocol ^ label in
          let rec_scalar = Recorder.create () in
          let rec_bulk = Recorder.create () in
          let s = scenario ~bulk:false ~recorder:rec_scalar protocol in
          let b = scenario ~bulk:true ~recorder:rec_bulk protocol in
          check_summary (name ^ " recorded") s b;
          Alcotest.(check int)
            (name ^ " observation count")
            (Recorder.count rec_scalar) (Recorder.count rec_bulk);
          Alcotest.(check bool)
            (name ^ " observation streams equal")
            true
            (Recorder.stream rec_scalar = Recorder.stream rec_bulk))
        protocols)
    [
      ("", fun ~bulk ~recorder p -> f64_scenario ~bulk ~recorder p);
      (" i32", fun ~bulk ~recorder p -> i32_runs_scenario ~bulk ~recorder p);
      (* Under software write detection a bulk write logs one coalesced
         range per run where the scalar loop logs one per word. *)
      ( " write_ranges",
        fun ~bulk ~recorder p ->
          f64_scenario ~bulk ~recorder ~write_ranges:true p );
    ]

(* Software-TLB staleness: a node's cached slots must be forgotten on
   every effective-rights downgrade.  p0 caches several pages — among
   them pages 0 and [tlb_slots], which share a slot — by writing and then
   re-reading them, p1's write invalidates one of them across the
   barrier, and p0's reads must see p1's value on that page and its own
   on every other — under every protocol, via both access paths. *)
let test_tlb_staleness () =
  let slots = State.tlb_slots in
  let cached = [ 0; 1; 2; slots ] in
  List.iter
    (fun protocol ->
      List.iter
        (fun bulk ->
          List.iter
            (fun victim ->
              let cfg = Config.make ~protocol ~nprocs:2 () in
              let t = Dsm.create cfg in
              let a = Dsm.alloc_f64 t ~name:"tlb" ~len:(512 * (slots + 1)) in
              let seen = ref [] in
              let buf = Array.make 1 0. in
              let get ctx i =
                if bulk then begin
                  Dsm.f64_get_run ctx a i buf 0 1;
                  buf.(0)
                end
                else Dsm.f64_get ctx a i
              in
              ignore
                (Dsm.run t (fun ctx ->
                     let me = Dsm.me ctx in
                     if me = 0 then
                       List.iter
                         (fun p -> Dsm.f64_set ctx a ((512 * p) + 7) 1.0)
                         cached;
                     Dsm.barrier ctx;
                     (* p0 re-warms every slot while p1 writes the victim. *)
                     if me = 0 then
                       List.iter
                         (fun p -> ignore (get ctx ((512 * p) + 7)))
                         cached;
                     if me = 1 then Dsm.f64_set ctx a ((512 * victim) + 9) 2.0;
                     Dsm.barrier ctx;
                     if me = 0 then
                       seen :=
                         List.map
                           (fun p ->
                             (get ctx ((512 * p) + 7), get ctx ((512 * p) + 9)))
                           cached));
              List.iter2
                (fun p (w7, w9) ->
                  let label =
                    Printf.sprintf "%s %s victim %d: page %d"
                      (Config.protocol_name protocol)
                      (if bulk then "bulk" else "scalar")
                      victim p
                  in
                  Alcotest.(check (float 0.)) (label ^ " own write") 1.0 w7;
                  Alcotest.(check (float 0.))
                    (label ^ " remote write")
                    (if p = victim then 2.0 else 0.0)
                    w9)
                cached !seen)
            [ 0; slots; 1 ])
        [ false; true ])
    protocols

(* A downgrade that lands while other slots stay warm: p0 holds pages A,
   B and C writable, p1's write to B takes B away from p0 (under SW an
   ownership grant, which fires as a scheduled event while p0 is
   computing), and p0 then writes A and B again in the same interval.
   The write to B must fault instead of hitting its stale slot, or p1
   never sees it; the write to A may hit. *)
let test_tlb_downgrade_warm () =
  List.iter
    (fun protocol ->
      List.iter
        (fun bulk ->
          let cfg = Config.make ~protocol ~nprocs:2 () in
          let t = Dsm.create cfg in
          let a = Dsm.alloc_f64 t ~name:"warm" ~len:(512 * 3) in
          let pa = 0 and pb = 512 and pc = 1024 in
          let set ctx i v =
            if bulk then Dsm.f64_set_run ctx a i [| v |] 0 1
            else Dsm.f64_set ctx a i v
          in
          let seen = ref [] in
          ignore
            (Dsm.run t (fun ctx ->
                 let me = Dsm.me ctx in
                 if me = 0 then begin
                   set ctx (pa + 7) 1.0;
                   set ctx (pb + 7) 1.0;
                   set ctx (pc + 7) 1.0;
                   Dsm.compute ctx 50_000_000;
                   set ctx (pb + 11) 3.0;
                   set ctx (pa + 11) 3.0
                 end
                 else begin
                   Dsm.compute ctx 10_000_000;
                   set ctx (pb + 9) 2.0
                 end;
                 Dsm.barrier ctx;
                 if me = 1 then
                   seen :=
                     List.map (Dsm.f64_get ctx a)
                       [ pa + 7; pa + 11; pb + 7; pb + 9; pb + 11; pc + 7 ]));
          Alcotest.(check (list (float 0.)))
            (Printf.sprintf "%s %s writes after downgrade"
               (Config.protocol_name protocol)
               (if bulk then "bulk" else "scalar"))
            [ 1.0; 3.0; 1.0; 2.0; 3.0; 1.0 ]
            !seen)
        [ false; true ])
    protocols

(* The accessor hit path allocates nothing: after warm-up, scalar writes
   and read-modify-writes round-robin over 8 resident writable pages
   (each access on a different page from the last) stay in the TLB and
   box no float.  Holds whether or not the accessors are inlined. *)
let test_hit_path_no_alloc () =
  let cfg = Config.make ~protocol:Config.Mw ~nprocs:1 () in
  let t = Dsm.create cfg in
  let f = Dsm.alloc_f64 t ~name:"f" ~len:(512 * 4) in
  let n = Dsm.alloc_i32 t ~name:"n" ~len:(1024 * 4) in
  let calls = 10_000 in
  let words = ref nan in
  ignore
    (Dsm.run t (fun ctx ->
         for p = 0 to 3 do
           Dsm.f64_set ctx f (512 * p) 0.5;
           Dsm.i32_add ctx n (1024 * p) 1l
         done;
         let before = Gc.minor_words () in
         for k = 0 to calls - 1 do
           let p = k land 3 and w = (k lsr 2) land 511 in
           Dsm.f64_set ctx f ((512 * p) + w) 1.5;
           Dsm.i32_add ctx n ((1024 * p) + w) 1l
         done;
         words := Gc.minor_words () -. before));
  let per_access = !words /. float_of_int (2 * calls) in
  if per_access >= 0.01 then
    Alcotest.failf "%.0f minor words over %d accesses (%.3f per access)"
      !words (2 * calls) per_access

(* One coalesced logged range must produce a byte-identical diff to
   per-word logging of the same writes. *)
let test_of_ranges_coalescing () =
  let page = Page.create () in
  for i = 0 to (Page.size / 8) - 1 do
    Page.set_f64 page (8 * i) (float_of_int (i * i))
  done;
  let per_word = List.init 64 (fun k -> (1024 + (4 * k), 4)) in
  let coalesced = [ (1024, 256) ] in
  let d1 = Diff.of_ranges per_word page in
  let d2 = Diff.of_ranges coalesced page in
  Alcotest.(check (list (pair int int)))
    "coalesced run list" (Diff.ranges d2) (Diff.ranges d1);
  Alcotest.(check int) "modified bytes" (Diff.modified_bytes d2)
    (Diff.modified_bytes d1);
  Alcotest.(check int) "encoded size" (Diff.size_bytes d2)
    (Diff.size_bytes d1);
  let t1 = Page.create () and t2 = Page.create () in
  Diff.apply d1 t1;
  Diff.apply d2 t2;
  Alcotest.(check bool) "applied bytes identical" true (Page.equal t1 t2)

let () =
  Alcotest.run "bulk"
    [
      ( "equivalence",
        [
          Alcotest.test_case "f64 scalar = bulk (all protocols)" `Quick
            test_f64_equivalence;
          Alcotest.test_case "i32_add = get+set (all protocols)" `Quick
            test_i32_add_equivalence;
          Alcotest.test_case "recorded streams equal" `Quick
            test_recorded_streams_equal;
          Alcotest.test_case "i32 scalar = bulk (all protocols)" `Quick
            test_i32_runs_equivalence;
        ] );
      ( "fast path",
        [
          Alcotest.test_case "TLB reset on downgrade" `Quick
            test_tlb_staleness;
          Alcotest.test_case "TLB downgrade with warm slots" `Quick
            test_tlb_downgrade_warm;
          Alcotest.test_case "hit path allocates nothing" `Quick
            test_hit_path_no_alloc;
          Alcotest.test_case "of_ranges coalescing" `Quick
            test_of_ranges_coalescing;
        ] );
    ]
