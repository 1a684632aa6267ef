(* Unit and property tests for the DSM core data structures: vector
   timestamps, diffs, write notices, intervals, messages, configuration
   and statistics. *)

module Vc = Adsm_dsm.Vc
module Diff = Adsm_dsm.Diff
module Notice = Adsm_dsm.Notice
module Interval = Adsm_dsm.Interval
module Msg = Adsm_dsm.Msg
module Wmap = Adsm_dsm.Wmap
module Config = Adsm_dsm.Config
module Stats = Adsm_dsm.Stats
module Page = Adsm_mem.Page
module Rng = Adsm_sim.Rng

(* ------------------------------------------------------------------ *)
(* Vc                                                                 *)
(* ------------------------------------------------------------------ *)

let vc_of_list l =
  let t = Vc.zero ~nprocs:(List.length l) in
  List.iteri (fun i v -> Vc.set t i v) l;
  t

let test_vc_basic () =
  let a = Vc.zero ~nprocs:4 in
  Alcotest.(check int) "nprocs" 4 (Vc.nprocs a);
  Alcotest.(check int) "zero" 0 (Vc.get a 2);
  Vc.tick a ~proc:2;
  Vc.tick a ~proc:2;
  Alcotest.(check int) "ticked" 2 (Vc.get a 2);
  let b = Vc.copy a in
  Vc.tick b ~proc:0;
  Alcotest.(check int) "copy is independent" 0 (Vc.get a 0)

let test_vc_order () =
  let a = vc_of_list [ 1; 0; 0 ]
  and b = vc_of_list [ 1; 2; 0 ]
  and c = vc_of_list [ 0; 0; 3 ] in
  Alcotest.(check bool) "a <= b" true (Vc.leq a b);
  Alcotest.(check bool) "not b <= a" false (Vc.leq b a);
  Alcotest.(check bool) "b, c concurrent" true (Vc.concurrent b c);
  Alcotest.(check bool) "a not concurrent with b" false (Vc.concurrent a b);
  Alcotest.(check int) "order respects causality" (-1) (Vc.order a b);
  Alcotest.(check int) "order antisymmetric" 1 (Vc.order b a);
  Alcotest.(check int) "order reflexive" 0 (Vc.order a (Vc.copy a))

let test_vc_merge () =
  let a = vc_of_list [ 1; 5; 0 ] and b = vc_of_list [ 3; 2; 4 ] in
  Vc.merge_into a b;
  Alcotest.(check bool) "merge is lub" true
    (Vc.equal a (vc_of_list [ 3; 5; 4 ]))

let vc_gen =
  QCheck.Gen.(
    list_size (return 4) (int_bound 20) >|= fun l -> vc_of_list l)

let arb_vc = QCheck.make ~print:(Format.asprintf "%a" Vc.pp) vc_gen

let prop_vc_merge_upper_bound =
  QCheck.Test.make ~name:"merge_into produces an upper bound" ~count:300
    (QCheck.pair arb_vc arb_vc) (fun (a, b) ->
      let m = Vc.copy a in
      Vc.merge_into m b;
      Vc.leq a m && Vc.leq b m)

let prop_vc_order_total =
  QCheck.Test.make ~name:"Vc.order is antisymmetric and total" ~count:300
    (QCheck.pair arb_vc arb_vc) (fun (a, b) ->
      let ab = Vc.order a b and ba = Vc.order b a in
      if Vc.equal a b then ab = 0 && ba = 0 else ab = -ba && ab <> 0)

let prop_vc_order_respects_causality =
  QCheck.Test.make ~name:"Vc.order extends happened-before" ~count:300
    (QCheck.pair arb_vc arb_vc) (fun (a, b) ->
      (not (Vc.leq a b)) || Vc.equal a b || Vc.order a b < 0)

(* ------------------------------------------------------------------ *)
(* Diff                                                               *)
(* ------------------------------------------------------------------ *)

let page_of_f seed =
  let p = Page.create () in
  let rng = Rng.create (Int64.of_int seed) in
  for i = 0 to Page.size - 1 do
    Page.set_byte p i (Rng.int rng 256)
  done;
  p

let test_diff_empty () =
  let p = page_of_f 1 in
  let d = Diff.create ~twin:p ~current:(Page.copy p) () in
  Alcotest.(check bool) "empty" true (Diff.is_empty d);
  Alcotest.(check int) "no bytes" 0 (Diff.modified_bytes d);
  Alcotest.(check int) "no size" 0 (Diff.size_bytes d)

let test_diff_word_granularity () =
  (* A single changed byte charges its whole 32-bit word, as TreadMarks'
     word-granular detection does. *)
  let twin = Page.create () in
  let current = Page.copy twin in
  Page.set_byte current 101 7;
  let d = Diff.create ~twin ~current () in
  Alcotest.(check int) "one run" 1 (Diff.run_count d);
  Alcotest.(check int) "word-sized" 4 (Diff.modified_bytes d);
  Alcotest.(check (list (pair int int))) "aligned range" [ (100, 4) ]
    (Diff.ranges d)

let test_diff_apply_roundtrip () =
  let twin = page_of_f 2 in
  let current = Page.copy twin in
  Page.set_f64 current 0 3.25;
  Page.set_f64 current 2048 (-1.5);
  Page.set_i32 current 512 77l;
  let d = Diff.create ~twin ~current () in
  let target = Page.copy twin in
  Diff.apply d target;
  Alcotest.(check bool) "target equals current" true
    (Page.equal target current)

let prop_diff_roundtrip =
  QCheck.Test.make ~name:"diff(create;apply) reproduces modifications"
    ~count:100
    QCheck.(pair small_nat (small_list (pair (int_bound 511) (int_bound 1000))))
    (fun (seed, writes) ->
      let twin = page_of_f seed in
      let current = Page.copy twin in
      List.iter
        (fun (slot, v) -> Page.set_f64 current (slot * 8) (float_of_int v))
        writes;
      let d = Diff.create ~twin ~current () in
      let target = Page.copy twin in
      Diff.apply d target;
      Page.equal target current)

let prop_diff_disjoint_merge =
  QCheck.Test.make
    ~name:"diffs of disjoint writes commute (the MW merge property)"
    ~count:100
    QCheck.(pair (small_list (int_bound 255)) (small_list (int_bound 255)))
    (fun (w1, w2) ->
      (* writer 1 uses slots 0..255, writer 2 slots 256..511 *)
      let base = page_of_f 9 in
      let c1 = Page.copy base and c2 = Page.copy base in
      List.iter (fun s -> Page.set_f64 c1 (s * 8) 1.25) w1;
      List.iter (fun s -> Page.set_f64 c2 ((256 + s) * 8) 2.5) w2;
      let d1 = Diff.create ~twin:base ~current:c1 () in
      let d2 = Diff.create ~twin:base ~current:c2 () in
      let ab = Page.copy base and ba = Page.copy base in
      Diff.apply d1 ab;
      Diff.apply d2 ab;
      Diff.apply d2 ba;
      Diff.apply d1 ba;
      Page.equal ab ba)

let test_diff_size_accounting () =
  let twin = Page.create () in
  let current = Page.copy twin in
  (* two separate words *)
  Page.set_i32 current 0 1l;
  Page.set_i32 current 100 1l;
  let d = Diff.create ~twin ~current () in
  Alcotest.(check int) "runs" 2 (Diff.run_count d);
  Alcotest.(check int) "modified" 8 (Diff.modified_bytes d);
  Alcotest.(check int) "encoded = headers + data" (8 + 8) (Diff.size_bytes d)

let test_diff_of_ranges () =
  let page = page_of_f 4 in
  let d = Diff.of_ranges [ (10, 4); (100, 8); (12, 6) ] page in
  (* 10..14 and 12..18 word-align to 8..20 and merge; 100..108 is alone *)
  Alcotest.(check (list (pair int int))) "coalesced, word-aligned"
    [ (8, 12); (100, 8) ]
    (Diff.ranges d);
  let target = Page.create () in
  Diff.apply d target;
  for i = 8 to 19 do
    Alcotest.(check int)
      (Printf.sprintf "byte %d copied" i)
      (Page.get_byte page i) (Page.get_byte target i)
  done;
  Alcotest.(check int) "outside untouched" 0 (Page.get_byte target 50)

let test_diff_of_ranges_empty_and_edge () =
  let page = page_of_f 5 in
  Alcotest.(check bool) "empty" true (Diff.is_empty (Diff.of_ranges [] page));
  let d = Diff.of_ranges [ (Page.size - 3, 3) ] page in
  Alcotest.(check (list (pair int int))) "clamped at page end"
    [ (Page.size - 4, 4) ]
    (Diff.ranges d)

let test_diff_of_ranges_coalesce () =
  let page = page_of_f 7 in
  (* Unsorted, duplicate, overlapping, and merely adjacent ranges must
     all coalesce: after word-alignment, 8..12 / 12..16 are adjacent,
     28..32 / 28..36 overlap, (8,4) appears twice, and 40..44 stands
     alone. *)
  let d =
    Diff.of_ranges
      [ (40, 4); (8, 4); (12, 4); (8, 4); (30, 6); (28, 4) ]
      page
  in
  Alcotest.(check (list (pair int int)))
    "overlapping/adjacent/unsorted/duplicate ranges coalesce"
    [ (8, 8); (28, 8); (40, 4) ]
    (Diff.ranges d);
  let target = Page.create () in
  Diff.apply d target;
  List.iter
    (fun (off, len) ->
      for i = off to off + len - 1 do
        Alcotest.(check int)
          (Printf.sprintf "byte %d copied" i)
          (Page.get_byte page i) (Page.get_byte target i)
      done)
    [ (8, 8); (28, 8); (40, 4) ];
  Alcotest.(check int) "gap untouched" 0 (Page.get_byte target 20)

(* The scan compares 8-byte chunks at a time; runs that start or stop
   inside a chunk, cross a chunk boundary, or touch the page's last word
   must come out identical to a word-by-word scan. *)
let test_diff_chunk_boundaries () =
  let flip current off =
    Page.set_i32 current off (Int32.lognot (Page.get_i32 current off))
  in
  let mk offs =
    let twin = page_of_f 8 in
    let current = Page.copy twin in
    List.iter (flip current) offs;
    Diff.create ~twin ~current ()
  in
  Alcotest.(check (list (pair int int)))
    "last word of the page"
    [ (Page.size - 4, 4) ]
    (Diff.ranges (mk [ Page.size - 4 ]));
  Alcotest.(check (list (pair int int)))
    "run crossing an 8-byte boundary"
    [ (4, 8) ]
    (Diff.ranges (mk [ 4; 8 ]));
  Alcotest.(check (list (pair int int)))
    "aligned full chunk" [ (0, 8) ]
    (Diff.ranges (mk [ 0; 4 ]));
  Alcotest.(check (list (pair int int)))
    "first and last words"
    [ (0, 4); (Page.size - 4, 4) ]
    (Diff.ranges (mk [ 0; Page.size - 4 ]));
  Alcotest.(check (list (pair int int)))
    "three chunks straddled"
    [ (12, 12) ]
    (Diff.ranges (mk [ 12; 16; 20 ]))

(* The chunk comparison splits each int64 into 32-bit halves; a value
   with the sign bit set in either half must still compare correctly. *)
let test_diff_sign_bit_words () =
  let twin = page_of_f 9 in
  let current = Page.copy twin in
  Page.set_i32 current 16 0x8000_0000l;
  Page.set_i32 current 28 Int32.min_int;
  let d = Diff.create ~twin ~current () in
  Alcotest.(check (list (pair int int)))
    "sign-bit words detected"
    [ (16, 4); (28, 4) ]
    (Diff.ranges d);
  let target = Page.copy twin in
  Diff.apply d target;
  Alcotest.(check int32) "value applied" 0x8000_0000l (Page.get_i32 target 16)

let prop_of_ranges_covers_writes =
  QCheck.Test.make ~name:"of_ranges covers every logged write" ~count:200
    QCheck.(small_list (pair (int_bound (Page.size - 8)) (int_range 1 8)))
    (fun writes ->
      let page = page_of_f 6 in
      let d = Diff.of_ranges writes page in
      let covered (off, len) =
        List.exists
          (fun (roff, rlen) -> roff <= off && off + len <= roff + rlen)
          (Diff.ranges d)
      in
      List.for_all covered writes)

(* ------------------------------------------------------------------ *)
(* Notice / Interval                                                  *)
(* ------------------------------------------------------------------ *)

let notice ~page ~proc ~seq ~vc ~version =
  { Notice.page; proc; seq; vc; version }

let test_notice_covers () =
  let older = notice ~page:3 ~proc:0 ~seq:1 ~vc:(vc_of_list [ 1; 0 ]) ~version:None in
  let owner =
    notice ~page:3 ~proc:1 ~seq:2 ~vc:(vc_of_list [ 1; 2 ]) ~version:(Some 4)
  in
  let concurrent =
    notice ~page:3 ~proc:0 ~seq:2 ~vc:(vc_of_list [ 2; 0 ]) ~version:None
  in
  Alcotest.(check bool) "owner covers earlier write" true
    (Notice.covers ~by:owner older);
  Alcotest.(check bool) "owner does not cover concurrent write" false
    (Notice.covers ~by:owner concurrent);
  Alcotest.(check bool) "owner notice" true (Notice.is_owner owner);
  Alcotest.(check bool) "plain notice" false (Notice.is_owner older)

let test_notice_sizes () =
  let plain = notice ~page:0 ~proc:0 ~seq:1 ~vc:(vc_of_list [ 1 ]) ~version:None in
  let owner = { plain with Notice.version = Some 3 } in
  Alcotest.(check int) "plain" 8 (Notice.size_bytes plain);
  Alcotest.(check int) "owner" 12 (Notice.size_bytes owner)

(* ------------------------------------------------------------------ *)
(* Msg sizes                                                          *)
(* ------------------------------------------------------------------ *)

let test_msg_sizes () =
  let vc = vc_of_list [ 1; 2 ] in
  Alcotest.(check int) "lock acquire" (8 + 8)
    (Msg.size_bytes ~nprocs:2 (Msg.Lock_acquire { lock = 0; vc }));
  (* Reflected views that hold nothing, a sparse map, and a frozen
     dense map with a map above it: none of them moves a charge. *)
  let views =
    let frozen =
      List.fold_left
        (fun m q -> Wmap.set m ~nprocs:64 q (q + 1))
        Wmap.empty (List.init 64 Fun.id)
    in
    let sparse = Wmap.set Wmap.empty ~nprocs:64 7 80 in
    [
      ("empty view", { Msg.frozen = Wmap.empty; above = Wmap.empty });
      ("sparse view", { Msg.frozen = Wmap.empty; above = sparse });
      ("frozen map", { Msg.frozen; above = sparse });
    ]
  in
  let page_reply reflected =
    Msg.Page_reply
      { page = 0; data = Page.create (); version = 0; committed = 0; reflected }
  in
  let own_reply data =
    Msg.Own_reply
      { page = 0; result = Msg.Refused_fs; version = 1; committed = 1; data }
  in
  Alcotest.(check bool) "page reply carries a page" true
    (Msg.size_bytes ~nprocs:2 (page_reply (snd (List.hd views))) >= Page.size);
  Alcotest.(check bool) "own reply without data is small" true
    (Msg.size_bytes ~nprocs:2 (own_reply None) < 64);
  (* a reply without a copy carries no view but is charged a dense one *)
  Alcotest.(check int) "own reply without data charges a dense view"
    (13 + (4 * 64))
    (Msg.size_bytes ~nprocs:64 (own_reply None));
  (* the reflected view is charged dense, whatever it holds *)
  List.iter
    (fun (name, view) ->
      Alcotest.(check int) ("page reply, " ^ name)
        (8 + Page.size + (4 * 64))
        (Msg.size_bytes ~nprocs:64 (page_reply view));
      Alcotest.(check int) ("own reply with data, " ^ name)
        (13 + Page.size + (4 * 64))
        (Msg.size_bytes ~nprocs:64 (own_reply (Some (Page.create (), view)))))
    views

let test_msg_kinds () =
  let vc = vc_of_list [ 0 ] in
  let kind_str m = Adsm_net.Kind.to_string (Msg.kind m) in
  Alcotest.(check string) "lock" "lock"
    (kind_str (Msg.Lock_acquire { lock = 1; vc }));
  Alcotest.(check string) "own" "own"
    (kind_str (Msg.Own_req { page = 0; version = 0; want_data = false }));
  Alcotest.(check string) "gc" "gc" (kind_str (Msg.Gc_done { epoch = 0 }));
  (* The typed kind round-trips through its label. *)
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Adsm_net.Kind.to_string k ^ " roundtrips")
        true
        (Adsm_net.Kind.of_string (Adsm_net.Kind.to_string k) = Some k))
    Adsm_net.Kind.all

(* ------------------------------------------------------------------ *)
(* Config                                                             *)
(* ------------------------------------------------------------------ *)

let test_config_protocol_names () =
  List.iter
    (fun p ->
      Alcotest.(check bool)
        (Config.protocol_name p ^ " roundtrips")
        true
        (Config.protocol_of_string (Config.protocol_name p) = Some p))
    Config.all_protocols;
  Alcotest.(check bool) "unknown rejected" true
    (Config.protocol_of_string "nope" = None)

let test_config_defaults_match_paper () =
  let cfg = Config.make ~protocol:Config.Wfs ~nprocs:8 () in
  Alcotest.(check int) "twin cost 104us" 104_000 Config.twin_ns;
  Alcotest.(check int) "diff cost 179us" 179_000 Config.diff_create_ns;
  Alcotest.(check int) "WG threshold 3KB" 3_072 cfg.Config.wg_threshold_bytes;
  Alcotest.(check int) "quantum 1ms" 1_000_000 cfg.Config.ownership_quantum_ns;
  Alcotest.(check int) "GC threshold 1MB" 1_048_576 cfg.Config.gc_threshold_bytes

(* ------------------------------------------------------------------ *)
(* Stats                                                              *)
(* ------------------------------------------------------------------ *)

let test_stats_counters () =
  let s = Stats.create () in
  Stats.twin_created s;
  Stats.twin_created s;
  Alcotest.(check int) "twins" 2 (Stats.twins_created_total s);
  Stats.diff_created s ~bytes:100 ~modified:64 ~time:10;
  Stats.diff_created s ~bytes:200 ~modified:128 ~time:20;
  Alcotest.(check int) "diffs" 2 (Stats.diffs_created_total s);
  Alcotest.(check int) "diff bytes" 300 (Stats.diff_bytes_total s);
  Alcotest.(check (float 0.)) "mean diff" 96. (Stats.mean_diff_size s)

let test_stats_sharing_profile () =
  let s = Stats.create () in
  Stats.note_write s ~page:1;
  Stats.note_write s ~page:1;
  Stats.note_write s ~page:2;
  Stats.note_false_sharing s ~page:1;
  Alcotest.(check int) "written" 2 (Stats.pages_written s);
  Alcotest.(check int) "false shared" 1 (Stats.pages_false_shared s);
  Alcotest.(check (float 1e-9)) "fraction" 0.5 (Stats.false_shared_fraction s);
  (* page sets grow past their initial size *)
  Stats.note_write s ~page:4097;
  Stats.note_write s ~page:4097;
  Alcotest.(check int) "written after growth" 3 (Stats.pages_written s);
  Alcotest.(check bool) "page 1 false shared" true
    (Stats.page_false_shared s ~page:1);
  Alcotest.(check bool) "page 4097 not false shared" false
    (Stats.page_false_shared s ~page:4097)

let test_stats_series () =
  let s = Stats.create () in
  Stats.diff_created s ~bytes:10 ~modified:10 ~time:5;
  Stats.diff_created s ~bytes:10 ~modified:10 ~time:9;
  Stats.diffs_dropped s ~count:2 ~time:12;
  let series = Stats.live_diff_series s in
  Alcotest.(check (float 0.)) "peak" 2. (Adsm_sim.Series.max_value series);
  Alcotest.(check (float 0.)) "after drop" 0.
    (Adsm_sim.Series.value_at series ~time:20)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "core"
    [
      ( "vc",
        [
          Alcotest.test_case "basic" `Quick test_vc_basic;
          Alcotest.test_case "order" `Quick test_vc_order;
          Alcotest.test_case "merge" `Quick test_vc_merge;
          qt prop_vc_merge_upper_bound;
          qt prop_vc_order_total;
          qt prop_vc_order_respects_causality;
        ] );
      ( "diff",
        [
          Alcotest.test_case "empty" `Quick test_diff_empty;
          Alcotest.test_case "word granularity" `Quick
            test_diff_word_granularity;
          Alcotest.test_case "apply roundtrip" `Quick test_diff_apply_roundtrip;
          Alcotest.test_case "size accounting" `Quick test_diff_size_accounting;
          Alcotest.test_case "of_ranges" `Quick test_diff_of_ranges;
          Alcotest.test_case "of_ranges edges" `Quick
            test_diff_of_ranges_empty_and_edge;
          Alcotest.test_case "of_ranges coalescing" `Quick
            test_diff_of_ranges_coalesce;
          Alcotest.test_case "chunk boundaries" `Quick
            test_diff_chunk_boundaries;
          Alcotest.test_case "sign-bit words" `Quick test_diff_sign_bit_words;
          qt prop_diff_roundtrip;
          qt prop_diff_disjoint_merge;
          qt prop_of_ranges_covers_writes;
        ] );
      ( "notice",
        [
          Alcotest.test_case "covers" `Quick test_notice_covers;
          Alcotest.test_case "sizes" `Quick test_notice_sizes;
        ] );
      ( "msg",
        [
          Alcotest.test_case "sizes" `Quick test_msg_sizes;
          Alcotest.test_case "kinds" `Quick test_msg_kinds;
        ] );
      ( "config",
        [
          Alcotest.test_case "protocol names" `Quick test_config_protocol_names;
          Alcotest.test_case "paper defaults" `Quick
            test_config_defaults_match_paper;
        ] );
      ( "stats",
        [
          Alcotest.test_case "counters" `Quick test_stats_counters;
          Alcotest.test_case "sharing profile" `Quick
            test_stats_sharing_profile;
          Alcotest.test_case "series" `Quick test_stats_series;
        ] );
    ]
