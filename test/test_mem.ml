(* Tests for the simulated paged memory substrate. *)

module Page = Adsm_mem.Page
module Perm = Adsm_mem.Perm
module Layout = Adsm_mem.Layout

let test_page_size () = Alcotest.(check int) "4KB pages" 4096 Page.size

let test_page_accessors () =
  let p = Page.create () in
  Page.set_byte p 0 0xAB;
  Alcotest.(check int) "byte" 0xAB (Page.get_byte p 0);
  Page.set_i32 p 4 (-123456l);
  Alcotest.(check int32) "i32" (-123456l) (Page.get_i32 p 4);
  Page.set_f64 p 8 2.718281828;
  Alcotest.(check (float 0.)) "f64" 2.718281828 (Page.get_f64 p 8);
  Page.set_f64 p (Page.size - 8) 1.5;
  Alcotest.(check (float 0.)) "last slot" 1.5 (Page.get_f64 p (Page.size - 8))

let test_page_copy_blit () =
  let a = Page.create () in
  Page.set_f64 a 0 9.0;
  let b = Page.copy a in
  Page.set_f64 a 0 1.0;
  Alcotest.(check (float 0.)) "copy independent" 9.0 (Page.get_f64 b 0);
  Page.blit ~src:a ~dst:b;
  Alcotest.(check bool) "blit equalizes" true (Page.equal a b);
  Page.fill_zero a;
  Alcotest.(check (float 0.)) "zeroed" 0.0 (Page.get_f64 a 0)

let test_page_of_bytes () =
  Alcotest.check_raises "wrong size"
    (Invalid_argument "Page.of_bytes: expected 4096 bytes, got 3") (fun () ->
      ignore (Page.of_bytes (Bytes.create 3)));
  let p = Page.of_bytes (Bytes.make Page.size 'x') in
  Alcotest.(check int) "wraps" (Char.code 'x') (Page.get_byte p 17)

let test_perm () =
  Alcotest.(check bool) "none: no read" false (Perm.allows_read Perm.No_access);
  Alcotest.(check bool) "ro: read" true (Perm.allows_read Perm.Read_only);
  Alcotest.(check bool) "ro: no write" false (Perm.allows_write Perm.Read_only);
  Alcotest.(check bool) "rw: write" true (Perm.allows_write Perm.Read_write);
  Alcotest.(check string) "names" "ro" (Perm.to_string Perm.Read_only)

let test_layout_alloc () =
  let l = Layout.create () in
  let a = Layout.alloc l ~name:"a" ~bytes:100 in
  let b = Layout.alloc l ~name:"b" ~bytes:(2 * Page.size) in
  let c = Layout.alloc l ~name:"c" ~bytes:(Page.size + 1) in
  Alcotest.(check int) "a starts at 0" 0 a.Layout.first_page;
  Alcotest.(check int) "a rounded to one page" 1 a.Layout.page_count;
  Alcotest.(check int) "b follows" 1 b.Layout.first_page;
  Alcotest.(check int) "b exact" 2 b.Layout.page_count;
  Alcotest.(check int) "c rounded up" 2 c.Layout.page_count;
  Alcotest.(check int) "total" 5 (Layout.total_pages l);
  Alcotest.(check (list string)) "regions in order" [ "a"; "b"; "c" ]
    (List.map (fun (r : Layout.region) -> r.Layout.name) (Layout.regions l))

let test_layout_locate () =
  let l = Layout.create () in
  let _a = Layout.alloc l ~name:"a" ~bytes:Page.size in
  let b = Layout.alloc l ~name:"b" ~bytes:(3 * Page.size) in
  Alcotest.(check (pair int int)) "start" (1, 0) (Layout.locate b 0);
  Alcotest.(check (pair int int)) "mid"
    (2, 10)
    (Layout.locate b (Page.size + 10));
  Alcotest.check_raises "out of range"
    (Invalid_argument
       "Layout.locate: offset 12288 outside region b (12288 bytes)")
    (fun () -> ignore (Layout.locate b (3 * Page.size)))

let test_layout_region_of_page () =
  let l = Layout.create () in
  let a = Layout.alloc l ~name:"a" ~bytes:Page.size in
  let b = Layout.alloc l ~name:"b" ~bytes:Page.size in
  Alcotest.(check (option string)) "page 0" (Some a.Layout.name)
    (Option.map
       (fun (r : Layout.region) -> r.Layout.name)
       (Layout.region_of_page l 0));
  Alcotest.(check (option string)) "page 1" (Some b.Layout.name)
    (Option.map
       (fun (r : Layout.region) -> r.Layout.name)
       (Layout.region_of_page l 1));
  Alcotest.(check bool) "page 2 unmapped" true
    (Layout.region_of_page l 2 = None)

let test_layout_pages_of_range () =
  let l = Layout.create () in
  let a = Layout.alloc l ~name:"a" ~bytes:(4 * Page.size) in
  Alcotest.(check (list int)) "within one page" [ 0 ]
    (Layout.pages_of_range a ~offset:10 ~len:100);
  Alcotest.(check (list int)) "spanning" [ 0; 1; 2 ]
    (Layout.pages_of_range a ~offset:100 ~len:(2 * Page.size));
  Alcotest.(check (list int)) "empty" []
    (Layout.pages_of_range a ~offset:0 ~len:0)

let prop_locate_consistent =
  QCheck.Test.make ~name:"locate maps offsets monotonically" ~count:200
    QCheck.(int_bound ((4 * Page.size) - 2))
    (fun off ->
      let l = Layout.create () in
      let r = Layout.alloc l ~name:"r" ~bytes:(4 * Page.size) in
      let p1, o1 = Layout.locate r off in
      let p2, o2 = Layout.locate r (off + 1) in
      let linear p o = (p * Page.size) + o in
      linear p2 o2 = linear p1 o1 + 1)

(* --- word-run copies: one memcpy = the word-at-a-time loop --- *)

(* Bit patterns a float round trip could disturb: quiet and signalling
   NaNs with payloads, both signs; -0.0; subnormals; infinities. *)
let special_bits =
  [|
    0x7FF8000000000001L; 0x7FF0000000000001L; 0xFFF4DEADBEEF0001L;
    0xFFFFFFFFFFFFFFFFL; 0x8000000000000000L; 0x0000000000000001L;
    0x800FFFFFFFFFFFFFL; 0x7FF0000000000000L; 0xFFF0000000000000L;
  |]

let random_bits rng =
  if Random.State.int rng 3 = 0 then
    special_bits.(Random.State.int rng (Array.length special_bits))
  else Random.State.bits64 rng

let random_page rng =
  let p = Page.create () in
  for w = 0 to (Page.size / 8) - 1 do
    Bytes.set_int64_le (Page.raw p) (8 * w) (random_bits rng)
  done;
  p

let random_floats rng n =
  Array.init n (fun _ -> Int64.float_of_bits (random_bits rng))

let same_bits a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a b

(* A valid (offset, length, position, array length): the run starts at
   byte [off] (mostly word-aligned), lies within the page and within
   the array.  Edge shapes are drawn on purpose: length 0, a full page,
   a run ending exactly at the page end. *)
let random_run rng =
  let off, len =
    match Random.State.int rng 6 with
    | 0 -> (8 * Random.State.int rng (Page.size / 8 + 1), 0)
    | 1 -> (0, Page.size / 8)
    | 2 ->
      let len = Random.State.int rng (Page.size / 8 + 1) in
      (Page.size - (8 * len), len)
    | 3 ->
      let off = Random.State.int rng (Page.size + 1) in
      (off, Random.State.int rng (((Page.size - off) / 8) + 1))
    | _ ->
      let off = 8 * Random.State.int rng (Page.size / 8 + 1) in
      (off, Random.State.int rng (min 8 ((Page.size - off) / 8) + 1))
  in
  let n = len + Random.State.int rng 9 in
  (off, len, Random.State.int rng (n - len + 1), n)

let prop_get_run =
  QCheck.Test.make ~name:"get_f64_run = get_f64 word loop" ~count:500
    QCheck.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let p = random_page rng in
      let off, len, pos, n = random_run rng in
      let dst = random_floats rng n in
      let expect = Array.copy dst in
      for k = 0 to len - 1 do
        expect.(pos + k) <- Page.get_f64 p (off + (8 * k))
      done;
      let before = Page.copy p in
      Page.get_f64_run (Page.raw p) off dst pos len;
      same_bits dst expect && Page.equal p before)

let prop_set_run =
  QCheck.Test.make ~name:"set_f64_run = set_f64 word loop" ~count:500
    QCheck.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let p = random_page rng in
      let off, len, pos, n = random_run rng in
      let src = random_floats rng n in
      let expect = Page.copy p in
      for k = 0 to len - 1 do
        Page.set_f64 expect (off + (8 * k)) src.(pos + k)
      done;
      let src_before = Array.copy src in
      Page.set_f64_run (Page.raw p) off src pos len;
      Page.equal p expect && same_bits src src_before)

(* Out-of-range arguments raise before anything is copied: the page and
   the array are left as they were. *)
let prop_run_bounds =
  QCheck.Test.make ~name:"f64 runs reject out-of-range arguments" ~count:300
    QCheck.int (fun seed ->
      let rng = Random.State.make [| seed |] in
      let off, len, pos, n = random_run rng in
      let off, len, pos =
        match Random.State.int rng 6 with
        | 0 -> (-1 - Random.State.int rng 16, len, pos)
        | 1 -> (Page.size + 1 + Random.State.int rng 16, len, pos)
        | 2 -> (off, ((Page.size - off) / 8) + 1 + Random.State.int rng 4, pos)
        | 3 -> (off, -1 - Random.State.int rng 4, pos)
        | 4 -> (off, len, -1 - Random.State.int rng 4)
        | _ -> (off, len, n - len + 1 + Random.State.int rng 4)
      in
      let raises f =
        match f () with
        | () -> false
        | exception Invalid_argument _ -> true
      in
      let p = random_page rng in
      let a = random_floats rng n in
      let p0 = Page.copy p and a0 = Array.copy a in
      raises (fun () -> Page.get_f64_run (Page.raw p) off a pos len)
      && raises (fun () -> Page.set_f64_run (Page.raw p) off a pos len)
      && Page.equal p p0 && same_bits a a0)

let () =
  Alcotest.run "mem"
    [
      ( "page",
        [
          Alcotest.test_case "size" `Quick test_page_size;
          Alcotest.test_case "accessors" `Quick test_page_accessors;
          Alcotest.test_case "copy/blit" `Quick test_page_copy_blit;
          Alcotest.test_case "of_bytes" `Quick test_page_of_bytes;
          QCheck_alcotest.to_alcotest prop_get_run;
          QCheck_alcotest.to_alcotest prop_set_run;
          QCheck_alcotest.to_alcotest prop_run_bounds;
        ] );
      ("perm", [ Alcotest.test_case "permissions" `Quick test_perm ]);
      ( "layout",
        [
          Alcotest.test_case "alloc" `Quick test_layout_alloc;
          Alcotest.test_case "locate" `Quick test_layout_locate;
          Alcotest.test_case "region_of_page" `Quick test_layout_region_of_page;
          Alcotest.test_case "pages_of_range" `Quick test_layout_pages_of_range;
          QCheck_alcotest.to_alcotest prop_locate_consistent;
        ] );
    ]
