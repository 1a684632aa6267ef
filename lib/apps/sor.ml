module Dsm = Adsm_dsm.Dsm

type params = { rows : int; cols : int; iters : int }

(* One row of 512 float64s fills exactly one 4 KB page, mirroring the
   paper's no-false-sharing input geometry. *)
let default = { rows = 256; cols = 512; iters = 48 }

let tiny = { rows = 16; cols = 512; iters = 4 }

let data_desc p = Printf.sprintf "%dx%d" p.rows p.cols

let sync_desc = "b"

(* Per-element update cost (4 adds, 1 multiply, loads/stores). *)
let ns_per_update = 4_000

let make t p =
  let grid = Dsm.alloc_f64 t ~name:"sor-grid" ~len:(p.rows * p.cols) in
  let checksum = Common.new_checksum () in
  let run ctx =
    let me = Dsm.me ctx and nprocs = Dsm.nprocs ctx in
    let lo, hi = Common.band ~n:p.rows ~nprocs ~me in
    let idx i j = (i * p.cols) + j in
    (* Private row buffers for the bulk reads, on a node that has rows
       (at tiny scale most of a large cluster has none).  The red-black
       coloring makes the row snapshots exact: a phase only writes
       elements of one parity and only reads the other, so nothing read
       here can have been written earlier in the same phase. *)
    let buffer () = if lo < hi then Array.make p.cols 0. else [||] in
    let up = buffer () and down = buffer () and row = buffer () in
    (* Each processor initializes its own band: boundary elements 1,
       interior 0 (pages are already zero-filled). *)
    for i = lo to hi - 1 do
      if i = 0 || i = p.rows - 1 then
        Dsm.f64_set_run ctx grid (idx i 0) (Array.make p.cols 1.0) 0 p.cols
      else begin
        Dsm.f64_set ctx grid (idx i 0) 1.0;
        Dsm.f64_set ctx grid (idx i (p.cols - 1)) 1.0
      end
    done;
    Dsm.barrier ctx;
    for _iter = 1 to p.iters do
      (* Red phase then black phase, separated by barriers. *)
      for phase = 0 to 1 do
        for i = max lo 1 to min (hi - 1) (p.rows - 2) do
          let j0 = 1 + ((i + phase) land 1) in
          (* Rows inside our own band are read in full with one bulk run
             per page — every word was written by us, so the extra words a
             full-row read touches are race-free.  A neighbor's boundary
             row is read only at the scalar loop's read-parity columns:
             its write-parity columns are being written concurrently over
             there, and the word sets must not grow racier than the
             per-word code.  Page first-touch order stays that of the
             scalar loop: row i-1, row i+1, then row i. *)
          let read_neighbor buf r =
            let j = ref j0 in
            while !j <= p.cols - 2 do
              buf.(!j) <- Dsm.f64_get ctx grid (idx r !j);
              j := !j + 2
            done
          in
          if i - 1 >= lo then Dsm.f64_get_run ctx grid (idx (i - 1) 0) up 0 p.cols
          else read_neighbor up (i - 1);
          if i + 1 <= hi - 1 then
            Dsm.f64_get_run ctx grid (idx (i + 1) 0) down 0 p.cols
          else read_neighbor down (i + 1);
          Dsm.f64_get_run ctx grid (idx i 0) row 0 p.cols;
          let j = ref j0 in
          while !j <= p.cols - 2 do
            let v =
              0.25 *. (up.(!j) +. down.(!j) +. row.(!j - 1) +. row.(!j + 1))
            in
            if v <> row.(!j) then Dsm.f64_set ctx grid (idx i !j) v;
            j := !j + 2
          done;
          Dsm.compute ctx (ns_per_update * (p.cols - 2) / 2)
        done;
        Dsm.barrier ctx
      done
    done;
    if me = 0 then
      Common.set_checksum checksum
        (Dsm.f64_fold_run ctx grid 0 (p.rows * p.cols) ~init:0. ~f:Common.mix);
    Dsm.barrier ctx
  in
  (run, fun () -> Common.get_checksum checksum)
