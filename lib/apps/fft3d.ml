module Dsm = Adsm_dsm.Dsm

type params = { n1 : int; n2 : int; n3 : int; iters : int }

(* Plane geometry keeps re/im plane blocks page-aligned: an A plane's real
   part is n2*n3 = 512 doubles = exactly one page. *)
let default = { n1 = 32; n2 = 32; n3 = 16; iters = 6 }

let tiny = { n1 = 8; n2 = 8; n3 = 8; iters = 2 }

let data_desc p = Printf.sprintf "%dx%dx%d" p.n1 p.n2 p.n3

let sync_desc = "b"

let ns_fft_elem = 4_500 (* per element per butterfly stage *)

let ns_elem = 2_000 (* evolve / transpose per element *)

let log2i n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n / 2) in
  go 0 n

(* One partial-norm slot per node, all on one shared page. *)
let max_nprocs = 64

let make t p =
  let nprocs = (Dsm.config t).Adsm_dsm.Config.nprocs in
  if nprocs > max_nprocs then
    invalid_arg
      (Printf.sprintf
         "3D-FFT supports at most %d nodes (got %d): its per-node norms \
          array has %d slots"
         max_nprocs nprocs max_nprocs);
  let size = p.n1 * p.n2 * p.n3 in
  (* Split re/im halves keep plane blocks page-aligned. *)
  let a = Dsm.alloc_f64 t ~name:"fft-a" ~len:(2 * size) in
  let b = Dsm.alloc_f64 t ~name:"fft-b" ~len:(2 * size) in
  let norms = Dsm.alloc_f64 t ~name:"fft-norms" ~len:max_nprocs in
  let checksum = Common.new_checksum () in
  let run ctx =
    let me = Dsm.me ctx and nprocs = Dsm.nprocs ctx in
    (* A is partitioned along n1; B (the transpose target) along n3. *)
    let a_lo, a_hi = Common.band ~n:p.n1 ~nprocs ~me in
    let b_lo, b_hi = Common.band ~n:p.n3 ~nprocs ~me in
    let a_idx i j k = (((i * p.n2) + j) * p.n3) + k in
    let b_idx k j i = (((k * p.n2) + j) * p.n1) + i in
    let charge_fft n = Dsm.compute ctx (ns_fft_elem * n * log2i n) in
    let re3 = Array.make p.n3 0. and im3 = Array.make p.n3 0. in
    let re2 = Array.make p.n2 0. and im2 = Array.make p.n2 0. in
    let re1 = Array.make p.n1 0. and im1 = Array.make p.n1 0. in
    (* Initialize own planes with a deterministic field.

       Note the writes here (and in the loops below) stay per-word even
       though each half-row is run-contiguous: the scalar code
       interleaves re/im writes word by word across the two halves —
       two different pages — and under SW an ownership revocation can
       land while the writer is suspended in a mid-row fault, making
       the next write to the *other* page fault again.  Batching the
       halves into two runs would reorder that access sequence and
       change the protocol traffic.  Reads are batched below: losing
       ownership only downgrades to read-only, so a read run never
       faults past its first word and reordering-free bulk reads are
       behavior-neutral. *)
    for i = a_lo to a_hi - 1 do
      for j = 0 to p.n2 - 1 do
        for k = 0 to p.n3 - 1 do
          let x = float_of_int (((i * 31) + (j * 17) + (k * 7)) mod 97) in
          Dsm.f64_set ctx a (a_idx i j k) (sin x);
          Dsm.f64_set ctx a (size + a_idx i j k) (cos x)
        done
      done
    done;
    Dsm.compute ctx (ns_elem * (a_hi - a_lo) * p.n2 * p.n3);
    Dsm.barrier ctx;
    for iter = 1 to p.iters do
      let factor = 1.0 +. (0.01 *. float_of_int iter) in
      (* Evolve and FFT along n3 (locally contiguous rows of A). *)
      for i = a_lo to a_hi - 1 do
        for j = 0 to p.n2 - 1 do
          Dsm.f64_get_run ctx a (a_idx i j 0) re3 0 p.n3;
          Dsm.f64_get_run ctx a (size + a_idx i j 0) im3 0 p.n3;
          for k = 0 to p.n3 - 1 do
            re3.(k) <- factor *. re3.(k);
            im3.(k) <- factor *. im3.(k)
          done;
          Fft_core.fft ~invert:false re3 im3;
          for k = 0 to p.n3 - 1 do
            Dsm.f64_set ctx a (a_idx i j k) re3.(k);
            Dsm.f64_set ctx a (size + a_idx i j k) im3.(k)
          done;
          charge_fft p.n3
        done;
        (* FFT along n2 (strided but still within the local plane). *)
        for k = 0 to p.n3 - 1 do
          for j = 0 to p.n2 - 1 do
            re2.(j) <- Dsm.f64_get ctx a (a_idx i j k);
            im2.(j) <- Dsm.f64_get ctx a (size + a_idx i j k)
          done;
          Fft_core.fft ~invert:false re2 im2;
          for j = 0 to p.n2 - 1 do
            Dsm.f64_set ctx a (a_idx i j k) re2.(j);
            Dsm.f64_set ctx a (size + a_idx i j k) im2.(j)
          done;
          charge_fft p.n2
        done
      done;
      Dsm.barrier ctx;
      (* Transpose (remote, producer-consumer reads of A) and FFT along the
         now-contiguous n1 dimension of B. *)
      for k = b_lo to b_hi - 1 do
        for j = 0 to p.n2 - 1 do
          for i = 0 to p.n1 - 1 do
            re1.(i) <- Dsm.f64_get ctx a (a_idx i j k);
            im1.(i) <- Dsm.f64_get ctx a (size + a_idx i j k)
          done;
          Fft_core.fft ~invert:false re1 im1;
          (* Per-word interleaved writes: see the init-loop comment. *)
          for i = 0 to p.n1 - 1 do
            Dsm.f64_set ctx b (b_idx k j i) re1.(i);
            Dsm.f64_set ctx b (size + b_idx k j i) im1.(i)
          done;
          charge_fft p.n1;
          Dsm.compute ctx (ns_elem * p.n1)
        done
      done;
      (* Per-processor partial norm: all eight live in one shared page —
         the paper's single falsely-shared page with small writes. *)
      let norm = ref 0. in
      for k = b_lo to b_hi - 1 do
        for j = 0 to p.n2 - 1 do
          Dsm.f64_get_run ctx b (b_idx k j 0) re1 0 p.n1;
          Dsm.f64_get_run ctx b (size + b_idx k j 0) im1 0 p.n1;
          (* Accumulate in the scalar loop's exact FP order:
             re_i^2 then im_i^2, element by element. *)
          for i = 0 to p.n1 - 1 do
            norm := !norm +. (re1.(i) *. re1.(i)) +. (im1.(i) *. im1.(i))
          done
        done
      done;
      Dsm.compute ctx (ns_elem * (b_hi - b_lo) * p.n2 * p.n1);
      Dsm.f64_set ctx norms me !norm;
      Dsm.barrier ctx;
      if me = 0 && iter = p.iters then begin
        (* The partial-norm page demonstrates the falsely-shared page; the
           checksum itself reads B in a fixed order so it is independent of
           the processor count. *)
        for q = 0 to nprocs - 1 do
          ignore (Dsm.f64_get ctx norms q)
        done;
        let acc = ref 0. in
        let step = max 1 (size / 512) in
        let i = ref 0 in
        while !i < size do
          acc := Common.mix !acc (Dsm.f64_get ctx b !i);
          i := !i + step
        done;
        Common.set_checksum checksum !acc
      end;
      Dsm.barrier ctx
    done
  in
  (run, fun () -> Common.get_checksum checksum)
