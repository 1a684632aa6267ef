module Dsm = Adsm_dsm.Dsm
module Rng = Adsm_sim.Rng

type params = { molecules : int; steps : int; cutoff : float }

let default = { molecules = 512; steps = 5; cutoff = 0.28 }

let tiny = { molecules = 48; steps = 2; cutoff = 0.9 }

let data_desc p = Printf.sprintf "%d molecules" p.molecules

let sync_desc = "l,b"

(* 76 doubles per molecule = 608 bytes: ~6.7 molecules per page, matching
   the paper's "on average 6 molecule data-structures per page".  608 does
   not divide the page size, so band boundaries fall mid-page and adjacent
   processors falsely share the boundary pages, as in the paper. *)
let mol_size = 76

let pos_off = 0 (* 3 doubles *)

let vel_off = 3 (* 3 doubles *)

let force_off = 6 (* 3 doubles *)

let ns_per_pair = 18_000

let ns_per_mol = 3_000

(* Quantize to multiples of 2^-20: fixed-point values of bounded magnitude
   add exactly in float64, so cross-processor accumulation order (which
   depends on lock arrival order, hence on the protocol) cannot change the
   result.  This keeps checksums bit-identical across all four protocols. *)
let quantum = 1048576.0

let quantize v = Float.round (v *. quantum) /. quantum

let make t p =
  let mols = Dsm.alloc_f64 t ~name:"water-molecules" ~len:(p.molecules * mol_size) in
  let energy = Dsm.alloc_f64 t ~name:"water-energy" ~len:8 in
  let checksum = Common.new_checksum () in
  (* One lock per owner region plus the energy lock. *)
  let max_regions = 16 in
  let region_lock =
    Array.init max_regions (fun _ -> Dsm.fresh_lock t)
  in
  let energy_lock = Dsm.fresh_lock t in
  let run ctx =
    let me = Dsm.me ctx and nprocs = Dsm.nprocs ctx in
    let lo, hi = Common.band ~n:p.molecules ~nprocs ~me in
    let fidx m field = (m * mol_size) + field in
    (* Run buffers: force clear and the pair loop's position reads. *)
    let zero3 = Array.make 3 0. in
    let pos3i = Array.make 3 0. and pos3j = Array.make 3 0. in
    (* The pair loop's private force sums, slot [3m + k] for component
       [k] of molecule [m], and whether the slot has had a contribution
       this step. *)
    let sums = Array.make (3 * p.molecules) 0. in
    let seen = Bytes.make (3 * p.molecules) '\000' in
    (* Initialize own molecules deterministically; per-molecule seeds keep
       the workload independent of the processor count. *)
    for m = lo to hi - 1 do
      let rng = Rng.create (Int64.of_int ((m * 7_919) + 101)) in
      for k = 0 to 2 do
        Dsm.f64_set ctx mols (fidx m (pos_off + k)) (Rng.float rng);
        Dsm.f64_set ctx mols (fidx m (vel_off + k)) ((Rng.float rng -. 0.5) *. 0.01)
      done
    done;
    Dsm.barrier ctx;
    for _step = 1 to p.steps do
      (* Clear own forces (unsynchronized writes: boundary pages falsely
         shared between adjacent bands).  One 3-word run per molecule —
         same words in the same ascending order as the scalar loop, so a
         molecule straddling a page boundary faults in the same
         sequence. *)
      for m = lo to hi - 1 do
        Dsm.f64_set_run ctx mols (fidx m force_off) zero3 0 3
      done;
      Dsm.compute ctx (ns_per_mol * (hi - lo));
      Dsm.barrier ctx;
      (* Pairwise forces with cutoff.  Own half of the i<j pair matrix;
         contributions to other processors' molecules are accumulated
         privately and added under the owner region's lock.

         [contrib] holds only the keys with a contribution.  The
         write-back walks it with [Hashtbl.iter], and that order decides
         which page the locked write-back touches first, so it is
         simulated behaviour: each key is added once, on its first
         contribution, which gives the table the insertion sequence (and
         so the bucket order) of a table holding the running sums, while
         the sums themselves grow in [sums] by the same additions. *)
      let contrib = Hashtbl.create 64 in
      let add_contrib m k v =
        let slot = (3 * m) + k in
        if Bytes.get seen slot = '\000' then begin
          Bytes.set seen slot '\001';
          Hashtbl.add contrib (m, k) ()
        end;
        sums.(slot) <- v +. sums.(slot)
      in
      let pairs = ref 0 in
      for i = lo to hi - 1 do
        Dsm.f64_get_run ctx mols (fidx i pos_off) pos3i 0 3;
        let xi = pos3i.(0) and yi = pos3i.(1) and zi = pos3i.(2) in
        for j = i + 1 to p.molecules - 1 do
          incr pairs;
          Dsm.f64_get_run ctx mols (fidx j pos_off) pos3j 0 3;
          let dx = xi -. pos3j.(0)
          and dy = yi -. pos3j.(1)
          and dz = zi -. pos3j.(2) in
          let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) in
          if r2 < p.cutoff *. p.cutoff && r2 > 1e-12 then begin
            let f = 1e-4 /. (r2 +. 0.01) in
            add_contrib i 0 (quantize (f *. dx));
            add_contrib i 1 (quantize (f *. dy));
            add_contrib i 2 (quantize (f *. dz));
            add_contrib j 0 (quantize (-.f *. dx));
            add_contrib j 1 (quantize (-.f *. dy));
            add_contrib j 2 (quantize (-.f *. dz))
          end
        done
      done;
      Dsm.compute ctx (ns_per_pair * !pairs);
      (* Write the contributions back, one owner region at a time, each
         under that region's lock (ordered writes: migratory pages). *)
      for q = 0 to nprocs - 1 do
        let qlo, qhi = Common.band ~n:p.molecules ~nprocs ~me:q in
        let any =
          Hashtbl.fold
            (fun (m, _) _ acc -> acc || (m >= qlo && m < qhi))
            contrib false
        in
        if any then begin
          Dsm.lock ctx region_lock.(q mod Array.length region_lock);
          Hashtbl.iter
            (fun (m, k) () ->
              if m >= qlo && m < qhi then begin
                let idx = fidx m (force_off + k) in
                Dsm.f64_set ctx mols idx
                  (Dsm.f64_get ctx mols idx +. sums.((3 * m) + k))
              end)
            contrib;
          Dsm.unlock ctx region_lock.(q mod Array.length region_lock)
        end
      done;
      Array.fill sums 0 (Array.length sums) 0.;
      Bytes.fill seen 0 (Bytes.length seen) '\000';
      Dsm.barrier ctx;
      (* Integrate own molecules and accumulate the potential-energy
         partial sum under a lock (small migratory writes). *)
      let partial = ref 0. in
      for m = lo to hi - 1 do
        for k = 0 to 2 do
          let v =
            Dsm.f64_get ctx mols (fidx m (vel_off + k))
            +. Dsm.f64_get ctx mols (fidx m (force_off + k))
          in
          Dsm.f64_set ctx mols (fidx m (vel_off + k)) v;
          let x = Dsm.f64_get ctx mols (fidx m (pos_off + k)) +. (0.01 *. v) in
          (* keep molecules in the unit box *)
          let x = x -. Float.of_int (int_of_float x) in
          let x = if x < 0. then x +. 1. else x in
          Dsm.f64_set ctx mols (fidx m (pos_off + k)) x;
          partial := !partial +. (v *. v)
        done
      done;
      Dsm.compute ctx (ns_per_mol * (hi - lo));
      Dsm.lock ctx energy_lock;
      Dsm.f64_set ctx energy 0
        (Dsm.f64_get ctx energy 0 +. quantize !partial);
      Dsm.unlock ctx energy_lock;
      Dsm.barrier ctx
    done;
    if me = 0 then begin
      let acc = ref (Dsm.f64_get ctx energy 0) in
      for m = 0 to p.molecules - 1 do
        acc := Common.mix !acc (Dsm.f64_get ctx mols (fidx m pos_off))
      done;
      Common.set_checksum checksum !acc
    end;
    Dsm.barrier ctx
  in
  (run, fun () -> Common.get_checksum checksum)
