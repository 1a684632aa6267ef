module Dsm = Adsm_dsm.Dsm
module Rng = Adsm_sim.Rng

type params = { bodies : int; steps : int; theta : float }

let default = { bodies = 512; steps = 10; theta = 0.5 }

let tiny = { bodies = 64; steps = 2; theta = 0.8 }

let data_desc p = Printf.sprintf "%d bodies" p.bodies

let sync_desc = "b"

(* 10 doubles per body (mass, pos3, vel3, acc3), 80 bytes: ~51 bodies per
   page.  Interleaved chunk ownership makes nearly every page
   multi-writer. *)
let body_size = 10

let chunk = 8 (* bodies per ownership chunk *)

let ns_per_interaction = 3_000

let ns_per_insert = 2_000

(* --- private octree --- *)

type cell = {
  mutable mass : float;
  mutable cx : float;
  mutable cy : float;
  mutable cz : float;
  mutable half : float;  (** half edge length *)
  mutable mx : float;
  mutable my : float;
  mutable mz : float;  (** center of mass *)
  mutable children : node array;  (** 8 octants, or [||] for none *)
  mutable body : int;  (** body index for a leaf, -1 otherwise *)
}

and node = Empty | Node of cell

let new_cell cx cy cz half =
  {
    mass = 0.;
    cx;
    cy;
    cz;
    half;
    mx = 0.;
    my = 0.;
    mz = 0.;
    children = [||];
    body = -1;
  }

let octant c x y z =
  (if x >= c.cx then 1 else 0)
  lor (if y >= c.cy then 2 else 0)
  lor if z >= c.cz then 4 else 0

(* A fresh empty cell for octant [o] of [c]. *)
let new_child c o =
  let q = c.half /. 2. in
  new_cell
    (c.cx +. if o land 1 = 1 then q else -.q)
    (c.cy +. if o land 2 = 2 then q else -.q)
    (c.cz +. if o land 4 = 4 then q else -.q)
    (c.half /. 2.)

(* Coincident (or nearly so) bodies would split forever; beyond the depth
   cap they are merged into the leaf's aggregate mass. *)
let max_depth = 24

let rec insert ?(depth = 0) c i x y z m inserts =
  incr inserts;
  if depth >= max_depth then begin
    (* aggregate leaf *)
    let total = c.mass +. m in
    if total > 0. then begin
      c.mx <- ((c.mx *. c.mass) +. (x *. m)) /. total;
      c.my <- ((c.my *. c.mass) +. (y *. m)) /. total;
      c.mz <- ((c.mz *. c.mass) +. (z *. m)) /. total
    end;
    c.mass <- total;
    c.body <- -2
  end
  else if Array.length c.children = 0 && c.body = -1 && c.mass = 0. then begin
    (* empty leaf slot *)
    c.body <- i;
    c.mass <- m;
    c.mx <- x;
    c.my <- y;
    c.mz <- z
  end
  else begin
    if Array.length c.children = 0 then begin
      (* split: push the resident body down *)
      c.children <- Array.make 8 Empty;
      let b = c.body in
      if b >= 0 then begin
        c.body <- -1;
        let o = octant c c.mx c.my c.mz in
        let sub = new_child c o in
        c.children.(o) <- Node sub;
        insert ~depth:(depth + 1) sub b c.mx c.my c.mz c.mass inserts;
        c.mass <- 0.
      end
    end;
    let o = octant c x y z in
    (match c.children.(o) with
    | Node sub -> insert ~depth:(depth + 1) sub i x y z m inserts
    | Empty ->
      let sub = new_child c o in
      c.children.(o) <- Node sub;
      insert ~depth:(depth + 1) sub i x y z m inserts)
  end

(* Children are summarized before any is summed: their subtrees are
   disjoint, so the sums read what a child-by-child pass would.  Plain
   loops and local float refs, so nothing is allocated. *)
let rec summarize c =
  let children = c.children in
  if Array.length children > 0 then begin
    for o = 0 to Array.length children - 1 do
      match children.(o) with Empty -> () | Node sub -> summarize sub
    done;
    let m = ref 0. and x = ref 0. and y = ref 0. and z = ref 0. in
    for o = 0 to Array.length children - 1 do
      match children.(o) with
      | Empty -> ()
      | Node sub ->
        m := !m +. sub.mass;
        x := !x +. (sub.mass *. sub.mx);
        y := !y +. (sub.mass *. sub.my);
        z := !z +. (sub.mass *. sub.mz)
    done;
    c.mass <- !m;
    if !m > 0. then begin
      c.mx <- !x /. !m;
      c.my <- !y /. !m;
      c.mz <- !z /. !m
    end
  end

(* The force walk's state for one body: its position, the opening
   criterion and the acceleration so far.  All floats, so the record is
   flat and its updates allocate nothing. *)
type probe = {
  px : float;
  py : float;
  pz : float;
  theta2 : float;  (** theta squared *)
  mutable ax : float;
  mutable ay : float;
  mutable az : float;
}

(* Add the force on body [i] from cell [c]'s subtree to [pr], counting
   the interactions. *)
let rec walk pr i interactions c =
  if c.mass > 0. then begin
    let dx = c.mx -. pr.px and dy = c.my -. pr.py and dz = c.mz -. pr.pz in
    let r2 = (dx *. dx) +. (dy *. dy) +. (dz *. dz) +. 1e-6 in
    let width = 2. *. c.half in
    let children = c.children in
    if Array.length children = 0 || width *. width < pr.theta2 *. r2 then begin
      if c.body <> i then begin
        incr interactions;
        let r = sqrt r2 in
        let f = c.mass /. (r2 *. r) in
        pr.ax <- pr.ax +. (f *. dx);
        pr.ay <- pr.ay +. (f *. dy);
        pr.az <- pr.az +. (f *. dz)
      end
    end
    else
      for o = 0 to Array.length children - 1 do
        match children.(o) with
        | Empty -> ()
        | Node sub -> walk pr i interactions sub
      done
  end

let make t p =
  let bodies = Dsm.alloc_f64 t ~name:"barnes-bodies" ~len:(p.bodies * body_size) in
  let checksum = Common.new_checksum () in
  let run ctx =
    let me = Dsm.me ctx and nprocs = Dsm.nprocs ctx in
    let mine i = i / chunk mod nprocs = me in
    let fidx i field = (i * body_size) + field in
    (* Initialize own bodies (interleaved chunks); a per-body seed makes
       the workload independent of the processor count. *)
    for i = 0 to p.bodies - 1 do
      if mine i then begin
        let rng = Rng.create (Int64.of_int ((i * 104729) + 7)) in
        Dsm.f64_set ctx bodies (fidx i 0) (1.0 +. Rng.float rng);
        for k = 0 to 2 do
          Dsm.f64_set ctx bodies (fidx i (1 + k)) (Rng.float rng -. 0.5);
          Dsm.f64_set ctx bodies (fidx i (4 + k))
            ((Rng.float rng -. 0.5) *. 0.01)
        done
      end
    done;
    Dsm.barrier ctx;
    for _step = 1 to p.steps do
      (* Build a private tree over all (shared) bodies. *)
      let root = new_cell 0. 0. 0. 1.0 in
      let inserts = ref 0 in
      for i = 0 to p.bodies - 1 do
        let m = Dsm.f64_get ctx bodies (fidx i 0)
        and x = Dsm.f64_get ctx bodies (fidx i 1)
        and y = Dsm.f64_get ctx bodies (fidx i 2)
        and z = Dsm.f64_get ctx bodies (fidx i 3) in
        insert root i x y z m inserts
      done;
      summarize root;
      Dsm.compute ctx (ns_per_insert * !inserts);
      (* Forces on own bodies via tree walk; update acceleration,
         velocity, position (fine-grained scattered writes). *)
      let interactions = ref 0 in
      let theta2 = p.theta *. p.theta in
      for i = 0 to p.bodies - 1 do
        if mine i then begin
          let x = Dsm.f64_get ctx bodies (fidx i 1)
          and y = Dsm.f64_get ctx bodies (fidx i 2)
          and z = Dsm.f64_get ctx bodies (fidx i 3) in
          let pr = { px = x; py = y; pz = z; theta2; ax = 0.; ay = 0.; az = 0. } in
          walk pr i interactions root;
          Dsm.f64_set ctx bodies (fidx i 7) pr.ax;
          Dsm.f64_set ctx bodies (fidx i 8) pr.ay;
          Dsm.f64_set ctx bodies (fidx i 9) pr.az
        end
      done;
      Dsm.compute ctx (ns_per_interaction * !interactions);
      (* Accelerations are complete everywhere before any position moves:
         the integration phase is separated by a barrier, as in SPLASH
         (otherwise tree-build reads would race with position writes). *)
      Dsm.barrier ctx;
      for i = 0 to p.bodies - 1 do
        if mine i then begin
          let dt = 0.005 in
          for k = 0 to 2 do
            let a = Dsm.f64_get ctx bodies (fidx i (7 + k)) in
            let vel = Dsm.f64_get ctx bodies (fidx i (4 + k)) +. (dt *. a) in
            Dsm.f64_set ctx bodies (fidx i (4 + k)) vel;
            let pos = Dsm.f64_get ctx bodies (fidx i (1 + k)) +. (dt *. vel) in
            (* reflect at the root cell's walls *)
            let pos =
              if pos > 0.99 then 1.98 -. pos
              else if pos < -0.99 then -1.98 -. pos
              else pos
            in
            let pos = max (-0.99) (min 0.99 pos) in
            Dsm.f64_set ctx bodies (fidx i (1 + k)) pos
          done
        end
      done;
      Dsm.compute ctx (ns_per_interaction * p.bodies / Dsm.nprocs ctx);
      Dsm.barrier ctx
    done;
    if me = 0 then begin
      let acc = ref 0. in
      for i = 0 to p.bodies - 1 do
        acc := Common.mix !acc (Dsm.f64_get ctx bodies (fidx i 1))
      done;
      Common.set_checksum checksum !acc
    end;
    Dsm.barrier ctx
  in
  (run, fun () -> Common.get_checksum checksum)
