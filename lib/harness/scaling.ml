(* Node-count scaling study: sweep the cluster size from 8 to 1024
   simulated nodes and compare the paper's flat-fabric/central-barrier
   configuration against the large-cluster configuration (2-level
   switched tree, combining tree barrier, sharded lock homes, sparse
   vector-clock accounting).

   Everything runs at tiny scale: this study varies the CLUSTER, not the
   problem size.  Every app sweeps the whole grid to 1024 nodes — the
   large-n hot-path work (summarized clocks, indexed interval logs, O(1)
   notice coverage) brought the worst cells from minutes to seconds, see
   EXPERIMENTS.md.  The one exception is structural, not a cost cap:
   3D-FFT keeps one partial-norm slot per node and rejects clusters
   above [Fft3d.max_nprocs] (64) nodes.

   Two properties are checked over the collected rows and surfaced to the
   CLI (and CI) as hard failures:
   - the two fabrics must produce bit-identical application checksums for
     every (app, protocol, node count) — the fabric is a cost model, not
     a consistency change;
   - tree-barrier traffic must stay within c * n * log2 n messages per
     run, with the per-run round count derived from the smallest
     tree-fabric run of the same cell (a combining tree uses exactly
     2(n-1) messages per round; the bound fails loudly if a regression
     reintroduces an all-to-all or per-node fan-in). *)

module Config = Adsm_dsm.Config
module Registry = Adsm_apps.Registry
module Topology = Adsm_net.Topology

type fabric = Flat_central | Tree_combining

let fabric_name = function
  | Flat_central -> "flat"
  | Tree_combining -> "tree"

type row = {
  app : string;
  protocol : Config.protocol;
  nprocs : int;
  fabric : fabric;
  time_ns : int;
  speedup : float;
  messages : int;
  barrier_msgs : int;
  wire_bytes : int;
  checksum : float;
}

type study = { smoke : bool; max_nodes : int; rows : row list }

let node_grid = [ 8; 16; 32; 64; 128; 256; 512; 1024 ]

(* Structural limits only: 3D-FFT rejects clusters above its per-node
   norms array.  Cost is no longer a reason to cap — the former 256-node
   cap on IS and Water is gone. *)
let app_cap name =
  if String.lowercase_ascii name = "3d-fft" then Adsm_apps.Fft3d.max_nprocs
  else max_int

let default_apps =
  [ "SOR"; "IS"; "Water"; "3D-FFT"; "TSP"; "Shallow"; "Barnes"; "ILINK" ]

(* Rough host-cost weight of a cell, for dispatch order only: the
   lock-chain apps (IS, Water) are the heaviest cells at every size and
   IS still grows superlinearly in n (each barrier relays O(n) intervals
   with n-component timestamps), ILINK moves the most diff bytes;
   everything else is light.  Wrong weights cost a little wall clock,
   never correctness. *)
let cell_weight (app, _protocol, n, _fabric) =
  let factor =
    match String.lowercase_ascii app with
    | "is" | "water" -> 40
    | "ilink" -> 10
    | _ -> 1
  in
  factor * n * n

(* The CI smoke subset: one cheap app, the two protocol families, a
   sparse node grid.  Seconds of wall clock; the 1024 entry only fires
   when the caller raises [max_nodes] past 256 (the CI large-n cell). *)
let smoke_apps = [ "SOR" ]

let smoke_protocols = [ Config.Mw; Config.Wfs ]

let smoke_grid = [ 8; 32; 128; 256; 1024 ]

(* The large-cluster configuration under test: a 2-level switched tree
   (32 nodes per leaf switch), the combining barrier, lock homes sharded
   across one manager per switch, and delta-encoded vector-clock costs. *)
let tweak_of_fabric fabric cfg =
  match fabric with
  | Flat_central -> cfg
  | Tree_combining ->
    let shards = max 1 (cfg.Config.nprocs / 32) in
    {
      cfg with
      Config.topology = Topology.shape (Topology.tree cfg.Config.net);
      barrier_fanout = 4;
      lock_shards = shards;
      sparse_vc = true;
    }

let collect ?(smoke = false) ?(max_nodes = 1024) ?(jobs = 1) ?apps () =
  (* Both grids start at 8 nodes; a lower cap would sweep nothing. *)
  let min_nodes = List.hd node_grid in
  if max_nodes < min_nodes then
    invalid_arg
      (Printf.sprintf
         "Scaling.collect: max_nodes %d is below the grid's smallest node \
          count %d"
         max_nodes min_nodes);
  (* [apps] restricts the sweep to the named applications (CI smoke,
     local iteration). *)
  let apps =
    match apps with
    | Some l ->
      List.iter
        (fun a ->
          if Registry.find a = None then
            invalid_arg ("Scaling.collect: unknown app " ^ a))
        l;
      l
    | None -> if smoke then smoke_apps else default_apps
  in
  let protocols = if smoke then smoke_protocols else Config.all_protocols in
  let counts = if smoke then smoke_grid else node_grid in
  let cells =
    List.concat_map
      (fun a ->
        List.concat_map
          (fun p ->
            List.concat_map
              (fun n ->
                if n > max_nodes || n > app_cap a then []
                else [ (a, p, n, Flat_central); (a, p, n, Tree_combining) ])
              counts)
          protocols)
      apps
  in
  let run_cell (a, p, n, f) =
    let app =
      match Registry.find a with
      | Some e -> e
      | None -> invalid_arg ("Scaling.collect: unknown app " ^ a)
    in
    let m =
      Runner.run ~tweak:(tweak_of_fabric f) ~app ~protocol:p ~nprocs:n
        ~scale:Registry.Tiny ()
    in
    {
      app = m.Runner.app;
      protocol = p;
      nprocs = n;
      fabric = f;
      time_ns = m.Runner.time_ns;
      speedup = Runner.speedup m;
      messages = m.Runner.messages;
      barrier_msgs =
        (match List.assoc_opt "barrier" m.Runner.by_kind with
        | Some (count, _) -> count
        | None -> 0);
      wire_bytes = m.Runner.wire_bytes;
      checksum = m.Runner.checksum;
    }
  in
  (* Dispatch heaviest-first so a trailing 1024-node cell cannot
     serialize the tail of a [jobs > 1] sweep; rows still come back in
     grid order. *)
  let rows = Pool.map ~jobs ~weight:cell_weight run_cell cells in
  { smoke; max_nodes; rows }

(* ------------------------------------------------------------------ *)
(* Checks                                                             *)
(* ------------------------------------------------------------------ *)

(* The fabric is a cost model only: flat and tree runs of the same cell
   must agree bit-for-bit on the application result. *)
let checksum_mismatches study =
  List.filter_map
    (fun r ->
      if r.fabric <> Flat_central then None
      else
        match
          List.find_opt
            (fun r' ->
              r'.fabric = Tree_combining && r'.app = r.app
              && r'.protocol = r.protocol && r'.nprocs = r.nprocs)
            study.rows
        with
        | Some r' when r'.checksum <> r.checksum ->
          Some
            (Printf.sprintf "%s/%s/%d: flat %h vs tree %h" r.app
               (Config.protocol_name r.protocol)
               r.nprocs r.checksum r'.checksum)
        | _ -> None)
    study.rows

let log2_ceil n =
  let rec go acc v = if v >= n then acc else go (acc + 1) (v * 2) in
  go 0 1

(* Tree-barrier message bound.  A combining tree spends exactly 2(n-1)
   barrier messages per round, so the round count R of a cell is
   barrier_msgs / (2(n-1)) at the SMALLEST tree run; every larger run of
   the same (app, protocol) must stay within 4 * R * n * log2 n. *)
let barrier_bound_violations study =
  let tree_rows =
    List.filter (fun r -> r.fabric = Tree_combining && r.nprocs > 1) study.rows
  in
  let cells =
    List.sort_uniq compare
      (List.map (fun r -> (r.app, r.protocol)) tree_rows)
  in
  List.concat_map
    (fun (app, protocol) ->
      let rows =
        List.sort
          (fun a b -> Int.compare a.nprocs b.nprocs)
          (List.filter
             (fun r -> r.app = app && r.protocol = protocol)
             tree_rows)
      in
      match rows with
      | [] -> []
      | smallest :: _ ->
        let rounds =
          max 1 (smallest.barrier_msgs / (2 * (smallest.nprocs - 1)))
        in
        List.filter_map
          (fun r ->
            let bound = 4 * rounds * r.nprocs * log2_ceil r.nprocs in
            if r.barrier_msgs > bound then
              Some
                (Printf.sprintf
                   "%s/%s/%d: %d barrier messages > bound %d (R=%d)" r.app
                   (Config.protocol_name r.protocol)
                   r.nprocs r.barrier_msgs bound rounds)
            else None)
          rows)
    cells

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let counts_of study =
  List.sort_uniq Int.compare (List.map (fun r -> r.nprocs) study.rows)

let find_row study ~app ~protocol ~nprocs ~fabric =
  List.find_opt
    (fun r ->
      r.app = app && r.protocol = protocol && r.nprocs = nprocs
      && r.fabric = fabric)
    study.rows

let apps_of study =
  List.sort_uniq compare (List.map (fun r -> r.app) study.rows)

let protocols_of study =
  List.filter
    (fun p -> List.exists (fun r -> r.protocol = p) study.rows)
    Config.extended_protocols

(* Simulated-time table: one row per (app, protocol, fabric), one column
   per node count. *)
let table_times study =
  let counts = counts_of study in
  let rows =
    List.concat_map
      (fun app ->
        List.concat_map
          (fun protocol ->
            List.map
              (fun fabric ->
                app
                :: Config.protocol_name protocol
                :: fabric_name fabric
                :: List.map
                     (fun n ->
                       match find_row study ~app ~protocol ~nprocs:n ~fabric with
                       | Some r ->
                         Printf.sprintf "%.1f" (float_of_int r.time_ns /. 1e6)
                       | None -> "-")
                     counts)
              [ Flat_central; Tree_combining ])
          (protocols_of study))
      (apps_of study)
  in
  Tables.render
    ~title:
      "Node-count scaling: simulated time (ms) at tiny scale.\n\
       flat = paper fabric + central barrier; tree = 2-level switched\n\
       tree + combining barrier + sharded locks + sparse VCs."
    ~header:([ "Program"; "Protocol"; "Fabric" ] @ List.map string_of_int counts)
    rows

(* Protocol crossover: the fastest protocol per (app, fabric, node
   count).  This is the study's headline artifact — where the
   single-writer family overtakes multiple-writer as clusters grow. *)
let crossover study =
  let counts = counts_of study in
  let rows =
    List.concat_map
      (fun app ->
        List.map
          (fun fabric ->
            app
            :: fabric_name fabric
            :: List.map
                 (fun n ->
                   let cell =
                     List.filter
                       (fun r ->
                         r.app = app && r.fabric = fabric && r.nprocs = n)
                       study.rows
                   in
                   match cell with
                   | [] -> "-"
                   | first :: rest ->
                     let best =
                       List.fold_left
                         (fun acc r ->
                           if r.time_ns < acc.time_ns then r else acc)
                         first rest
                     in
                     Config.protocol_name best.protocol)
                 counts)
          [ Flat_central; Tree_combining ])
      (apps_of study)
  in
  Tables.render
    ~title:"Protocol crossover: fastest protocol per node count."
    ~header:([ "Program"; "Fabric" ] @ List.map string_of_int counts)
    rows

let render study = table_times study ^ "\n" ^ crossover study

(* ------------------------------------------------------------------ *)
(* JSON artifact                                                      *)
(* ------------------------------------------------------------------ *)

let to_json study =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf
    (Printf.sprintf "{\n  \"smoke\": %b,\n  \"max_nodes\": %d,\n  \"rows\": [\n"
       study.smoke study.max_nodes);
  List.iteri
    (fun i r ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf
        (Printf.sprintf
           "    {\"app\": %S, \"protocol\": %S, \"nprocs\": %d, \"fabric\": \
            %S, \"time_ns\": %d, \"speedup\": %.4f, \"messages\": %d, \
            \"barrier_msgs\": %d, \"wire_bytes\": %d, \"checksum\": %.17g}"
           r.app
           (Config.protocol_name r.protocol)
           r.nprocs (fabric_name r.fabric) r.time_ns r.speedup r.messages
           r.barrier_msgs r.wire_bytes r.checksum))
    study.rows;
  Buffer.add_string buf "\n  ]\n}\n";
  Buffer.contents buf
