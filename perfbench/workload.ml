(* The benchmark's four workloads.  Each is a closed batch of simulation
   runs executed back to back; README.md says why each exists and which
   layers it stresses. *)

module Config = Adsm_dsm.Config
module Registry = Adsm_apps.Registry
module Scaling = Adsm_harness.Scaling
module Fault = Adsm_net.Fault
module Rng = Adsm_sim.Rng

type cell = {
  app : Registry.entry;
  protocol : Config.protocol;
  nprocs : int;
  scale : Registry.scale;
  fabric : Scaling.fabric;
  crash_twin : int option;
      (** [Some i]: run under a crash schedule derived from the simulated
          time of fault-free cell [i] of the same workload, and require
          that cell's checksum *)
}

let names = [ "paper8"; "n1024"; "is512"; "crash8" ]

let app name =
  match Registry.find name with
  | Some a -> a
  | None -> invalid_arg ("perfbench: unknown application " ^ name)

let cell ?(fabric = Scaling.Flat_central) ~scale ~nprocs name protocol =
  { app = app name; protocol; nprocs; scale; fabric; crash_twin = None }

let grid ?fabric ~scale ~nprocs apps protocols =
  List.concat_map
    (fun a -> List.map (fun p -> cell ?fabric ~scale ~nprocs a p) protocols)
    apps

(* SOR/MW at default scale aborts after a crash ("node N has no copy of
   page P to serve", README.md "Known failures"), so crash8 leaves that
   one cell out until the recovery bug is fixed: the benchmark must run on
   inputs where nothing fails.  At tiny scale (the smoke test) it passes
   and stays in. *)
let crash_excluded c = c.app.Registry.name = "SOR" && c.protocol = Config.Mw

(* Each fault-free cell is followed by its crashed twin. *)
let with_crash_twins cells =
  List.concat
    (List.mapi (fun i c -> [ c; { c with crash_twin = Some (2 * i) } ]) cells)

(* [smoke] shrinks every workload so all four finish in a few seconds
   together: paper8 and crash8 at tiny scale, the large-n workloads at 64
   nodes. *)
let make ~smoke name =
  let scale = if smoke then Registry.Tiny else Registry.Default in
  let big n = if smoke then 64 else n in
  let tree = Scaling.Tree_combining and flat = Scaling.Flat_central in
  let cells =
    match name with
    | "paper8" -> grid ~scale ~nprocs:8 Registry.names Config.all_protocols
    | "n1024" ->
      let n = big 1024 and scale = Registry.Tiny in
      List.concat_map
        (fun fabric ->
          grid ~fabric ~scale ~nprocs:n [ "SOR" ] [ Config.Mw; Config.Wfs ])
        [ flat; tree ]
      @ [ cell ~fabric:tree ~scale ~nprocs:n "TSP" Config.Mw ]
    | "is512" ->
      grid ~fabric:tree ~scale:Registry.Tiny ~nprocs:(big 512) [ "IS" ]
        [ Config.Wfs; Config.Sw ]
    | "crash8" ->
      grid ~scale ~nprocs:8 [ "SOR"; "IS"; "Water" ] Config.all_protocols
      |> List.filter (fun c -> smoke || not (crash_excluded c))
      |> with_crash_twins
    | _ -> invalid_arg ("perfbench: unknown workload " ^ name)
  in
  Array.of_list cells

(* Two crashes on distinct nodes other than node 0: crash i starts at
   (i+1)d/3 +- d/12 and lasts d/10, where d is the fault-free simulated
   time, so the two downtimes never overlap and both land mid-run.  Node
   0, the barrier manager, is spared because some of its crashes trip a
   known recovery bug (README.md, "Known failures"). *)
let crash_schedule rng ~nprocs ~duration_ns:d =
  let first = 1 + Rng.int rng (nprocs - 1) in
  let second = 1 + ((first + Rng.int rng (nprocs - 2)) mod (nprocs - 1)) in
  let crash i node =
    let jitter = Rng.int rng ((d / 6) + 1) - (d / 12) in
    { Fault.node; at = ((i + 1) * d / 3) + jitter; downtime = max 1 (d / 10) }
  in
  { Fault.empty with Fault.crashes = [ crash 0 first; crash 1 second ] }

let label c =
  Printf.sprintf "%s/%s/%d/%s%s%s" c.app.Registry.name
    (Config.protocol_name c.protocol)
    c.nprocs
    (Scaling.fabric_name c.fabric)
    (match c.scale with Registry.Tiny -> "/tiny" | Registry.Default -> "")
    (match c.crash_twin with Some _ -> "/crash" | None -> "")
