(** Node-count scaling study: 8 to 1024 simulated nodes, flat
    fabric/central barrier vs 2-level tree fabric/combining barrier, at
    tiny scale (the study varies the cluster, not the problem size).

    See EXPERIMENTS.md, "Running a scaling sweep". *)

type fabric =
  | Flat_central  (** the paper's fabric: flat network, manager barrier *)
  | Tree_combining
      (** large-cluster configuration: 2-level switched tree, combining
          tree barrier (fanout 4), lock homes sharded one per switch,
          sparse vector-clock cost accounting *)

val fabric_name : fabric -> string

(** Configuration tweak selecting a fabric: [Flat_central] is the
    identity, [Tree_combining] switches on the 2-level tree topology,
    the combining barrier, sharded lock homes and sparse vector-clock
    accounting.  Exposed so the bench harness prices the same two
    configurations the study compares. *)
val tweak_of_fabric : fabric -> Adsm_dsm.Config.t -> Adsm_dsm.Config.t

type row = {
  app : string;
  protocol : Adsm_dsm.Config.protocol;
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

(** Run the grid.  [smoke] (default false) restricts to the CI subset
    (SOR, MW + WFS, sparse node grid — about a minute of wall clock).
    [max_nodes] (default 1024) truncates the node grid; every app sweeps
    the full grid except 3D-FFT, structurally capped at 64 nodes (its
    tiny problem has 64 planes).  [jobs] fans the independent runs over
    worker domains, dispatched heaviest-cell-first; the returned rows
    are in grid order regardless.  [apps] restricts the sweep to the named
    applications (any case), overriding the [smoke]/default app list.
    @raise Invalid_argument on an unknown app name or a [max_nodes]
    below the grid's smallest node count (8). *)
val collect :
  ?smoke:bool ->
  ?max_nodes:int ->
  ?jobs:int ->
  ?apps:string list ->
  unit ->
  study

(** Cells where the flat and tree fabrics disagree on the application
    checksum (must be empty: the fabric is a cost model only). *)
val checksum_mismatches : study -> string list

(** Tree-fabric cells whose barrier message count exceeds
    [4 * rounds * n * ceil(log2 n)] (must be empty; guards against
    reintroducing an all-to-all or a per-node fan-in). *)
val barrier_bound_violations : study -> string list

(** Simulated-time and protocol-crossover text tables. *)
val render : study -> string

val crossover : study -> string

(** Machine-readable artifact (one object per row). *)
val to_json : study -> string
