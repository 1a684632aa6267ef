(** Cluster fabric description: the flat all-pairs model of the paper, or
    a 2-level switched tree for the scaling studies.

    A topology is a {!Netcfg} base cost model (NIC overheads and
    bandwidth) plus a {!shape}.  The [Flat] shape reproduces the
    historical flat network byte-for-byte; the [Tree] shape adds leaf
    switches and a root with per-hop latencies and shared, serializing
    uplink channels. *)

type link = { latency_ns : int; per_byte_ns : int }

type tree = {
  nodes_per_switch : int;  (** leaf switch radix *)
  edge_latency_ns : int;  (** node NIC <-> leaf switch wire, each way *)
  switch_ns : int;  (** forwarding cost per switch traversal *)
  uplink : link;
      (** leaf <-> root channel; one shared, serializing channel per
          direction per leaf switch *)
}

type shape = Flat | Tree of tree

type t = private { base : Netcfg.t; shape : shape }

(** The paper's flat network over the given cost model. *)
val flat : Netcfg.t -> t

(** A 2-level tree over the given cost model.  Defaults: 32 nodes per
    switch, edge latency = half the flat wire latency, 1 us switch
    traversal, uplink at the flat wire latency with 4x the NIC
    bandwidth. *)
val tree :
  ?nodes_per_switch:int ->
  ?edge_latency_ns:int ->
  ?switch_ns:int ->
  ?uplink:link ->
  Netcfg.t ->
  t

(** Pair a cost model with an already-built shape. *)
val make : Netcfg.t -> shape -> t

val base : t -> Netcfg.t

val shape : t -> shape

val is_flat : t -> bool

val switch_count : t -> nodes:int -> int

(** Parse ["flat"], ["tree"], or ["tree:N"] (N = nodes per switch); tree
    hop costs are derived from [base]. *)
val shape_of_string : base:Netcfg.t -> string -> (shape, string) result
