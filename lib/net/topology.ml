(* Cluster fabric description.

   The flat shape is the paper's model: every node pair is connected by
   the same [Netcfg] cost, and only the endpoint NICs serialize.  The
   tree shape models the 2-level switched clusters the scaling study
   targets: nodes attach via their NIC to a leaf switch, leaf switches
   connect by an uplink to a root switch, and each uplink direction is a
   shared channel that serializes contending transfers exactly the way
   the endpoint NICs already do.  Same-switch traffic never touches the
   uplinks.

   The shape is pure description; the cost arithmetic lives in
   {!Network.send}. *)

type link = { latency_ns : int; per_byte_ns : int }

type tree = {
  nodes_per_switch : int;
  edge_latency_ns : int;  (* node NIC <-> leaf switch, each way *)
  switch_ns : int;  (* forwarding cost per switch traversal *)
  uplink : link;  (* leaf switch <-> root, one shared channel per direction *)
}

type shape = Flat | Tree of tree

type t = { base : Netcfg.t; shape : shape }

let flat base = { base; shape = Flat }

(* Tree defaults carve the flat wire latency into its hops — half for
   each node<->switch edge — so an uncontended same-switch hop costs
   about one flat hop plus the switch traversal, and give the uplink 4x
   the NIC's bandwidth (an 8:1 oversubscription at the default 32-node
   radix, typical of real 2-level fabrics). *)
let tree ?(nodes_per_switch = 32) ?edge_latency_ns ?(switch_ns = 1_000)
    ?uplink (base : Netcfg.t) =
  if nodes_per_switch <= 0 then
    invalid_arg "Topology.tree: nodes_per_switch must be positive";
  let edge_latency_ns =
    match edge_latency_ns with
    | Some l -> l
    | None -> base.Netcfg.wire_latency_ns / 2
  in
  let uplink =
    match uplink with
    | Some l -> l
    | None ->
      {
        latency_ns = base.Netcfg.wire_latency_ns;
        per_byte_ns = max 1 (base.Netcfg.per_byte_ns / 4);
      }
  in
  {
    base;
    shape = Tree { nodes_per_switch; edge_latency_ns; switch_ns; uplink };
  }

let make base shape =
  match shape with
  | Flat -> flat base
  | Tree tr ->
    if tr.nodes_per_switch <= 0 then
      invalid_arg "Topology.make: nodes_per_switch must be positive";
    { base; shape }

let base t = t.base

let shape t = t.shape

let is_flat t = t.shape = Flat

let switch_count t ~nodes =
  match t.shape with
  | Flat -> 1
  | Tree tr -> ((nodes - 1) / tr.nodes_per_switch) + 1

(* "flat" | "tree" | "tree:<nodes-per-switch>", applied to a base cost
   model by the caller. *)
let shape_of_string ~base s =
  match String.lowercase_ascii s with
  | "flat" -> Ok Flat
  | "tree" -> Ok (tree base).shape
  | s when String.length s > 5 && String.sub s 0 5 = "tree:" -> (
    match int_of_string_opt (String.sub s 5 (String.length s - 5)) with
    | Some k when k > 0 -> Ok (tree ~nodes_per_switch:k base).shape
    | Some _ | None ->
      Error (Printf.sprintf "invalid tree radix in topology %S" s))
  | _ -> Error (Printf.sprintf "unknown topology %S (try flat, tree, tree:N)" s)
