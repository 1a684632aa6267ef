module Engine = Adsm_sim.Engine

type monitor = {
  on_send : now:int -> src:int -> dst:int -> bytes:int -> kind:Kind.t -> unit;
  on_deliver : now:int -> src:int -> dst:int -> bytes:int -> kind:Kind.t -> unit;
}

(* Fault-injection state: the schedule-level runtime (RNG, down flags,
   counters) plus per-node queues of messages that arrived while their
   destination was crashed, parked here and handed to the handler when
   the node restarts.  The queues live in this record (not in
   [Fault.runtime]) because they hold ['msg] values. *)
type 'msg faults = {
  rt : Fault.runtime;
  parked : (int * 'msg) Queue.t array;  (* per dst: (src, msg), FIFO *)
}

type 'msg t = {
  engine : Engine.t;
  topo : Topology.t;
  cfg : Netcfg.t;  (** [Topology.base topo], kept unpacked for the hot path *)
  node_count : int;
  handlers : (src:int -> 'msg -> unit) option array;
  tx_free : int array;  (** sender NIC: next instant it can start a send *)
  rx_free : int array;  (** receiver NIC: next instant it can accept data *)
  up_free : int array;
      (** per leaf switch: next instant its root-bound uplink channel is
          free (tree shapes only; [[||]] under [Flat]) *)
  down_free : int array;  (** per leaf switch: root-to-leaf channel *)
  mutable messages : int;
  mutable payload_bytes : int;
  mutable wire_bytes : int;
  kind_msgs : int array;  (** indexed by [Kind.index] *)
  kind_bytes : int array;
  sent : int array;
  received : int array;
  mutable monitor : monitor option;
  mutable faults : 'msg faults option;
}

let create_topo engine topo ~nodes =
  if nodes <= 0 then
    invalid_arg "Network.create_topo: need at least one node";
  let switches =
    if Topology.is_flat topo then 0 else Topology.switch_count topo ~nodes
  in
  {
    engine;
    topo;
    cfg = Topology.base topo;
    node_count = nodes;
    handlers = Array.make nodes None;
    tx_free = Array.make nodes 0;
    rx_free = Array.make nodes 0;
    up_free = Array.make switches 0;
    down_free = Array.make switches 0;
    messages = 0;
    payload_bytes = 0;
    wire_bytes = 0;
    kind_msgs = Array.make Kind.count 0;
    kind_bytes = Array.make Kind.count 0;
    sent = Array.make nodes 0;
    received = Array.make nodes 0;
    monitor = None;
    faults = None;
  }

let create engine cfg ~nodes = create_topo engine (Topology.flat cfg) ~nodes

let set_monitor t monitor = t.monitor <- monitor

let set_faults t rt =
  t.faults <-
    Option.map
      (fun rt ->
        { rt; parked = Array.init t.node_count (fun _ -> Queue.create ()) })
      rt

(* Mark [node] crashed: subsequent deliveries to it are parked. *)
let fault_crash t ~node =
  match t.faults with
  | None -> invalid_arg "Network.fault_crash: no fault schedule installed"
  | Some f -> f.rt.Fault.down.(node) <- true

(* Restart [node]: clear the down flag and hand every parked message to
   the handler, in arrival order, from the caller's (event) context. *)
let fault_restart t ~node =
  match t.faults with
  | None -> invalid_arg "Network.fault_restart: no fault schedule installed"
  | Some f ->
    f.rt.Fault.down.(node) <- false;
    let q = f.parked.(node) in
    while not (Queue.is_empty q) do
      let src, msg = Queue.pop q in
      match t.handlers.(node) with
      | Some handler -> handler ~src msg
      | None ->
        failwith (Printf.sprintf "Network: node %d has no handler" node)
    done

let nodes t = t.node_count

let config t = t.cfg

let topology t = t.topo

let set_handler t ~node f =
  if node < 0 || node >= t.node_count then
    invalid_arg "Network.set_handler: node out of range";
  t.handlers.(node) <- Some f

let count t ~src ~dst ~bytes ~kind =
  t.messages <- t.messages + 1;
  t.payload_bytes <- t.payload_bytes + bytes;
  t.wire_bytes <- t.wire_bytes + bytes + t.cfg.Netcfg.header_bytes;
  t.sent.(src) <- t.sent.(src) + 1;
  t.received.(dst) <- t.received.(dst) + 1;
  let k = Kind.index kind in
  t.kind_msgs.(k) <- t.kind_msgs.(k) + 1;
  t.kind_bytes.(k) <- t.kind_bytes.(k) + bytes

(* Endpoint-serialized transfer: the payload occupies the sender's NIC,
   crosses the fabric, then occupies the receiver's NIC.  On the flat
   shape, uncontended, this reduces exactly to [Netcfg.one_way_ns];
   under contention concurrent transfers into (or out of) one node
   queue up, which is what limited the paper's SPARC/ATM testbed.  On
   a tree shape the payload additionally traverses switches and — for
   cross-switch traffic — the two shared uplink channels, each of
   which serializes contending transfers the same way the NICs do. *)
let send t ~src ~dst ~bytes ~kind msg =
  if src < 0 || src >= t.node_count then
    invalid_arg "Network.send: src out of range";
  if dst < 0 || dst >= t.node_count then
    invalid_arg "Network.send: dst out of range";
  if src = dst then invalid_arg "Network.send: self-send";
  if bytes < 0 then invalid_arg "Network.send: negative size";
  let now = Engine.now t.engine in
  count t ~src ~dst ~bytes ~kind;
  (match t.monitor with
  | None -> ()
  | Some m -> m.on_send ~now ~src ~dst ~bytes ~kind);
  let cfg = t.cfg in
  let bytes_ns = (cfg.Netcfg.header_bytes + bytes) * cfg.Netcfg.per_byte_ns in
  let tx_start = max (now + cfg.Netcfg.send_overhead_ns) t.tx_free.(src) in
  let tx_end = tx_start + bytes_ns in
  t.tx_free.(src) <- tx_end;
  let fabric_arrival =
    match Topology.shape t.topo with
    | Topology.Flat -> tx_end + cfg.Netcfg.wire_latency_ns
    | Topology.Tree tr ->
      let s_src = src / tr.Topology.nodes_per_switch in
      let s_dst = dst / tr.Topology.nodes_per_switch in
      let at_src_switch =
        tx_end + tr.Topology.edge_latency_ns + tr.Topology.switch_ns
      in
      if s_src = s_dst then at_src_switch + tr.Topology.edge_latency_ns
      else begin
        let up = tr.Topology.uplink in
        let up_bytes_ns =
          (cfg.Netcfg.header_bytes + bytes) * up.Topology.per_byte_ns
        in
        (* Root-bound channel of the source's leaf switch. *)
        let up_start = max at_src_switch t.up_free.(s_src) in
        let up_end = up_start + up_bytes_ns in
        t.up_free.(s_src) <- up_end;
        let at_root = up_end + up.Topology.latency_ns + tr.Topology.switch_ns in
        (* Leaf-bound channel of the destination's switch. *)
        let down_start = max at_root t.down_free.(s_dst) in
        let down_end = down_start + up_bytes_ns in
        t.down_free.(s_dst) <- down_end;
        down_end + up.Topology.latency_ns + tr.Topology.switch_ns
        + tr.Topology.edge_latency_ns
      end
  in
  (* Fault perturbations (loss retransmits, duplication, jitter,
     partition holds) delay the fabric crossing and add wire bytes.
     They land before receiver-NIC serialization, so per-link FIFO
     order is preserved: rx_done stays strictly monotone per dst. *)
  let fabric_arrival =
    match t.faults with
    | None -> fabric_arrival
    | Some f ->
      let arrival, overhead =
        Fault.perturb f.rt ~now ~arrival:fabric_arrival ~src ~dst
          ~wire_bytes:(cfg.Netcfg.header_bytes + bytes)
      in
      if overhead > 0 then t.wire_bytes <- t.wire_bytes + overhead;
      arrival
  in
  (* The receiving NIC is occupied for the payload's transfer time: a
     message queues behind earlier arrivals still being received. *)
  let rx_done = max fabric_arrival (t.rx_free.(dst) + bytes_ns) in
  t.rx_free.(dst) <- rx_done;
  let delivery = rx_done + cfg.Netcfg.recv_overhead_ns in
  Engine.schedule_at t.engine ~time:delivery (fun () ->
      (match t.monitor with
      | None -> ()
      | Some m -> m.on_deliver ~now:delivery ~src ~dst ~bytes ~kind);
      match t.faults with
      | Some f when f.rt.Fault.down.(dst) ->
        (* Destination is crashed: park the message; [fault_restart]
           replays the queue in arrival order. *)
        Queue.add (src, msg) f.parked.(dst)
      | _ -> (
        match t.handlers.(dst) with
        | Some handler -> handler ~src msg
        | None ->
          failwith (Printf.sprintf "Network: node %d has no handler" dst)))

let total_messages t = t.messages

let total_payload_bytes t = t.payload_bytes

let total_wire_bytes t = t.wire_bytes

let kind_counts t ~kind =
  let k = Kind.index kind in
  (t.kind_msgs.(k), t.kind_bytes.(k))

let by_kind t =
  List.filter_map
    (fun kind ->
      let k = Kind.index kind in
      if t.kind_msgs.(k) = 0 then None
      else Some (Kind.to_string kind, (t.kind_msgs.(k), t.kind_bytes.(k))))
    Kind.all
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let node_counts t ~node =
  if node < 0 || node >= t.node_count then
    invalid_arg "Network.node_counts: node out of range";
  (t.sent.(node), t.received.(node))

let reset_counters t =
  t.messages <- 0;
  t.payload_bytes <- 0;
  t.wire_bytes <- 0;
  Array.fill t.kind_msgs 0 Kind.count 0;
  Array.fill t.kind_bytes 0 Kind.count 0;
  Array.fill t.sent 0 t.node_count 0;
  Array.fill t.received 0 t.node_count 0
