(** Simulated point-to-point cluster network.

    Messages of type ['msg] are delivered to a per-node handler after the
    cost-model delay.  Each directed link is FIFO: a message never overtakes
    an earlier message on the same link.  The network also keeps message and
    byte counters, globally, per node, and per message [kind] label, which
    the experiment harness reads out for the paper's Table 4. *)

type 'msg t

(** Passive observation hooks, called synchronously from inside [send]
    (after counters are updated) and from inside the delivery event
    (before the receive handler runs).  A monitor must not send messages
    or schedule events — it exists so an upper layer (e.g. tracing) can
    watch traffic without the network depending on it, and without
    perturbing delivery order or cost. *)
type monitor = {
  on_send : now:int -> src:int -> dst:int -> bytes:int -> kind:Kind.t -> unit;
  on_deliver : now:int -> src:int -> dst:int -> bytes:int -> kind:Kind.t -> unit;
}

(** A flat network over the given cost model — shorthand for
    [create_topo] with {!Topology.flat}. *)
val create : Adsm_sim.Engine.t -> Netcfg.t -> nodes:int -> 'msg t

(** A network over an arbitrary fabric shape.  The [Flat] shape is
    byte-identical to [create]; tree shapes add switch hops and shared,
    serializing uplink channels (see {!Topology}). *)
val create_topo : Adsm_sim.Engine.t -> Topology.t -> nodes:int -> 'msg t

(** Install or remove the traffic monitor (at most one at a time). *)
val set_monitor : 'msg t -> monitor option -> unit

(** Install fault-injection runtime state ({!Fault.runtime}) built from
    the run's schedule, or remove it.  With no runtime installed (the
    default) the delivery path is byte-identical to a fault-free build. *)
val set_faults : 'msg t -> Fault.runtime option -> unit

(** Mark [node] crashed: messages addressed to it are parked instead of
    delivered.
    @raise Invalid_argument if no fault runtime is installed. *)
val fault_crash : 'msg t -> node:int -> unit

(** Restart [node]: clears the crashed flag and synchronously hands every
    parked message to its handler in arrival order.
    @raise Invalid_argument if no fault runtime is installed. *)
val fault_restart : 'msg t -> node:int -> unit

val nodes : 'msg t -> int

val config : 'msg t -> Netcfg.t

val topology : 'msg t -> Topology.t

(** Install the receive handler for [node].  Must be set before any message
    addressed to [node] is delivered. *)
val set_handler : 'msg t -> node:int -> (src:int -> 'msg -> unit) -> unit

(** [send t ~src ~dst ~bytes ~kind msg] transmits [msg] with a payload of
    [bytes] bytes.  [kind] labels the message for statistics.
    @raise Invalid_argument on self-sends or out-of-range nodes. *)
val send : 'msg t -> src:int -> dst:int -> bytes:int -> kind:Kind.t -> 'msg -> unit

(** Total messages delivered or in flight. *)
val total_messages : 'msg t -> int

(** Total payload bytes (excluding headers). *)
val total_payload_bytes : 'msg t -> int

(** Total bytes on the wire including per-message headers. *)
val total_wire_bytes : 'msg t -> int

(** [(messages, payload_bytes)] counters for one traffic kind. *)
val kind_counts : 'msg t -> kind:Kind.t -> int * int

(** Per-kind [(label, (messages, payload_bytes))] counters for every kind
    with traffic, sorted by label — the report format the harness and the
    Table 4 extraction consume. *)
val by_kind : 'msg t -> (string * (int * int)) list

(** [(sent, received)] message counts for [node]; received counts messages
    addressed to it that have been sent, whether or not yet delivered. *)
val node_counts : 'msg t -> node:int -> int * int

(** Reset all counters (topology and handlers are kept). *)
val reset_counters : 'msg t -> unit
