(** Request/reply layer over {!Network} for simulated processes.

    A client process [call]s and suspends until the server's reply arrives.
    Servers receive a [respond] closure and may reply immediately or later
    (e.g. to model the SW protocol's ownership quantum).  One-way messages
    ([cast]) bypass the correlation machinery. *)

type 'msg t

(** What travels on the wire: a payload tagged as request, reply or
    one-way, with the correlation id that pairs a reply to its call. *)
type 'msg envelope

type 'msg respond = bytes:int -> kind:Kind.t -> 'msg -> unit

(** What a node does with an incoming message. *)
type 'msg handler = src:int -> 'msg -> 'msg respond option -> unit
(** The [respond option] is [Some r] for requests ([call]) and [None] for
    one-way messages ([cast]). *)

val create : Adsm_sim.Engine.t -> Netcfg.t -> nodes:int -> 'msg t

(** Like [create] but over an arbitrary fabric shape (see {!Topology}). *)
val create_topo : Adsm_sim.Engine.t -> Topology.t -> nodes:int -> 'msg t

val nodes : 'msg t -> int

(** The underlying network (for statistics). *)
val network : 'msg t -> 'msg envelope Network.t

(** Install or remove a {!Network.monitor} on the underlying network.
    Requests, replies and casts are all observed (each as one message,
    with its [kind] label and payload size). *)
val set_monitor : 'msg t -> Network.monitor option -> unit

val set_handler : 'msg t -> node:int -> 'msg handler -> unit

(** Blocking request; must run in process context.  Returns the reply. *)
val call : 'msg t -> src:int -> dst:int -> bytes:int -> kind:Kind.t -> 'msg -> 'msg

(** Non-blocking request: returns immediately with a cell that the reply
    will fill.  Used to overlap several requests (e.g. fetching diffs from
    all writers of a page in parallel, as TreadMarks does). *)
val call_async :
  'msg t -> src:int -> dst:int -> bytes:int -> kind:Kind.t -> 'msg ->
  'msg Adsm_sim.Proc.Ivar.t

(** Fire-and-forget message. *)
val cast : 'msg t -> src:int -> dst:int -> bytes:int -> kind:Kind.t -> 'msg -> unit
