(** Discrete-event simulation engine.

    Simulated time is an integer number of nanoseconds.  All state changes in
    a simulation happen inside events; [run] drains the event queue on one
    thread in deterministic [(time, insertion)] order. *)

type t

(** [create ?schedule_seed ?lanes ()] makes a fresh engine.  By
    default, same-instant events fire in scheduling order (FIFO).  With
    [schedule_seed], their order is permuted deterministically from the
    seed — schedule fuzzing: different seeds explore different legal
    interleavings, and correct protocols must produce identical results
    under all of them.

    [lanes] (default 1) splits the event queue into that many per-lane
    sub-heaps (see {!Eheap}): with one lane per simulated node, heap
    operations cost O(log per-node events) instead of O(log total).  The
    lane split never changes the execution order — a 1-lane and an n-lane
    engine run byte-identical simulations.
    @raise Invalid_argument if [lanes <= 0]. *)
val create : ?schedule_seed:int -> ?lanes:int -> unit -> t

(** Current simulated time in nanoseconds. *)
val now : t -> int

(** [schedule ?lane t ~delay f] runs [f ()] at time [now t + delay].
    [lane] routes the event to that per-lane queue; without it the event
    inherits the lane of the event currently executing, so work a node's
    handler spawns stays on that node's lane.  Ignored on 1-lane engines.
    @raise Invalid_argument if [delay] is negative or [lane] out of range. *)
val schedule : ?lane:int -> t -> delay:int -> (unit -> unit) -> unit

(** [schedule_at ?lane t ~time f] runs [f ()] at absolute [time], which must
    not be in the simulated past. *)
val schedule_at : ?lane:int -> t -> time:int -> (unit -> unit) -> unit

(** Drain the event queue.  Returns the final simulated time. *)
val run : t -> int

(** Number of events executed so far. *)
val events_executed : t -> int

(** [set_probe t (Some f)] arranges for [f ~time ~executed] to run just
    before each event fires; [set_probe t None] removes it.  The probe
    must not schedule events or otherwise touch the engine — it exists
    so an observer (e.g. the tracing subsystem) can sample progress
    without perturbing the simulation. *)
val set_probe : t -> (time:int -> executed:int -> unit) option -> unit

(** Time helpers (nanosecond arithmetic). *)
val ns : int -> int

val us : int -> int

val ms : int -> int

val us_of_ns : int -> float
