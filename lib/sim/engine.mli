(** Discrete-event simulation engine.

    Simulated time is an integer number of nanoseconds.  All state changes in
    a simulation happen inside events; [run] drains the event queue on one
    thread in deterministic [(time, insertion)] order. *)

type t

(** [create ?schedule_seed ()] makes a fresh engine.  By
    default, same-instant events fire in scheduling order (FIFO).  With
    [schedule_seed], their order is permuted deterministically from the
    seed — schedule fuzzing: different seeds explore different legal
    interleavings, and correct protocols must produce identical results
    under all of them. *)
val create : ?schedule_seed:int -> unit -> t

(** Current simulated time in nanoseconds. *)
val now : t -> int

(** [schedule t ~delay f] runs [f ()] at time [now t + delay].
    @raise Invalid_argument if [delay] is negative. *)
val schedule : t -> delay:int -> (unit -> unit) -> unit

(** [schedule_at t ~time f] runs [f ()] at absolute [time], which must
    not be in the simulated past. *)
val schedule_at : t -> time:int -> (unit -> unit) -> unit

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
