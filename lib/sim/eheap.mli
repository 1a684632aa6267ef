(** Binary min-heap of timestamped events.

    Events are ordered by [(time, seq)]: [seq] is a monotonically increasing
    insertion counter supplied by the caller, so that events scheduled for the
    same simulated instant fire in insertion order.  This makes the whole
    simulation deterministic. *)

type 'a t

(** [create ()] makes an empty heap. *)
val create : unit -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** [push h ~time ~seq v] inserts [v] with priority [(time, seq)]. *)
val push : 'a t -> time:int -> seq:int -> 'a -> unit

(** [pop_min h] removes and returns the event with the smallest [(time, seq)],
    or [None] when the heap is empty.  The heap drops every reference to the
    popped value. *)
val pop_min : 'a t -> (int * int * 'a) option

(** Allocation-free variant for the simulation inner loop: the value of the
    earliest event, which is removed.  Read {!min_time_exn} first if the
    event's time is needed.
    @raise Invalid_argument on an empty heap. *)
val pop_min_exn : 'a t -> 'a

(** The time of the earliest event, without removing it.
    @raise Invalid_argument on an empty heap. *)
val min_time_exn : 'a t -> int

(** [peek_time h] is the time of the earliest event without removing it. *)
val peek_time : 'a t -> int option
