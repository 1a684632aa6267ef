(** Cooperative simulated processes built on OCaml effects.

    A process is a plain OCaml function executed inside an effect handler.
    When it needs simulated time to pass, or must wait for a message, it
    suspends; the engine later resumes it.  Exactly one process step runs at
    a time, so process code can freely mutate simulation state without
    locking. *)

(** [spawn engine f] schedules process [f] to start at the current
    simulated time.  An exception escaping [f] aborts the whole simulation
    ([run] re-raises it). *)
val spawn : Engine.t -> (unit -> unit) -> unit

(** [sleep engine d] suspends the calling process for [d] simulated
    nanoseconds.  Must be called from process context. *)
val sleep : Engine.t -> int -> unit

(** [suspend f] captures the calling process's continuation as a resume thunk
    and hands it to [f].  The process is paused until the thunk is called
    (at most once).  Must be called from process context. *)
val suspend : ((unit -> unit) -> unit) -> unit

(** A one-shot value cell: a process blocks on [await] until another event
    [fill]s the cell. *)
module Ivar : sig
  type 'a t

  val create : unit -> 'a t

  (** [fill engine t v] makes [v] available and resumes the waiter, if any,
      at the current simulated time.  @raise Failure if already filled. *)
  val fill : Engine.t -> 'a t -> 'a -> unit

  (** Block the calling process until the cell is filled; returns the value.
      At most one process may await a given cell. *)
  val await : 'a t -> 'a

  val is_filled : 'a t -> bool
end
