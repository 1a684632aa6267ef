(** Memory-model observations: what the application did to the shared
    store.  The {!Oracle} replays a run's observation stream against the
    lazy-release-consistency contract; the {!Recorder} collects it. *)

type t =
  | Read of { page : int; off : int; width : int; bits : int64 }
      (** a shared-word read returning the value [bits] (f64 bit pattern
          when [width = 8], sign-extended i32 when [width = 4]) *)
  | Write of { page : int; off : int; width : int; bits : int64 }
  | Acquire of { lock : int }  (** lock acquisition completed *)
  | Release of { lock : int }  (** lock release started *)
  | Barrier_enter of { epoch : int }
  | Barrier_leave of { epoch : int }
  | Crash
      (** the node fail-stopped (fault injection); volatile protocol
          state is lost, but the application's causal past is not — a
          recovered node must still read hb-maximal writes *)
  | Restart  (** the node completed crash recovery and resumed *)

type stamped = { time : int; node : int; obs : t }
(** Stamped with simulated time and recorded in global completion
    order (the simulator is single-threaded). *)

val tag : t -> string

(** The (page, offset) word a memory observation touches. *)
val location : t -> (int * int) option

(** Render a value for humans: a float when [width = 8], an int32
    otherwise. *)
val value_string : width:int -> int64 -> string

val pp : Format.formatter -> stamped -> unit
