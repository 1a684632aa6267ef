(** Helpers shared by the application ports. *)

(** [band ~n ~nprocs ~me] is the [\[lo, hi)] row range of processor [me]
    under contiguous block partitioning. *)
val band : n:int -> nprocs:int -> me:int -> int * int

(** Fold over [lo..hi-1]. *)
val fold_range : int -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

(** A result cell written by processor 0 at the end of a run, used to
    compare results across protocols. *)
type checksum

val new_checksum : unit -> checksum

val set_checksum : checksum -> float -> unit

val get_checksum : checksum -> float
(** @raise Failure if the run never set it. *)

(** Stable floating-point combination for checksums. *)
val mix : float -> float -> float
