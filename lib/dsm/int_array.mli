(** Copies of [int array]s without the write barrier.

    Same results as [Array.blit], [Array.sub] and [Array.copy], but the
    stdlib functions make a runtime call per element once an array lives
    in the major heap ([caml_modify] into a promoted or large
    destination, [caml_initialize] for a fresh copy over 256 words).
    These are plain loops.  Use them for clocks and other int arrays
    copied on per-barrier, per-interval or per-message paths. *)

val blit : int array -> int -> int array -> int -> int -> unit
(** [blit src spos dst dpos len], as [Array.blit] (overlapping ranges
    of one array included).
    @raise Invalid_argument on a range outside either array. *)

val sub : int array -> int -> int -> int array
(** As [Array.sub]. @raise Invalid_argument on a range outside the array. *)

val copy : int array -> int array
(** As [Array.copy]. *)
