(** Writer maps: writer id -> int, sized by the writers actually held.

    Per-entry "per writer" metadata (the seq of each writer's latest
    notice, the reflected seqs above a frozen map) maps a few of
    [nprocs] writers to ints.  A map stores them in one of three forms,
    chosen by its population: a linear list of pairs while small, an
    open-addressed hash table at mid size, and a dense [nprocs] array
    as soon as the sparse form would not be smaller.  Below 9 nodes
    every non-empty map is dense.

    An absent writer reads as 0, and storing 0 makes a writer absent.
    Maps are values: {!set} may return a new map, which replaces the
    old one (the old one must no longer be used). *)

type t

type form = Empty | Linear | Hashed | Dense

val empty : t

(** The form the map is in. *)
val form : t -> form

(** [get m q] — writer [q]'s value, 0 if absent. *)
val get : t -> int -> int

(** [set m ~nprocs q v] — [m] with writer [q] mapped to [v], [0 <= q <
    nprocs]; reuses [m] when it has room. *)
val set : t -> nprocs:int -> int -> int -> t

(** [fold f m acc] folds [f q v] over every writer [q] with a nonzero
    value [v]: ascending in a dense map, otherwise in slot order. *)
val fold : (int -> int -> 'a -> 'a) -> t -> 'a -> 'a

(** A snapshot: a map that later {!set}s on [m] leave alone. *)
val copy : t -> t
