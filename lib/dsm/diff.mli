(** Run-length-encoded page diffs, as in TreadMarks.

    A diff records the byte ranges on which a page differs from its twin,
    together with the new contents of those ranges.  Applying a diff
    overwrites exactly those ranges.  A diff is held as its wire
    encoding — per run a 2-byte offset, a 2-byte length and the run's
    words — in one buffer of {!size_bytes} bytes. *)

type t

(** Reusable working space for {!create}: the single-pass scan encodes
    here before copying out the exact-sized buffer.  NOT thread-safe —
    each domain (e.g. each [Pool] worker) must use its own; the DSM
    runtime keeps one per cluster. *)
type scratch

val make_scratch : unit -> scratch

(** [create ~twin ~current ()] encodes the modifications that turned
    [twin] into [current].  Passing [?scratch] avoids allocating working
    space per call (the hot path: one diff per dirty page per
    interval). *)
val create :
  ?scratch:scratch -> twin:Adsm_mem.Page.t -> current:Adsm_mem.Page.t ->
  unit -> t

(** [of_ranges ranges page] builds a diff from logged [(offset, length)]
    write ranges and the page's current contents — software write
    detection, the twin-free alternative the paper cites (write ranges /
    Midway).  Ranges are coalesced and word-aligned. *)
val of_ranges : (int * int) list -> Adsm_mem.Page.t -> t

(** Overwrite the diff's ranges in the target page. *)
val apply : t -> Adsm_mem.Page.t -> unit

(** Encoded wire and storage size: 4 bytes per run header plus the run
    data. *)
val size_bytes : t -> int

val is_empty : t -> bool

(** Number of modified runs. *)
val run_count : t -> int

(** Total modified bytes (sum of run lengths). *)
val modified_bytes : t -> int

(** Runs as [(offset, length)] pairs, in increasing offset order. *)
val ranges : t -> (int * int) list

val pp : Format.formatter -> t -> unit
