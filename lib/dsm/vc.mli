(** Vector timestamps for lazy release consistency.

    Component [i] of a node's clock is the sequence number of the most
    recent interval of processor [i] whose modifications the node has seen.
    The happened-before-1 partial order of the paper is exactly the
    componentwise order on these vectors. *)

type t

val zero : nprocs:int -> t

val copy : t -> t

val nprocs : t -> int

val get : t -> int -> int

val set : t -> int -> int -> unit

(** Content version: changes whenever a mutator changes a component
    (never on {!rebase}).  Equal versions of one clock at two instants
    mean equal components — an O(1) check that a clock lent by
    reference was left alone. *)
val version : t -> int

(** Increment component [proc] (a new interval of that processor). *)
val tick : t -> proc:int -> unit

(** Componentwise maximum, into the first argument. *)
val merge_into : t -> t -> unit

(** Overwrite [dst] with [src]'s components (no allocation; the clocks
    must have the same width). *)
val blit_into : src:t -> dst:t -> unit

(** Componentwise minimum, into the first argument.  The minimum over a
    set of clocks covers interval [(p, s)] iff every clock in the set
    does — it is exactly the knowledge shared by a whole barrier subtree,
    which is what the combining tree sends upward. *)
val min_into : t -> t -> unit

(** Stamp [base] as the epoch-[epoch] snapshot, for the delta cache of
    {!delta_size_bytes}.  PRECONDITION: the clock [t] equals [base] (the
    base is a just-taken snapshot of it), checked in O(1) through the
    sums; [Invalid_argument] when the sums differ.  PRECONDITION: all
    clocks stamped with the same epoch number (across all nodes of the
    cluster) have identical components — true for barrier-completion
    snapshots, which all equal the global supremum of the epoch.  A
    stamp lapses when [base] is next mutated. *)
val rebase : epoch:int -> t -> base:t -> unit

(** [leq a b] — every component of [a] is at or below [b]:
    "[a] happened before or is [b]". *)
val leq : t -> t -> bool

(** Neither [leq a b] nor [leq b a]: concurrent intervals. *)
val concurrent : t -> t -> bool

(** Total order extending happened-before-1, for applying diffs "in
    timestamp order": componentwise-dominated first, concurrent vectors
    tie-broken by (sum, lexicographic). *)
val order : t -> t -> int

(** Cached component sum (maintained incrementally by every mutator). *)
val sum : t -> int

(** Wire size in bytes (4 per component). *)
val size_bytes : t -> int

(** Wire size under delta encoding against [since], a clock the receiver
    is known to share: 8-byte header + 8 bytes per differing component.
    Used by the [sparse_vc] cost model with the sender's last-barrier
    clock as the base.  When [since] is a current epoch snapshot (see
    {!rebase}) the count is cached on the clock, keyed by the epoch and
    the clock's {!version}: a timestamp relayed to many receivers is
    scanned once. *)
val delta_size_bytes : since:t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
