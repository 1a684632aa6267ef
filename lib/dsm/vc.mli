(** Vector timestamps for lazy release consistency.

    Component [i] of a node's clock is the sequence number of the most
    recent interval of processor [i] whose modifications the node has seen.
    The happened-before-1 partial order of the paper is exactly the
    componentwise order on these vectors.

    Representation: a base array shared between clocks and never
    written while shared, plus the sorted set of components that differ
    from it.  A cluster's nodes share one base per barrier epoch
    ({!Epoch}), so most operations on two clocks of one cluster walk
    only their differing components instead of all [nprocs]; clocks on
    different bases take one dense walk.  A clock that collects more
    than [nprocs/16] (at least 4) differing components moves them into
    a base of its own.  The representation is invisible: every function
    below means what it means on a plain array of components. *)

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

(** Overwrite [dst] with [src]'s components (the clocks must have the
    same width).  [dst] shares [src]'s base, so this costs
    O(differing components) and allocates only when [dst] has less room
    for them than [src] holds. *)
val blit_into : src:t -> dst:t -> unit

(** Componentwise minimum, into the first argument.  The minimum over a
    set of clocks covers interval [(p, s)] iff every clock in the set
    does — it is exactly the knowledge shared by a whole barrier subtree,
    which is what the combining tree sends upward. *)
val min_into : t -> t -> unit

(** Stamp [base] as the epoch-[epoch] snapshot, for the delta cache of
    {!delta_size_bytes}.  PRECONDITION: the clock [t] equals [base] (the
    base is a just-taken snapshot of it), checked exactly — in
    O(differing components) when both sit on one base;
    [Invalid_argument] when they differ.  PRECONDITION: all
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
    clock as the base.  O(1) when [since] is an adopted epoch base (see
    {!Epoch}) and [t] shares it.  Otherwise, when [since] is a current
    epoch snapshot (see {!rebase}), the count is cached on the clock,
    keyed by the epoch and the clock's {!version}: a timestamp relayed
    to many receivers is scanned once. *)
val delta_size_bytes : since:t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit

(** A cluster's per-barrier shared base.  At the end of barrier [e]
    every node holds the same clock, the supremum.  The first node to
    leave publishes it as the epoch-[e] base (one O(nprocs) copy per
    cluster); every other node checks that its clock equals the base and
    then shares it, so its clock has no differing components.  The check
    is O(differing components) for a clock on the previous epoch's base,
    and one dense walk otherwise.

    A clock that fails the check (only a broken protocol can make one)
    raises: every run makes the check.  Published bases are never
    mutated. *)
module Epoch : sig
  type clock := t

  type t

  (** Epoch 0: an all-zeros base. *)
  val create : nprocs:int -> t

  (** A fresh all-zeros clock on the epoch-0 base. *)
  val zero : t -> clock

  (** [leave es ~epoch c] at the end of barrier [epoch] (numbered from 1):
      the first call for an epoch publishes [c]'s content, later calls
      adopt the published base.  [c]'s content and {!version} never
      change.

      @raise Failure naming the epoch if [c] differs from the published
      base, or leaves an epoch older than the latest; [c] then stays
      off the base. *)
  val leave : t -> epoch:int -> clock -> unit

  (** A fresh clock equal to the latest published base, on that base. *)
  val base : t -> clock

  (** [c] is on the latest published base. *)
  val adopted : t -> clock -> bool
end
