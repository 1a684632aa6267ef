(** Completed intervals of a processor.

    An interval groups the write notices created at one release.  Intervals
    are what synchronization messages carry: a lock grant or barrier release
    piggybacks every interval the receiver has not yet seen. *)

type t = {
  proc : int;
  seq : int;  (** [Vc.get vc proc] — this interval's own index *)
  vc : Vc.t;
  notices : Notice.t list;
  mutable wn_bytes : int;
      (** cached notice-bytes total, [-1] until first sized (the notice
          list is immutable; construct through {!make}) *)
}

(** [make ~proc ~vc ~notices] takes ownership of [vc]: the interval
    keeps it as its timestamp without copying, so the caller must pass a
    clock nobody mutates afterwards (a fresh snapshot — the clock's own
    notices may share it, since notices never mutate their clock). *)
val make : proc:int -> vc:Vc.t -> notices:Notice.t list -> t

(** Wire size: 8-byte header + timestamp + notices.  [vc_bytes]
    overrides how the piggybacked timestamp is costed (defaults to dense
    {!Vc.size_bytes}); see [Config.sparse_vc]. *)
val size_bytes : ?vc_bytes:(Vc.t -> int) -> t -> int

val size_bytes_list : ?vc_bytes:(Vc.t -> int) -> t list -> int

(** Array-backed, clock-indexed per-processor interval log.  Appends are
    ascending in [seq], so coverage queries binary search on the
    observer's clock component instead of filtering a list.  The storage
    grows by doubling from one slot, so a log holding [k] intervals
    takes fewer than [2k] slots; truncation releases it. *)
module Log : sig
  type interval := t

  type t

  val create : unit -> t

  val length : t -> int

  (** [get l i] — the [i]-th oldest retained interval. *)
  val get : t -> int -> interval

  (** Append.  Raises [Invalid_argument] if [seq] is not above the last
      logged one. *)
  val append : t -> interval -> unit

  (** Drop every logged interval and release the storage. *)
  val clear : t -> unit

  (** Index of the first logged interval with [seq > s] ([length] if
      none). *)
  val first_after : t -> int -> int

  (** [unseen_by vc ~proc l acc] — prepend (newest first) every logged
      interval not covered by [vc] onto [acc]; [proc] is the log
      owner, whose clock component is the search key. *)
  val unseen_by : Vc.t -> proc:int -> t -> interval list -> interval list
end

(** A cluster's intervals, each stored once, per writer in seq order,
    and in one sequence in ascending {!Vc.order}: the order receivers
    apply them in.  A writer adds an interval when it closes it; the
    node logs of the cluster ({!Logs}) read their intervals from here.
    Each barrier marks where the intervals closed after it begin
    ({!mark}; the two newest marks are kept), so a walk for a clock
    that covers the barrier's starts there.  Once every log of the store has been purged ({!Logs.clear})
    since the last trim, the store drops every interval at or below the
    lowest floor among its logs, so it never retains an interval no log
    can still contain, and forgets its marks. *)
module Store : sig
  type interval := t

  type t

  val create : nprocs:int -> t

  (** Store a just-closed interval at its place in {!Vc.order}.  Raises
      [Invalid_argument] unless its seq is its writer's next one (no seq
      is ever issued twice), or if it sorts below the newest {!mark}
      (its clock is not at or above the barrier's). *)
  val add : t -> interval -> unit

  (** [mark t ~epoch vc] — barrier [epoch] completed with every node at
      clock [vc]: every interval closed from now on sorts after every
      one stored so far.  The first call for an epoch above every marked
      one takes the mark (a copy of [vc]); later calls do nothing.
      Raises [Invalid_argument] if [vc] does not cover every stored
      interval. *)
  val mark : t -> epoch:int -> Vc.t -> unit

  (** Intervals retained. *)
  val length : t -> int
end

(** A node's interval logs, one window per writer onto its cluster's
    {!Store}, read off the node's own clock: writer [p]'s log holds the
    stored seqs [floor(p) + 1 .. clock(p)], where [floor] is the clock
    at the node's last purge (zero before any).  The log keeps nothing
    but that floor: a closed own interval joins the window when the
    clock ticks, a received one when {!append} advances the clock.  A
    walk for a requester's clock reads the store's apply order from the
    newest mark that clock covers, and keeps what lies in the windows
    and the clock lacks.  A crash wipe ({!rollback}) empties windows by
    rolling the clock back to the floor. *)
module Logs : sig
  type interval := t

  type t

  (** An empty log of node [node] onto [store] whose windows top at
      [clock], the node's clock (kept by reference); registered for the
      store's trims. *)
  val create : Store.t -> node:int -> clock:Vc.t -> t

  (** [append t iv] — extend writer [iv.proc]'s window by [iv],
      advancing the clock's component to [iv.seq].  Raises
      [Invalid_argument] unless [iv] is the store's next interval above
      the clock's component. *)
  val append : t -> interval -> unit

  (** [clock_of t ~page ~proc seq] — the clock of writer [proc]'s
      interval [seq], read from the store, window or not.  Raises
      [Invalid_argument] naming the log's node, [page], [proc] and [seq]
      if the store does not hold it: no notice applied after a trim
      leaves a trimmed one uncovered, so no false-sharing check asks. *)
  val clock_of : t -> page:int -> proc:int -> int -> Vc.t

  (** [unseen_of t ~proc vc acc] — prepend (newest first) the intervals
      of writer [proc]'s window that [vc] does not cover onto [acc]. *)
  val unseen_of : t -> proc:int -> Vc.t -> interval list -> interval list

  (** [unseen_by t vc] — every logged interval [vc] does not cover,
      oldest first in {!Vc.order}: the order a receiver applies them
      in. *)
  val unseen_by : t -> Vc.t -> interval list

  (** Empty every window (GC purge): the floor becomes a copy of the
      clock now.  When every log of the store has been purged since the
      last trim, the store trims. *)
  val clear : t -> unit

  (** [rollback t ~keep] — crash wipe: every writer's clock component
      but [keep]'s drops to the floor, which empties its window.  The
      recovery round re-appends the window from the peers' logs; no
      trim runs while the node is down, so the store still holds it. *)
  val rollback : t -> keep:int -> unit
end

val pp : Format.formatter -> t -> unit
