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

(** Intervals of [intervals] not yet covered by [vc] (i.e. with
    [seq > Vc.get vc proc]). *)
val unseen_by : Vc.t -> t list -> t list

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

(** A cluster's intervals, each stored once, per writer in seq order.
    A writer adds an interval when it closes it; the node logs of the
    cluster ({!Logs}) read their intervals from here.  Once every log of
    the store has been purged ({!Logs.clear}) since the last trim, the
    store drops every interval at or below the lowest floor among its
    logs, so it never retains an interval no log can still contain. *)
module Store : sig
  type interval := t

  type t

  val create : nprocs:int -> t

  (** Store a just-closed interval.  Raises [Invalid_argument] unless
      its seq is its writer's next one: no seq is ever issued twice. *)
  val add : t -> interval -> unit

  (** Intervals retained. *)
  val length : t -> int
end

(** A node's interval logs, one per writer, indexed by writer id: the
    same queries as {!Log}, without a record per writer.  A log is a
    window onto its cluster's {!Store}: writer [p]'s log holds the
    stored seqs [floor.(p) + 1 .. floor.(p) + n], where [floor] is the
    node's clock at its last purge (zero before any).  Every producer
    appends contiguously above it, and a crashed node's log is restored
    as a window ({!restore}), so there is no other form.  The writers
    with a non-empty log are tracked, so walks, GC and crash truncation
    cost O(writers), not O(nprocs). *)
module Logs : sig
  type interval := t

  type t

  (** An empty log onto [store], registered for its trims. *)
  val create : Store.t -> t

  (** Append to the log of [iv.proc].  Raises [Invalid_argument] unless
      [iv] is the stored interval right above that writer's window. *)
  val append : t -> interval -> unit

  (** [holds t iv] — [iv] is the interval writer [iv.proc]'s window
      holds under [iv.seq]. *)
  val holds : t -> interval -> bool

  (** [unseen_of t ~proc vc acc] — {!Log.unseen_by} on writer [proc]'s
      log ([acc] if [proc] never appended). *)
  val unseen_of : t -> proc:int -> Vc.t -> interval list -> interval list

  (** [unseen_by t vc acc] — prepend every logged interval [vc] does not
      cover onto [acc]: writer 0's first, each writer's newest first. *)
  val unseen_by : t -> Vc.t -> interval list -> interval list

  (** Empty every log (GC purge) and set the floor to [floor], the
      node's clock now (copied): every later append must lie above it.
      When every log of the store has been purged since the last trim,
      the store trims. *)
  val clear : t -> floor:Vc.t -> unit

  (** Empty every log but writer [keep]'s (crash truncation). *)
  val clear_except : t -> keep:int -> unit

  (** [restore t ~upto] — set every writer [p]'s window to the seqs
      [floor.(p) + 1 .. upto.(p)], in one pass over the writers (crash
      recovery, with the rolled-back clock).  Raises [Invalid_argument]
      if [upto.(p)] is below the floor or the store no longer holds the
      window; neither happens while no trim runs during the downtime. *)
  val restore : t -> upto:Vc.t -> unit
end

val pp : Format.formatter -> t -> unit
