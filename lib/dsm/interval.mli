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
    strictly ascending in [seq] (asserted), so coverage queries binary
    search on the observer's clock component instead of filtering a
    list; GC/crash truncation resets the length in place and keeps the
    capacity. *)
module Log : sig
  type interval := t

  type t

  val create : unit -> t

  val length : t -> int

  (** [get l i] — the [i]-th oldest retained interval. *)
  val get : t -> int -> interval

  (** Append; [iv.seq] must exceed the last logged seq (asserted). *)
  val append : t -> interval -> unit

  (** Drop every logged interval, keeping the capacity. *)
  val clear : t -> unit

  (** Index of the first logged interval with [seq > s] ([length] if
      none). *)
  val first_after : t -> int -> int

  (** [unseen_by vc ~proc l acc] — prepend (newest first) every logged
      interval not covered by [vc] onto [acc]; [proc] is the log
      owner, whose clock component is the search key. *)
  val unseen_by : Vc.t -> proc:int -> t -> interval list -> interval list
end

val pp : Format.formatter -> t -> unit
