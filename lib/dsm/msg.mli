(** Protocol message vocabulary.

    Locks, barriers and the SW protocol's forwarded ownership transfers use
    one-way messages with explicit continuations (the reply can come from a
    third node); page, diff and adaptive ownership traffic uses
    request/reply.  Each constructor documents its sender and receiver.
    [size_bytes] gives the payload size charged to the network. *)

type own_result =
  | Granted  (** requester becomes owner *)
  | Refused_fs  (** write-write false sharing detected (version mismatch or
                    target believes the page is falsely shared) *)
  | Refused_measure  (** WFS+WG only: first sharing event on the page; the
                         requester must use MW so the write granularity can
                         be measured *)

(** A page copy's reflected view as shipped (see [State.entry]): for
    writer [q], the newest interval of [q] whose diff the copy holds,
    the larger of [frozen]'s value for [q] and [above]'s (absent = 0).
    [frozen] is the server's frozen map, shared by reference: nothing
    sets it.  [above] is a copy ({!Wmap.copy}) the receiver takes over.
    Whatever the two hold, the cost model charges the view as a dense
    [nprocs]-word array. *)
type reflected = { frozen : Wmap.t; above : Wmap.t }

type t =
  (* Locks (one-way). *)
  | Lock_acquire of { lock : int; vc : Vc.t }  (** requester -> home *)
  | Lock_forward of { lock : int; requester : int; vc : Vc.t }
      (** home -> last queued requester *)
  | Lock_grant of { lock : int; intervals : Interval.t list }
      (** previous holder -> requester *)
  (* Barriers (one-way, along the barrier tree rooted at node 0). *)
  | Barrier_arrive of {
      epoch : int;
      vc : Vc.t;
          (** lent by reference: the sender stays blocked, its clock
              unchanged, until its release *)
      vc_version : int;
          (** {!Vc.version} of [vc] when sent, checked when the release
              is computed (host-side only: no wire bytes) *)
      intervals : Interval.t list;
      gc_wanted : bool;
    }
  | Barrier_release of {
      epoch : int;
      intervals : Interval.t list;
      gc_round : bool;
    }
  | Gc_done of { epoch : int }
      (** child -> parent: the child's subtree finished validating *)
  | Gc_complete of { epoch : int }
      (** parent -> child: every node validated, purge diff stores *)
  (* Paging (request/reply). *)
  | Page_req of { page : int }
  | Page_reply of {
      page : int;
      data : Adsm_mem.Page.t;
          (** a page-pool buffer ([State.pooled_copy]) the message owns
              until the receiver installs it *)
      version : int;  (** server's highest known version *)
      committed : int;  (** version fully contained in [data] *)
      reflected : reflected;
          (** the server's reflected view, which the receiver installs;
              charged as a dense [nprocs] array *)
    }
  | Diff_req of { page : int; seqs : int list; sees_sw : bool }
      (** [seqs]: the target's interval numbers whose diffs are wanted.
          [sees_sw] piggybacks the requester's false-sharing view (WFS). *)
  | Diff_reply of { page : int; diffs : (int * Vc.t * Diff.t) list }
  (* Ownership. *)
  | Own_req of { page : int; version : int; want_data : bool }
      (** adaptive protocols: requester -> last perceived owner *)
  | Own_reply of {
      page : int;
      result : own_result;
      version : int;
      committed : int;  (** version fully contained in [data] *)
      data : (Adsm_mem.Page.t * reflected) option;
          (** a page copy and its reflected view, as in [Page_reply]; a
              reply without a copy carries no view, but is charged a
              dense one all the same *)
    }
  | Sw_own_req of { page : int; version : int }
      (** SW protocol: requester -> home (one-way) *)
  | Sw_own_forward of { page : int; requester : int; version : int }
      (** home -> current owner (one-way) *)
  | Sw_own_transfer of { page : int; data : Adsm_mem.Page.t; version : int; committed : int }
      (** previous owner -> requester (one-way); [data] as in
          [Page_reply] *)
  (* HLRC extension. *)
  | Hlrc_diff of { page : int; seq : int; vc : Vc.t; diff : Diff.t }
      (** writer -> home at release (one-way); the home applies and
          discards it *)
  | Hlrc_fetch of { page : int; need : (int * int) list }
      (** faulting node -> home; [need] lists (proc, seq) modifications the
          reply must already contain — the home defers the reply until its
          copy covers them *)
  (* Crash recovery (see FAULTS.md). *)
  | Recover_req of { vc : Vc.t }
      (** restarted node -> every peer; [vc] is the zero clock (the full
          log), or its rolled-back clock under [Skip_notice_replay] *)
  | Recover_reply of { intervals : Interval.t list }
      (** peer -> restarted node: every closed interval the peer knows of
          that [vc] does not cover (same shape as a lock grant) *)

(** Payload size in bytes for the network cost model, in a cluster of
    [nprocs] nodes.  [vc_bytes] overrides the cost of every piggybacked
    vector clock (defaults to dense {!Vc.size_bytes}); the [sparse_vc]
    cost model passes a delta-encoder based on the sender's last-barrier
    clock. *)
val size_bytes : ?vc_bytes:(Vc.t -> int) -> nprocs:int -> t -> int

(** Traffic class for the network's per-kind counters.  Derived here, once,
    from the constructor — the single interning point for message labels
    (HLRC diff flushes count as diff traffic, HLRC fetches as page
    traffic). *)
val kind : t -> Adsm_net.Kind.t

val pp : Format.formatter -> t -> unit
