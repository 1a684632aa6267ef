(** The lazy-release-consistency substrate shared by every protocol:
    interval closure, vector-clock plumbing, write notices, diff
    fetch/apply, and page validation.  Protocol policy enters via the
    module threaded into {!end_interval} and the parameters of
    {!close_page_default}; everything here is protocol-agnostic. *)

open State

(* --- sending helpers (size and kind derived from the message) --- *)

val cast : cluster -> src:int -> dst:int -> Msg.t -> unit

(** Blocking request; process context only. *)
val call : cluster -> src:int -> dst:int -> Msg.t -> Msg.t

(** Reply to a request; [node] is the responder (its last-barrier clock
    is the delta base under the [sparse_vc] cost model). *)
val respond_msg : cluster -> node -> Msg.t Adsm_net.Rpc.respond -> Msg.t -> unit

(* --- interval closure (release side) --- *)

(** Default clean-page closure: an owned single-writer page; emits an owner
    write notice (and handles a pending drop to MW mode). *)
val close_owned : cluster -> node -> entry -> seq:int -> int option

(** The twin/diff machinery behind each protocol's
    {!Protocol_intf.PROTOCOL.close_page}.  [sink] consumes created diffs;
    [close_clean] closes a dirty page with neither twin nor write log;
    [measure] enables WFS+WG granularity measurement.  It is the one
    place a closed interval's diff is created (eagerly, at close). *)
val close_page_default :
  ?measure:bool ->
  ?sink:(cluster -> node -> entry -> seq:int -> vc:Vc.t -> Diff.t -> unit) ->
  ?close_clean:(cluster -> node -> entry -> seq:int -> int option) ->
  cluster -> node -> entry -> seq:int -> vc:Vc.t -> charge:(int -> unit) ->
  int option

(** Close the node's current interval under protocol [p], creating diffs /
    owner write notices for every dirty page.  Atomic: no suspension point
    inside; the accumulated CPU cost is passed to [charge] once. *)
val end_interval :
  cluster -> Protocol_intf.t -> node -> charge:(int -> unit) -> unit

(* --- notice application (acquire side) --- *)

(** Apply intervals received on a lock grant, barrier release or
    recovery round, in the order given: each one our vector clock does
    not cover joins our log and has its write notices applied; covered
    ones are skipped.  The batch must be in {!Vc.order}, as
    {!collect_unseen} returns it: the receiver does not sort.  Fails
    naming the node and both intervals if a neighbour's clock sum
    exceeds the next one's (equal neighbours pass). *)
val apply_intervals : cluster -> node -> Interval.t list -> unit

(** All intervals this node knows that [vc] does not cover, oldest
    first in {!Vc.order}. *)
val collect_unseen : node -> Vc.t -> Interval.t list

(** Is the notice's modification still missing from this node's copy? *)
val notice_relevant : node -> entry -> Notice.t -> bool

(* --- page validation (access-miss side) --- *)

(** Install a received page copy as the new base of the local frame. *)
val install_copy :
  cluster -> node -> entry -> data:Adsm_mem.Page.t -> version:int ->
  committed:int -> reflected:Msg.reflected -> unit

(** Fetch (in parallel, one request per writer) and apply, in timestamp
    order, every pending diff for the page.  Process context. *)
val fetch_and_apply_diffs : cluster -> node -> entry -> unit

(** Make the page readable: fetch a base copy if needed, then fetch and
    apply pending diffs.  Used by every protocol except HLRC. *)
val validate : cluster -> node -> entry -> unit

(* --- write-side helpers --- *)

val mark_page_dirty : node -> entry -> unit

val make_twin : cluster -> node -> entry -> unit

(** Become (or re-become) owner locally: bump the version, as ownership is
    being (re)acquired (paper Section 2.3). *)
val acquire_ownership_locally : cluster -> node -> entry -> unit

(** The version an ownership grant hands to the new owner: the page's
    version, or one less under the [Stale_ownership_grant] mutation. *)
val granted_version : cluster -> entry -> int

(** MW-mode write path: valid copy + twin (or a write log when software
    write detection is enabled). *)
val mw_write_path : cluster -> node -> entry -> unit

(* --- server-side page/diff service (event context: never block) --- *)

(** Serve a whole-page request from the committed local copy. *)
val serve_page :
  cluster -> node -> src:int -> int -> Msg.t Adsm_net.Rpc.respond -> unit

(** Serve a diff request: the page's own diffs with the given seqs. *)
val serve_diffs :
  cluster -> node -> page:int -> seqs:int list -> Msg.t Adsm_net.Rpc.respond ->
  unit
