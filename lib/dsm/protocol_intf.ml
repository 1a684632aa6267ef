(** The interface every DSM protocol implements.

    The paper's thesis is that MW, SW and the adaptive protocols share one
    lazy-release-consistency substrate and differ only in policy: what a
    fault does, how a dirty page is closed at a release, and how page, diff
    and ownership requests are served.  That policy surface is exactly this
    signature; {!Lrc_core} provides the substrate, {!Sync} the locks,
    barriers and garbage collection, and {!Dispatch} picks the module for a
    cluster's configured protocol as a first-class value. *)

open State

module type PROTOCOL = sig
  (** {2 Application context (may block and charge simulated time)} *)

  (** Make the page readable.  Runs after the generic fault prologue
      (fault cost, statistics) in {!Proto.read_fault}. *)
  val read_fault : cluster -> node -> entry -> unit

  (** Make the page writable and registered dirty. *)
  val write_fault : cluster -> node -> entry -> unit

  (** {2 Release side} *)

  (** Close one dirty page while ending an interval: create its diff or
      commit its single-writer interval.  [seq]/[vc] are the interval being
      closed; CPU costs go to [charge] (accumulated, charged once by the
      caller).  Returns the version number to put on the page's write
      notice ([Some] makes it an owner write notice).  Runs between
      {!Lrc_core.end_interval}'s shared bookkeeping steps and must not
      suspend — interval closure is atomic. *)
  val close_page :
    cluster -> node -> entry -> seq:int -> vc:Vc.t -> charge:(int -> unit) ->
    int option

  (** {2 Server side (event context: must never block)} *)

  val handle_page_req :
    cluster -> node -> src:int -> int -> Msg.t Adsm_net.Rpc.respond -> unit

  val handle_diff_req :
    cluster -> node -> src:int -> page:int -> seqs:int list -> sees_sw:bool ->
    Msg.t Adsm_net.Rpc.respond -> unit

  (** Protocol-private messages (SW ownership forwarding, the adaptive
      protocols' ownership requests, HLRC home traffic).  Returns false if
      the message does not belong to this protocol, in which case the
      dispatcher reports it as malformed. *)
  val handle_protocol_msg :
    cluster -> node -> src:int -> Msg.t -> Msg.t Adsm_net.Rpc.respond option ->
    bool

  (** {2 Garbage-collection policy} *)

  (** Does this node keep (and bring up to date) its copy of the page at a
      GC round, rather than dropping it? *)
  val gc_validator : cluster -> node -> entry -> bool

  (** When a copy is dropped at GC, retarget [entry.owner] at the fetch
      hint (the writer of the latest pending notice)?  The adaptive
      protocols must not: [owner] is protocol state there, not just a
      fetch hint. *)
  val gc_retarget_owner_on_drop : bool
end

(** A protocol as a first-class value, as {!Dispatch} hands it out. *)
type t = (module PROTOCOL)
