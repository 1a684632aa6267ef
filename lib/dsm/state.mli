(** Per-node and per-cluster runtime state (internal to the DSM runtime).

    Types are exposed transparently: the protocol, runtime and shared-memory
    modules cooperate on this mutable state.  Application code never sees
    them — it goes through {!Dsm}. *)

module Page = Adsm_mem.Page
module Perm = Adsm_mem.Perm

(** A page's software write log for the current interval. *)
type write_log = {
  mutable ranges : (int * int) list;  (** (offset, length) log *)
  mutable words : int;  (** words logged (for cost accounting) *)
}

(** Per-page protocol state at one node. *)
type entry = {
  page : int;
  mutable data : Page.t option;  (** local frame; [None] = not materialized *)
  mutable has_base : bool;
      (** the node holds a usable (possibly stale) base for the page — the
          initial zero page counts; false only after a GC dropped the copy *)
  mutable perm : Perm.t;
  mutable twin : Page.t option;
  mutable version : int;  (** highest version known here *)
  mutable content_version : int;
      (** version whose contents the local frame reflects; owner write
          notices at or below it are dominated and discarded on the fly *)
  mutable committed_version : int;
      (** highest version whose interval is fully contained in the local
          frame — what we may claim when serving copies (a dirty owner's
          frame holds a partial newer interval that must NOT be claimed) *)
  mutable owner : int;  (** last perceived owner / copy-fetch hint *)
  mutable is_owner : bool;
  mutable owned_at : int;  (** sim time ownership was (re)acquired *)
  mutable fs_active : bool;  (** believes the page is write-write falsely
                                 shared (adaptive mode variable: true = MW) *)
  mutable wg_large : bool;  (** WFS+WG: last measured diff above threshold *)
  mutable measured : bool;  (** WFS+WG: granularity has been measured *)
  mutable drop_at_release : bool;
      (** owner must emit a final owner notice at next release, then drop
          ownership and switch the page to MW mode *)
  mutable dirty : bool;  (** written during the current interval *)
  mutable notices : Notice.t list;  (** pending (unapplied) write notices *)
  mutable reflected_frozen : Wmap.t;
      (** with [reflected], the reflected view: per writer [q], the
          newest interval of [q] whose diff the committed local copy
          holds.  Only diff creation and diff application record it; an
          install takes the server's view whole.  Writer [q] reads as
          the larger of this map's value and [reflected]'s.  This map
          was frozen when a reply shipped it ({!reflected_ship}), is
          shared with that reply's receivers and is never set *)
  mutable reflected : Wmap.t;
      (** the seqs recorded above [reflected_frozen] (absent = 0), each
          above the frozen map's value.  Use {!reflected_get} and the
          other [reflected_*] accessors *)
  mutable nw_seqs : Wmap.t;
      (** latest notice per writer (write-write false-sharing
          detection): writer -> the seq of its latest interval whose
          notice on this page was recorded (absent = none).  The
          notice's clock is that interval's, read from the interval
          store by {!check_writers} *)
  mutable nw_dom : int;
      (** dominating-writer summary of [nw_seqs]: the writer whose
          latest notice covers every writer's not in [nw_since]; [-1] =
          no summary.  Maintained by {!set_last_notice}, dropped by
          {!forget_dominating}; see {!check_writers} *)
  mutable nw_since : int array;
      (** writers recorded since [nw_dom] was, [nw_nsince] live, at
          most {!since_cap} *)
  mutable nw_nsince : int;
  mutable fs_view : Bytes.t;
      (** bitset of the processors whose piggybacked "I see this page as
          SW" flag (WFS rule 1) is off; empty = every flag on.  Kept
          by the adaptive protocols only.  Use {!fs_view_get} and
          {!fs_view_set} *)
  mutable copyset : Bytes.t;
      (** approximate copyset, a bitset of the processors that requested
          this page or its diffs from us; empty = no member.  Kept by
          the adaptive protocols only, for rule 1.  Use {!copyset_add}
          and {!copyset_iter} *)
  mutable sw_home_hint : int;
      (** SW protocol: at the page's home, the last known/queued owner *)
  mutable pending_own : (int * int) list;
      (** SW protocol: (requester, version) ownership requests queued while
          a transfer involving this page is in flight *)
  mutable migratory_score : int;
      (** migratory-detection extension: confidence that this page follows
          a read-then-write pattern at this node *)
  mutable read_fault_seq : int;
      (** interval index of the last local read fault on this page *)
  mutable write_log : write_log option;
      (** software write detection: while [Some], the accessors log this
          interval's write ranges instead of relying on a twin *)
  mutable own_diffs : (int * Vc.t * Diff.t) list;
      (** the live diffs this node created for the page, as (interval
          seq, interval timestamp, diff), newest first.  The timestamp is
          the interval's own clock, shared with its notices and its
          {!Interval.t}.  Durable: a crash wipe keeps them, a GC purge
          drops them *)
}

(** Distributed lock state. *)
type lock_state = {
  mutable have_token : bool;  (** the lock token rests here, free *)
  mutable held : bool;  (** this node is inside the critical section *)
  mutable next : (int * Vc.t) option;
      (** requester to hand the lock to at release *)
  mutable home_tail : int;  (** at the home node: last requester in the
                                distributed queue *)
}

(** Number of software-TLB slots per node (a power of two); page [p]
    lives in slot [p land tlb_mask]. *)
val tlb_slots : int

val tlb_mask : int

(** Per-node combining state for the barrier, a tree rooted at node 0
    ({!Sync}; the paper's central barrier is its one-level shape).  A
    node folds its own arrival and each direct child subtree's into the
    concatenated interval list and, if it is an interior node, into the
    componentwise-minimum clock [tb_vcmin] (the knowledge every subtree
    member shares), then forwards ONE combined arrival to its parent.
    The root forwards nothing and a leaf lends its own clock, so neither
    folds clocks.  Reset when the release fans down. *)
type tree_barrier = {
  mutable tb_epoch : int;
  mutable tb_arrived : int;  (** direct children whose subtrees arrived *)
  mutable tb_self_arrived : bool;
  mutable tb_vcmin : Vc.t option;
      (** interior nodes only: allocated at the first barrier and reused,
          so the barrier never allocates an O(nprocs) clock per round *)
  mutable tb_intervals : Interval.t list;
  mutable tb_gc_wanted : bool;
  mutable tb_child_vcs : (int * Vc.t * int) list;
      (** each direct child's subtree-min clock, lent by reference, and
          its {!Vc.version} when sent: kept to compute that child's
          release *)
  mutable tb_gc_done : int;  (** direct children whose subtrees validated *)
  mutable tb_self_gc_done : bool;
}

(** What a node's application process awaits, with its continuation.
    The process blocks in one place at a time, so a node has one wait
    slot. *)
type wait =
  | Running  (** blocked on none of these *)
  | Lock of int * Interval.t list Adsm_sim.Proc.Ivar.t  (** a lock's grant *)
  | Own of int * Msg.t Adsm_sim.Proc.Ivar.t  (** a page's SW ownership *)
  | Barrier of Msg.t Adsm_sim.Proc.Ivar.t  (** the barrier release *)
  | Gc of unit Adsm_sim.Proc.Ivar.t  (** the GC round's completion *)
  | Restart of unit Adsm_sim.Proc.Ivar.t  (** the end of a crash downtime *)

type node = {
  id : int;
  nprocs : int;
  vc : Vc.t;
  pages : entry option array;
      (** indexed by global page number; entries materialize on first
          touch via {!entry_of}, so a node pays only for the pages it
          touches.  Untouched pages hold no protocol state, so lazy
          creation is observationally identical. *)
  intervals : Interval.Logs.t;
      (** one log per writer, a window onto the cluster's
          [interval_store] (see {!Interval.Logs}) *)
  mutable dirty_pages : int list;  (** pages written this interval *)
  mutable own_bytes : int;
      (** encoded bytes of the diffs on the entries' [own_diffs], kept as
          a running count *)
  mutable fetched_diffs : int;
  mutable fetched_bytes : int;
      (** the account of the live diffs this node fetched: their count
          and encoded bytes.  Fetched diffs are applied from their reply
          and not kept; the account is dropped by a crash wipe or a GC
          purge *)
  locks : (int, lock_state) Hashtbl.t;
  mutable wait : wait;
      (** what the node's application process is blocked on; set with
          {!block}, filled by {!wake} *)
  last_barrier_vc : Vc.t;
      (** the cluster's knowledge at the last barrier (bounds what we
          resend): the cluster's shared epoch base, blitted in at every
          barrier leave, and the zero clock before the first.  A
          restarted node's recovery round must bring its clock back to
          at least this one (see FAULTS.md) *)
  mutable barrier_epoch : int;
  mutable hlrc_waiting : (int * (int * int) list * Msg.t Adsm_net.Rpc.respond) list;
      (** HLRC: deferred fetch replies (page, needed (proc,seq) pairs,
          respond closure) waiting for in-flight diffs to reach this home *)
  tlb_rkey : int array;
  tlb_wkey : int array;
  tlb_raw : Bytes.t array;
  mutable tlb_gen : int;
      (** The accessor fast-path cache, [tlb_slots] direct-mapped slots.
          Slot [s] serves a read of page [p] iff [tlb_rkey.(s) = p + tlb_gen]
          and a write iff [tlb_wkey.(s) = p + tlb_gen]; [tlb_raw.(s)] is
          then the page's frame ({!Adsm_mem.Page.raw}).  Filled only by
          {!tlb_fill}, invalidated only by {!tlb_reset}. *)
  tb : tree_barrier;
  rng : Adsm_sim.Rng.t;
  mutable crash_pending : bool;
      (** set by the crash event; the next DSM operation boundary
          performs the fail-stop (wipe + recovery) *)
  mutable crash_restart_at : int;  (** absolute restart instant *)
  mutable stale_seqs : int * int;
      (** [Stale_vc_after_restart] only: peers drop the notices of this
          node's intervals with seqs in [(lo, hi]] ({!Config.mutation}) *)
}

(** The whole simulated cluster.  It holds no barrier bookkeeping: each
    node's combining state is its own [tb]. *)
type cluster = {
  cfg : Config.t;
  engine : Adsm_sim.Engine.t;
  rpc : Msg.t Adsm_net.Rpc.t;
  nodes : node array;
  stats : Stats.t;
  tracer : Adsm_trace.Tracer.t;  (** structured trace emission front-end *)
  recorder : Adsm_check.Recorder.t;
      (** consistency-oracle observation stream front-end *)
  diff_scratch : Diff.scratch;  (** working space for {!Diff.create} *)
  mutable spare_pages : Page.t list;
      (** the page pool: twin buffers freed by interval closes and page
          copies their receivers installed, reused by the next twin or
          copy a message carries ({!pooled_copy}); emptied when the run
          returns *)
  vc_epoch : Vc.Epoch.t;
      (** the clock base the nodes share since the last barrier *)
  interval_store : Interval.Store.t;
      (** every closed interval, once per cluster: the nodes' logs are
          windows onto it *)
}

val make_entry : page:int -> home:int -> entry

(** {2 Sparse entry-metadata accessors}

    Dense semantics over the sized representations above. *)

val reflected_get : entry -> int -> int

(** [reflected_set e ~nprocs q v] records that the copy holds writer
    [q]'s diff [v].  The view only rises: a [v] below
    [reflected_get e q] raises [Failure], so the map's values stay
    above the frozen map's and a read never has to compare them. *)
val reflected_set : entry -> nprocs:int -> int -> int -> unit

(** Install the reflected view of a received page copy; the entry
    shares the frozen map and takes the map above it over. *)
val reflected_install : entry -> Msg.reflected -> unit

(** The reflected view for a reply's [reflected] field: the frozen map
    by reference and a copy of the map above it, so later sets on the
    entry leave it alone.  A map in its dense form is first frozen
    (merged with the map frozen before, if any), and the entry keeps an
    empty map above it: later replies and their receivers share the
    frozen map instead of copying [nprocs + 1] words each.  What the
    view reads is unchanged. *)
val reflected_ship : entry -> nprocs:int -> Msg.reflected

(** Back to all zeros (crash wipe / GC drop). *)
val reflected_reset : entry -> unit

(** {2 The page pool}

    A buffer taken from the pool belongs to its taker: a twin to its
    entry until the diff exists, a page copy to its message until the
    receiver installs it.  Messages are installed exactly once (the
    transport suppresses duplicates and delivers a crashed node's parked
    messages once, after its restart), so each buffer returns once. *)

(** A copy of [src] in a spare buffer, or a fresh one when the pool is
    empty. *)
val pooled_copy : cluster -> Page.t -> Page.t

(** Hand a buffer nothing else references back to the pool. *)
val recycle_page : cluster -> Page.t -> unit

(** Forget the node's copy of the page: frame, base flag, permissions,
    pending notices, content and committed versions and reflected view
    (crash wipe / GC drop).  The caller resets the TLB. *)
val drop_copy : entry -> unit

(** The seq of writer [q]'s latest notice recorded on the page, [0] if
    none. *)
val last_seq : entry -> int -> int

(** Record interval [seq] as writer [q]'s latest notice.  [covers_all]
    says its notice covers every writer's recorded before this call
    ({!check_writers} answered [Covers_all] for it) and makes [q] the
    dominating writer.  Otherwise [q] joins the since-set; recording the
    dominating writer itself again, or overflowing the since-set, drops
    the summary. *)
val set_last_notice : covers_all:bool -> node -> entry -> int -> int -> unit

(** Drop every writer's latest notice (and the summary with them), in
    O(1). *)
val clear_last_notices : entry -> unit

(** Capacity of the since-set. *)
val since_cap : int

(** Drop the dominating-writer summary, keeping the latest notices;
    the next check scans every writer and may re-establish it.  Needed
    wherever the transitive-clock invariant may not hold for the
    recorded notices (crash rollback). *)
val forget_dominating : entry -> unit

(** How a notice relates to the recorded writers. *)
type writers =
  | Covers_all  (** the notice covers every recorded writer's notice *)
  | Uncovered  (** some is not covered, none is concurrent *)
  | Concurrent  (** some recorded writer is concurrent with the notice *)

(** [check_writers ?visit node e n] classifies notice [n] against the
    writers recorded on [node]'s entry [e], calling [visit q] for every
    writer [q] whose latest notice is concurrent with [n] (neither saw
    the other).  Whether [n] covers a notice is one comparison of its
    seq; only a notice [n] does not cover is classified by its clock,
    read with {!Interval.Logs.clock_of}.

    When [n] covers the dominating notice only the since-set is scanned:
    by the transitive-clock invariant (see {!Notice.covers}) [n] then
    covers every notice the dominating one covers.  Otherwise every
    writer is scanned, in {!Wmap.fold} order.  The answer and the set of
    writers visited are the same either way; the visiting order may
    differ.  Without [visit] only a full scan allocates (one closure). *)
val check_writers :
  ?visit:(int -> unit) -> node -> entry -> Notice.t -> writers

val fs_view_get : entry -> int -> bool

val fs_view_set : entry -> nprocs:int -> int -> bool -> unit

val copyset_add : entry -> nprocs:int -> int -> unit

(** Iterate the members of the (approximate) copyset. *)
val copyset_iter : entry -> (int -> unit) -> unit

(** A node whose clocks start on [vc_epoch]'s shared zero base and
    whose interval log is a window onto [store]. *)
val make_node :
  cfg:Config.t ->
  vc_epoch:Vc.Epoch.t ->
  store:Interval.Store.t ->
  id:int ->
  total_pages:int ->
  node

(** Get-or-create the node's entry for a page.  A lazily-created entry is
    exactly what the eager initialization used to build: zero-page base,
    read-only, home = page mod nprocs, owner flag at the home. *)
val entry_of : node -> int -> entry

(** Iterate over the materialized entries — the only ones that can carry
    any protocol state. *)
val iter_entries : node -> (entry -> unit) -> unit

(** The node's byte account: its own-diff running count plus its
    fetched-diff account, what the GC trigger compares with
    [Config.gc_threshold_bytes]. *)
val diff_bytes : node -> int

(** Committed contents of a page at this node: the twin if there is one
    (a twin exists only while the page is dirty), the current data
    otherwise.  [None] when the node has no copy. *)
val committed_copy : entry -> Page.t option

(** The node's frame for the page, allocating it on first use. *)
val frame : entry -> Page.t

(** Invalidate every slot of the node's accessor TLB, in O(1).  Contract
    (see DESIGN.md, "Access fast path"): every site that lowers an entry's
    effective access rights on a node — protection downgrade, frame drop,
    or turning on software write logging — MUST call this, because a
    cached slot bypasses the entry's permission test entirely.  Upgrades
    need no reset: a stale slot is only ever conservative (extra slow-path
    trip). *)
val tlb_reset : node -> unit

(** [tlb_fill node page raw ~write] caches [page]'s frame [raw] in its
    slot, evicting whatever the slot held.  Called by the accessor slow
    path only after the entry's permission test passed: for reads always,
    for writes iff [write] (the entry is [Read_write] and not logging
    writes). *)
val tlb_fill : node -> int -> Bytes.t -> write:bool -> unit

(** The node's state for a lock, created on first use; the token initially
    rests at the [home] node. *)
val lock_state : node -> home:int -> int -> lock_state

(** What a wait awaits, as the deadlock report prints it: [lock:L],
    [own:P], [barrier], [gc], [restart], or [(running/none)]. *)
val describe_wait : wait -> string

(** Put the node's process in the wait slot.
    @raise Failure if the slot already holds a wait. *)
val block : node -> wait -> unit

(** Fill the wait that a lock grant, SW ownership transfer, barrier
    release or GC completion matches (the same lock, the same page).
    The barrier and GC waits leave the slot here; a lock or ownership
    wait stays until its process resumes and clears it, so a forward
    arriving during the ownership install still finds the node waiting.
    @raise Failure naming the node, the arrival and the wait otherwise. *)
val wake : cluster -> node -> Msg.t -> unit

val home_of_page : cluster -> int -> int

val home_of_lock : cluster -> int -> int

(** Whether the cluster tracer is live.  Emission sites are guarded
    with it — [if tracing cl then emit cl ~node (Event.X {...})] — so
    event construction costs nothing when tracing is off. *)
val tracing : cluster -> bool

(** Emit a trace event stamped with the current simulated time. *)
val emit : cluster -> node:int -> Adsm_trace.Event.t -> unit

(** Whether the consistency-oracle recorder is live.  Same guard idiom as
    {!tracing}: [if checking cl then observe cl ~node (Obs.X {...})], so
    the disabled path never constructs observations. *)
val checking : cluster -> bool

(** Record an oracle observation stamped with the current simulated time. *)
val observe : cluster -> node:int -> Adsm_check.Obs.t -> unit
