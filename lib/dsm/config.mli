(** DSM runtime configuration: protocol selection and threshold knobs,
    plus the fixed CPU cost model.

    Default values reproduce the paper's Section 4 environment. *)

(** {1 CPU cost model}

    The simulated CPU charges of the protocol work, fixed at the paper's
    Section 4 measurements and shared by every run (see PROTOCOL.md §7). *)

val twin_ns : int
(** making a twin (paper: 104 us) *)

val diff_create_ns : int
(** diffing a full page against its twin (paper: 179 us) *)

val diff_apply_base_ns : int
(** fixed cost of applying one diff (20 us) *)

val diff_apply_byte_ns : int
(** per modified byte of an applied diff (40 ns) *)

val page_install_ns : int
(** installing a received page copy (30 us) *)

val fault_ns : int
(** trap and handler dispatch per page fault (20 us) *)

val write_log_ns : int
(** logging one shared write when [write_ranges] is on (250 ns) *)

val diff_run_ns : int
(** assembling one run of a diff from logged write ranges (500 ns) *)

(** {1 Protocols and settings} *)

type protocol =
  | Mw  (** non-adaptive multiple writer (TreadMarks) *)
  | Sw  (** non-adaptive single writer (CVM-like) *)
  | Wfs  (** adaptive: write-write false sharing only *)
  | Wfs_wg  (** adaptive: false sharing + write granularity *)
  | Hlrc
      (** extension: home-based LRC (Zhou et al., OSDI'96, cited in the
          paper's related work) — diffs are flushed eagerly to each page's
          static home at release and discarded; faults fetch the whole
          current page from the home.  No diff storage, no garbage
          collection, but traffic concentrates at (possibly poorly chosen)
          homes. *)

val protocol_name : protocol -> string

val protocol_of_string : string -> protocol option

val all_protocols : protocol list
(** The paper's four protocols, in its presentation order. *)

val extended_protocols : protocol list
(** The paper's four plus the HLRC extension. *)

(** Deliberately-broken protocol variants for the mutation-detection
    suite (see TESTING.md): each silently corrupts consistency in a way
    the {!Adsm_check.Oracle} must flag, certifying that a green oracle
    run has detection power, not vacuity.  [None] (the default) is the
    correct protocol; mutations never change message flow, only data. *)
type mutation =
  | Skip_diff_apply
      (** apply no remote diff to the local frame (fetches and
          bookkeeping proceed normally) *)
  | Drop_write_notice
      (** omit odd-numbered pages' write notices from closed intervals *)
  | Stale_ownership_grant
      (** ownership grants (SW transfers and adaptive [Own_reply]s)
          carry a stale version, so the new owner's write notices are
          ignored by peers that already hold the previous version *)
  | Skip_notice_replay
      (** crash recovery asks peers only for the intervals its
          last-barrier clock misses and re-applies no covered notice:
          writes the crashed node had been told about but lost with
          its volatile state are silently forgotten (needs a crash
          schedule) *)
  | Stale_vc_after_restart
      (** peers take a restarted node's first post-restart intervals,
          as many as its clock advanced since its last barrier, for
          duplicates and drop their notices, as if its own clock
          component had rolled back and reissued those seqs (needs a
          crash schedule) *)

val mutation_name : mutation -> string

val mutation_of_string : string -> mutation option

val all_mutations : mutation list

type t = {
  protocol : protocol;
  nprocs : int;
  net : Adsm_net.Netcfg.t;
  topology : Adsm_net.Topology.shape;
      (** fabric shape the cluster runs on; [Flat] (default) reproduces
          the paper's network byte-identically *)
  barrier_fanout : int;
      (** fanout of the barrier tree (see PROTOCOL.md §6): the barrier
          is a combining tree rooted at node 0, arrivals merge interval
          sets and vector clocks up it and releases fan back down.  The
          default [max 2 nprocs] is the paper's manager at node 0, the
          one-level tree in which every other node is a direct child of
          node 0; large clusters pick a small fanout.  [Dsm.run] rejects
          a fanout below 2 *)
  lock_shards : int;
      (** lock-home placement: lock [l] lives at node
          [l mod k * (nprocs / k)] for [k] shards, manager nodes chosen
          evenly across the cluster, which on a tree topology keeps them
          on distinct switches instead of crowding the low-numbered
          nodes.  The default [nprocs] is the paper's placement, lock [l]
          at node [l mod nprocs].  [Dsm.run] rejects a count outside
          [1..nprocs] *)
  sparse_vc : bool;
      (** account piggybacked vector clocks at their delta-encoded wire
          size (entries changed since the sender's last barrier) instead
          of 4 bytes per processor.  Pure cost-model change: no protocol
          content differs.  Off by default. *)
  wg_threshold_bytes : int;  (** diff size above which WFS+WG prefers SW
                                 (paper: 3 KB) *)
  ownership_quantum_ns : int;  (** minimum ownership tenure (paper: 1 ms) *)
  gc_threshold_bytes : int;  (** per-node live diff space that triggers
                                 garbage collection (paper: 1 MB) *)
  migratory_detection : bool;
      (** extension sketched in the paper's related-work section: detect
          read-then-write (migratory) pages and migrate ownership on the
          read miss, saving the write fault's ownership exchange.
          Off by default (not part of the paper's evaluation). *)
  write_ranges : bool;
      (** software write detection (the paper cites write ranges / Midway
          as cheaper alternatives to diffing): every shared write is
          logged, and diffs are built from the logged ranges at release —
          no twins, no page scans, but a per-write logging cost
          ({!write_log_ns}).  Off by default. *)
  schedule_fuzz : int option;
      (** schedule fuzzing: permute the firing order of same-instant
          simulation events deterministically from this seed.  Correct
          protocols must produce bit-identical application results under
          every seed (property-tested); costs and message counts may
          legitimately vary. *)
  mutation : mutation option;
      (** inject a deliberate protocol bug (testing only; default
          [None]) *)
  faults : Adsm_net.Fault.schedule option;
      (** deterministic fault schedule (crashes, message perturbations,
          partitions — see FAULTS.md).  [None] (the default) is the
          failure-free cluster, byte-identical to builds without the
          fault subsystem; [Some Fault.empty] behaves identically.
          Crash schedules require every closed interval's modifications
          to sit in the diff store (so no [write_ranges]) and a non-HLRC
          protocol. *)
  seed : int64;  (** root seed for all application randomness *)
}

(** Paper defaults with the given protocol and processor count. *)
val make : ?seed:int64 -> protocol:protocol -> nprocs:int -> unit -> t
