(** Synchronization over the LRC substrate: distributed locks, the global
    barrier (a combining tree rooted at node 0; the paper's central
    manager is its one-level shape), and diff garbage collection.
    Protocol policy enters only via {!Dispatch.for_cluster} (interval
    closure and the GC survival test). *)

open State

(* --- locks (application side; process context) --- *)

val lock : cluster -> node -> int -> unit

val unlock : cluster -> node -> int -> unit

(* --- barriers (application side; process context) --- *)

(** Global barrier; runs garbage collection when any node's diff byte
    account ({!State.diff_bytes}) exceeded the threshold. *)
val barrier : cluster -> node -> unit

(* --- crash recovery (see FAULTS.md) --- *)

(** Operation-boundary hook: if a crash event marked this node
    ([crash_pending]), perform the fail-stop — close the current
    interval (write-behind log flush), wipe volatile state, roll the
    clock back to its log's floor (keeping its own component), sleep
    out the remaining downtime, and run the peer recovery round: one
    {!Lrc_core.apply_intervals} of every interval the peers retain.
    Fails naming the node and writer if the recovered clock is below
    [last_barrier_vc] in any component.  One predictable-false branch
    when no crash is pending.  Process context only. *)
val pause_if_crashed : cluster -> node -> unit

(** Schedule each crash's engine events: the crash parks the node's
    deliveries and marks it [crash_pending]; the restart flushes them
    and wakes a [Restart] wait, and no other. *)
val arm_crashes : cluster -> Adsm_net.Fault.crash list -> unit

(* --- message handlers (event context: never block) --- *)

(** A restarted peer asks for every closed interval its request clock
    does not cover. *)
val handle_recover_req :
  cluster -> node -> vc:Vc.t -> Msg.t Adsm_net.Rpc.respond -> unit

val handle_lock_acquire : cluster -> node -> src:int -> vc:Vc.t -> int -> unit

val handle_lock_forward :
  cluster -> node -> requester:int -> vc:Vc.t -> int -> unit

(** A child subtree's barrier arrival at [node]: folded into the node's
    combining state; once the whole subtree has checked in, the node
    forwards one combined arrival to its parent, or, at the root, applies
    the combined batch and releases everyone.  [vc] is lent by reference;
    [vc_version] is its {!Vc.version} when sent, checked again when the
    release is computed. *)
val handle_barrier_arrive :
  cluster -> node -> src:int -> vc:Vc.t -> vc_version:int ->
  intervals:Interval.t list -> gc_wanted:bool -> int -> unit

(** A child subtree finished GC validation; forwarded up once the whole
    subtree has. *)
val handle_gc_done : cluster -> node -> int -> unit

(** GC is complete everywhere: pass it down to the children and wake the
    local waiter. *)
val handle_gc_complete : cluster -> node -> int -> unit
