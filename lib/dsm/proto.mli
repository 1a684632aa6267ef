(** The four DSM protocols (MW, SW, WFS, WFS+WG) over the LRC runtime.

    Entry points come in two flavors:
    - application-context operations ([read_fault], [write_fault], [lock],
      [unlock], [barrier]) run inside a simulated process and may block and
      charge simulated time;
    - [handle_message] runs in event context (a network handler) and never
      blocks; costs it incurs are charged as added latency on its replies. *)

(** Service a read page fault; on return the page is readable.
    Must run in process context. *)
val read_fault : State.cluster -> State.node -> State.entry -> unit

(** Service a write page fault; on return the page is writable and
    registered dirty. *)
val write_fault : State.cluster -> State.node -> State.entry -> unit

(** Acquire/release a distributed lock. *)
val lock : State.cluster -> State.node -> int -> unit

val unlock : State.cluster -> State.node -> int -> unit

(** Global barrier (a combining tree rooted at node 0); runs garbage
    collection when any node's diff store exceeded the threshold. *)
val barrier : State.cluster -> State.node -> unit

(** Close the current interval if the node has dirty pages (creates diffs /
    owner write notices).  Exposed for tests and end-of-run flushing. *)
val end_interval_local : State.cluster -> State.node -> unit

(** Crash-recovery operation-boundary hook (see {!Sync.pause_if_crashed}
    and FAULTS.md); called by every DSM operation entry point and by
    [Dsm.compute].  Process context. *)
val pause_if_crashed : State.cluster -> State.node -> unit

(** Dispatch an incoming protocol message at [node]. *)
val handle_message :
  State.cluster ->
  node:int ->
  src:int ->
  Msg.t ->
  Msg.t Adsm_net.Rpc.respond option ->
  unit

(** True when the node, per its pending notices and mode flags, believes the
    page is free of write-write false sharing (exposed for tests). *)
val sees_page_as_sw : State.entry -> bool
