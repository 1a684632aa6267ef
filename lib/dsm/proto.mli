(** The four DSM protocols (MW, SW, WFS, WFS+WG) over the LRC runtime.

    Entry points come in two flavors:
    - the page-fault handlers ([read_fault], [write_fault]) run inside a
      simulated process and may block and charge simulated time (locks
      and barriers are {!Sync}'s);
    - [handle_message] runs in event context (a network handler) and never
      blocks; costs it incurs are charged as added latency on its replies. *)

(** Service a read page fault; on return the page is readable.
    Must run in process context. *)
val read_fault : State.cluster -> State.node -> State.entry -> unit

(** Service a write page fault; on return the page is writable and
    registered dirty. *)
val write_fault : State.cluster -> State.node -> State.entry -> unit

(** Dispatch an incoming protocol message at [node]. *)
val handle_message :
  State.cluster ->
  node:int ->
  src:int ->
  Msg.t ->
  Msg.t Adsm_net.Rpc.respond option ->
  unit

