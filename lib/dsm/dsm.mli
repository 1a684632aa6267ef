(** Public DSM API.

    Usage:
    {[
      let cfg = Config.make ~protocol:Config.Wfs ~nprocs:8 () in
      let t = Dsm.create cfg in
      let data = Dsm.alloc_f64 t ~name:"grid" ~len:100_000 in
      let report =
        Dsm.run t (fun ctx ->
            let me = Dsm.me ctx in
            Dsm.f64_set ctx data me 1.0;
            Dsm.barrier ctx;
            ...)
      in
      Fmt.pr "took %d ns, %d messages@." report.time_ns report.messages
    ]}

    The callback runs once per simulated processor, as a cooperative
    process inside the simulation.  All shared-memory accesses go through
    the typed accessors, which enforce the simulated page protection and
    fault into the configured protocol (MW, SW, WFS or WFS+WG). *)

type t
(** A cluster under construction (allocate regions, then [run]). *)

type ctx
(** Per-processor execution context, passed to the application function. *)

(** Typed shared arrays. *)
type f64s

type i32s

type report = {
  time_ns : int;  (** simulated execution time *)
  messages : int;
  payload_bytes : int;  (** paper's "data" metric: payload excluding headers *)
  wire_bytes : int;
  by_kind : (string * (int * int)) list;  (** kind -> (messages, bytes) *)
  stats : Stats.t;
  shared_pages : int;
  events : int;  (** simulation events executed *)
}

val create : Config.t -> t

val config : t -> Config.t

(** Allocate a page-aligned shared array of [len] float64s. *)
val alloc_f64 : t -> name:string -> len:int -> f64s

(** Allocate a page-aligned shared array of [len] int32s. *)
val alloc_i32 : t -> name:string -> len:int -> i32s

(** A fresh lock identifier. *)
val fresh_lock : t -> int

(** Run the application on every simulated processor and drain the
    simulation.

    [tracer] (default: {!Adsm_trace.Tracer.disabled}) receives the
    structured event stream — see [TRACING.md].  Tracing is purely
    observational: a traced run executes the same events and moves the
    same bytes as an untraced one.  The caller keeps ownership of the
    tracer and must {!Adsm_trace.Tracer.close} it after [run] returns.

    [recorder] (default: {!Adsm_check.Recorder.disabled}) receives the
    consistency oracle's observation stream — every shared read/write
    and every lock/barrier synchronization operation, in completion
    order — see [TESTING.md].  Like tracing it is purely observational:
    a checked run executes the same events and moves the same bytes as
    an unchecked one.  Validate afterwards with
    {!Adsm_check.Oracle.check}.

    @raise Invalid_argument before any event runs if the configuration
    is malformed: a barrier fanout below 2, a lock-shard count outside
    [1..nprocs], or a fault schedule the configuration cannot honour.
    @raise Failure if the run deadlocks (processes blocked when the
    event queue empties). *)
val run :
  ?tracer:Adsm_trace.Tracer.t ->
  ?recorder:Adsm_check.Recorder.t ->
  t ->
  (ctx -> unit) ->
  report

(** The cluster of the last {!run}, set as the run starts: its protocol
    state, for inspection during or after the run (tests, tools).  [None]
    before any run. *)
val cluster : t -> State.cluster option

(* --- operations available inside the application function --- *)

val me : ctx -> int

val nprocs : ctx -> int

(** Charge [ns] nanoseconds of local computation to the simulated clock. *)
val compute : ctx -> int -> unit

(** Current simulated time. *)
val now : ctx -> int

(** Deterministic per-processor random stream. *)
val rng : ctx -> Adsm_sim.Rng.t

val lock : ctx -> int -> unit

val unlock : ctx -> int -> unit

val barrier : ctx -> unit

(** Shared-array accessors (bounds-checked; fault into the protocol). *)
val f64_get : ctx -> f64s -> int -> float

val f64_set : ctx -> f64s -> int -> float -> unit

val i32_get : ctx -> i32s -> int -> int32

val i32_set : ctx -> i32s -> int -> int32 -> unit

(** [i32_add ctx a i v] adds [v] to element [i] (read-modify-write).
    Single locate: observable semantics are exactly [i32_get] followed by
    [i32_set] — the read (and any read fault) happens first, the addend is
    applied to the value read before the write fault, and the write never
    re-reads. *)
val i32_add : ctx -> i32s -> int -> int32 -> unit

(** {2 Bulk page-run operations}

    Sugar over the word accessors with identical observable semantics
    (same faults in the same order, same bytes, same diffs, same
    observation stream under the consistency recorder) — see PROTOCOL.md.
    The win is purely host-side: one bounds+permission check per
    within-page run (up to 512 f64 / 1024 i32 words) instead of per word,
    and under software write detection one coalesced logged range per run
    instead of one per word. *)

(** [f64_get_run ctx a i dst pos len] reads elements [\[i, i+len)] into
    [dst.(pos) .. dst.(pos+len-1)].  Equivalent to [len] calls of
    {!f64_get} at ascending indices. *)
val f64_get_run : ctx -> f64s -> int -> float array -> int -> int -> unit

(** [f64_set_run ctx a i src pos len] writes [src.(pos) ..
    src.(pos+len-1)] to elements [\[i, i+len)].  Equivalent to [len] calls
    of {!f64_set} at ascending indices. *)
val f64_set_run : ctx -> f64s -> int -> float array -> int -> int -> unit

(** [f64_fold_run ctx a i len ~init ~f] folds [f] over elements
    [\[i, i+len)] in ascending order without materializing them. *)
val f64_fold_run :
  ctx -> f64s -> int -> int -> init:'a -> f:('a -> float -> 'a) -> 'a

val i32_get_run : ctx -> i32s -> int -> int32 array -> int -> int -> unit

val i32_set_run : ctx -> i32s -> int -> int32 array -> int -> int -> unit

val i32_fold_run :
  ctx -> i32s -> int -> int -> init:'a -> f:('a -> int32 -> 'a) -> 'a
