(** Deterministic fault schedules.

    A schedule is pure data carried by the configuration: node
    crash/restart windows, message perturbations (loss, duplication,
    reorder jitter — modeled as a reliable transport over a faulty
    link, so delivery is delayed and wire bytes grow but no message is
    protocol-visibly lost), and link-partition windows.  All randomness
    comes from one dedicated SplitMix64 stream consumed in global send
    order, so the same (seed, schedule) pair replays byte-identically.
    See FAULTS.md. *)

type crash = {
  node : int;
  at : int;  (** simulated ns at which the node fail-stops *)
  downtime : int;  (** ns until it restarts; must be positive *)
}

(** Nodes [p_lo..p_hi] are cut off from the rest during
    [\[p_from, p_until)]; messages crossing the cut are delayed to the
    heal time. *)
type partition = { p_lo : int; p_hi : int; p_from : int; p_until : int }

type schedule = {
  crashes : crash list;
  loss : float;  (** per-transmission loss probability, [0, 0.9] *)
  dup : float;  (** per-message duplication probability, [0, 0.9] *)
  jitter_ns : int;  (** uniform extra fabric delay in [0, jitter_ns] *)
  rto_ns : int;  (** retransmission timeout charged per lost try *)
  partitions : partition list;
}

val default_rto_ns : int

(** The no-fault schedule: running with [Some empty] is byte-identical
    to running with [None]. *)
val empty : schedule

(** Parse a spec string: [;]-separated clauses [crash=NODE@AT:DOWNTIME],
    [part=LO-HI@FROM:UNTIL], [loss=P], [dup=P], [jitter=DUR], [rto=DUR],
    where durations take an optional [ns]/[us]/[ms] suffix (default ns).
    Clauses may repeat ([crash], [part]) or override ([loss], ...). *)
val of_string : string -> (schedule, string) result

(** Canonical spec string; [of_string (to_string s) = Ok s]. *)
val to_string : schedule -> string

val pp : Format.formatter -> schedule -> unit

(** Structural validity for an [nprocs]-node run: nodes in range, every
    crash has a restart, per-node crash windows disjoint, probability
    and window bounds.  Checked by [Dsm.run] before anything starts. *)
val validate : nprocs:int -> schedule -> (unit, string) result

(** Draw a random valid schedule (at least one crash) sized for a run of
    roughly [horizon_ns] simulated time. *)
val generate : Adsm_sim.Rng.t -> nprocs:int -> horizon_ns:int -> schedule

(** Candidate reductions for shrinking, biggest cuts first (drop the
    partition, zero loss/dup/jitter, drop or shorten a crash).  Every
    candidate is valid whenever the input is. *)
val shrink : schedule -> schedule Seq.t

(** {1 Runtime state}

    Owned by {!Network}; exposed here because the schedule types live in
    this module.  [rng] is only drawn from [perturb], which runs in
    global send order; [down] marks the nodes inside a crash window. *)

type runtime = { sched : schedule; rng : Adsm_sim.Rng.t; down : bool array }

(** Fresh runtime state; the fault RNG stream is derived from [seed] with
    a fixed offset so it is independent of the per-node workload RNGs. *)
val runtime : schedule -> seed:int64 -> nodes:int -> runtime

(** Perturb one message: given its unperturbed fabric [arrival], return
    the (possibly delayed) arrival plus the wire-byte overhead of
    retransmissions and duplicates.  Never returns an arrival below the
    input. *)
val perturb :
  runtime ->
  now:int ->
  arrival:int ->
  src:int ->
  dst:int ->
  wire_bytes:int ->
  int * int
