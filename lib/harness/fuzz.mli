(** Drive the consistency oracle: interpret {!Adsm_check.Workload}
    programs on the simulated DSM with the observation recorder
    attached, validate the stream, shrink failures, and check the real
    benchmark applications.

    Lives in the harness (not [lib/check]) because the workload AST is
    deliberately runtime-free — this module is the one place that knows
    how to execute it under {!Adsm_dsm.Dsm}.

    Fault mode (FAULTS.md): every entry point optionally takes a fault
    schedule; [fuzz_once ~faults:true] generates a schedule alongside
    the program, and {!shrink_failing} shrinks jointly over program and
    schedule. *)

type outcome = {
  program : Adsm_check.Workload.program;
  faults : Adsm_net.Fault.schedule option;
      (** the schedule the run executed under, if any *)
  report : Adsm_check.Oracle.report;
  stream : Adsm_check.Obs.stamped array;
  abort : string option;
      (** the exception a shrunk run raised ([report] and [stream] are
          then empty); {!run_program} and {!fuzz_once} raise instead *)
}

(** Run one workload program under [protocol] (default MW) with the
    oracle recording.  [mutation] injects a deliberate protocol bug
    (see {!Adsm_dsm.Config.mutation}); [faults] runs it under a fault
    schedule. *)
val run_program :
  ?mutation:Adsm_dsm.Config.mutation ->
  ?faults:Adsm_net.Fault.schedule ->
  ?protocol:Adsm_dsm.Config.protocol ->
  ?seed:int64 ->
  Adsm_check.Workload.program ->
  outcome

(** If the program fails — the oracle flags it, or the run raises —
    greedily shrink it to a minimal failing (program, schedule) pair and
    return that outcome; [None] if the full program passes.  Each greedy
    step first tries schedule simplifications (drop a crash or
    partition, zero a probability), then program shrinks.  A candidate
    counts only if it fails the same way as the input: an oracle
    violation shrinks among violations, an abort among aborts. *)
val shrink_failing :
  ?mutation:Adsm_dsm.Config.mutation ->
  ?protocol:Adsm_dsm.Config.protocol ->
  ?seed:int64 ->
  ?faults:Adsm_net.Fault.schedule ->
  Adsm_check.Workload.program ->
  outcome option

(** Generate a random workload from [seed] and run it checked.  With
    [~faults:true] (default false) the program is first run clean to
    learn its simulated duration, then re-run under a schedule generated
    from the same seed whose crashes land inside that horizon.  Under
    HLRC, which takes no crash schedule, the schedule keeps only its
    message faults (loss, duplication, jitter, partitions). *)
val fuzz_once :
  ?mutation:Adsm_dsm.Config.mutation ->
  ?protocol:Adsm_dsm.Config.protocol ->
  ?faults:bool ->
  nprocs:int ->
  seed:int64 ->
  unit ->
  outcome

(** The (program, schedule) pair {!fuzz_once} runs (in fault mode after
    a clean run that times the schedule, which may raise): with
    {!shrink_failing}, how a seed that raised in {!sweep} becomes a
    replayable counterexample. *)
val case :
  ?protocol:Adsm_dsm.Config.protocol ->
  faults:bool ->
  nprocs:int ->
  seed:int64 ->
  unit ->
  Adsm_check.Workload.program * Adsm_net.Fault.schedule option

(** [sweep ~jobs ~nprocs ~seed ~count ()] runs [fuzz_once] on the [count]
    consecutive seeds starting at [seed], on up to [jobs] worker domains
    (default 1, fully sequential).  Results come back in seed order; a
    seed whose run raises is reported as [Error] with the exception text
    instead of aborting the sweep.  Used for both plain fuzzing and
    mutation-detection sweeps (pass [mutation], and [~faults:true] for
    the recovery mutations, which only manifest under crashes).  Raises
    [Invalid_argument] before any run if [nprocs < 1]. *)
val sweep :
  ?jobs:int ->
  ?mutation:Adsm_dsm.Config.mutation ->
  ?protocol:Adsm_dsm.Config.protocol ->
  ?faults:bool ->
  nprocs:int ->
  seed:int ->
  count:int ->
  unit ->
  (int * (outcome, string) result) list

(** Human-readable counterexample (first violation's trace window, or
    the abort message, plus the workload program and, in fault mode,
    the schedule); [None] if the outcome passed. *)
val counterexample : outcome -> string option
