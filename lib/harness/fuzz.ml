(* Bridge between the pure workload AST (lib/check has no view of the
   DSM runtime) and an actual simulated run: interpret a program under a
   protocol with the oracle's recorder attached, validate the stream,
   and on failure shrink to a minimal failing program.

   Written values are unique per run — (node, per-node counter) encoded
   as a float — so a stale read can never be masked by value
   coincidence. *)

module Config = Adsm_dsm.Config
module Dsm = Adsm_dsm.Dsm
module Fault = Adsm_net.Fault
module Registry = Adsm_apps.Registry
module Rng = Adsm_sim.Rng
module Obs = Adsm_check.Obs
module Recorder = Adsm_check.Recorder
module Oracle = Adsm_check.Oracle
module Workload = Adsm_check.Workload

type outcome = {
  program : Workload.program;
  faults : Fault.schedule option;
  report : Oracle.report;
  stream : Obs.stamped array;
  abort : string option;
}

let run_program ?mutation ?faults ?(protocol = Config.Mw) ?(seed = 0x5EEDL)
    (p : Workload.program) =
  let cfg = Config.make ~seed ~protocol ~nprocs:p.Workload.nprocs () in
  let cfg = { cfg with Config.mutation; faults } in
  let t = Dsm.create cfg in
  let arr =
    Dsm.alloc_f64 t ~name:"fuzz"
      ~len:(((p.Workload.words - 1) * p.Workload.stride) + 1)
  in
  let locks = Array.init p.Workload.nlocks (fun _ -> Dsm.fresh_lock t) in
  let recorder = Recorder.create () in
  let counters = Array.make p.Workload.nprocs 0 in
  let program ctx =
    let me = Dsm.me ctx in
    let do_op = function
      | Workload.R w -> ignore (Dsm.f64_get ctx arr (w * p.Workload.stride))
      | Workload.W w ->
        counters.(me) <- counters.(me) + 1;
        let v = float_of_int ((me * 1_000_000) + counters.(me)) in
        Dsm.f64_set ctx arr (w * p.Workload.stride) v
      | Workload.C ns -> Dsm.compute ctx ns
    in
    let do_unit = function
      | Workload.Plain op -> do_op op
      | Workload.Crit (l, ops) ->
        Dsm.lock ctx locks.(l);
        List.iter do_op ops;
        Dsm.unlock ctx locks.(l)
    in
    Array.iter
      (fun phase ->
        List.iter do_unit phase.(me);
        Dsm.barrier ctx)
      p.Workload.phases
  in
  ignore (Dsm.run ~recorder t program);
  let stream = Recorder.stream recorder in
  {
    program = p;
    faults;
    report = Oracle.check ~nprocs:p.Workload.nprocs stream;
    stream;
    abort = None;
  }

let failed o = o.abort <> None || not (Oracle.ok o.report)

(* A candidate fails the way the input does: an oracle violation shrinks
   among violations, an abort (the run raised) among aborts, so a
   shrink never trades one bug for another (e.g. a mutated protocol
   deadlocking on a reduced program).

   Shrinking is joint over (program, fault schedule): each step first
   tries to simplify the schedule (drop a crash, zero a probability)
   under the unchanged program, then to shrink the program under the
   unchanged schedule, and greedily recurses on the first candidate
   that still fails.  A counterexample therefore ends up minimal in
   both dimensions — e.g. the seeded recovery mutations typically
   shrink to a single crash and a two-node write/read program. *)
let shrink_failing ?mutation ?protocol ?seed ?faults (p : Workload.program) =
  let run (q, fs) =
    match run_program ?mutation ?faults:fs ?protocol ?seed q with
    | o -> o
    | exception e ->
      {
        program = q;
        faults = fs;
        report = Oracle.check ~nprocs:q.Workload.nprocs [||];
        stream = [||];
        abort = Some (Printexc.to_string e);
      }
  in
  let first = run (p, faults) in
  let try_run cand =
    let o = run cand in
    if failed o && Option.is_some o.abort = Option.is_some first.abort then
      Some o
    else None
  in
  let candidates (q, fs) =
    let sched_shrinks =
      match fs with
      | None -> Seq.empty
      | Some s -> Seq.map (fun s' -> (q, Some s')) (Fault.shrink s)
    in
    let prog_shrinks = Seq.map (fun q' -> (q', fs)) (Workload.shrink q) in
    Seq.append sched_shrinks prog_shrinks
  in
  let rec first_failing seq =
    match seq () with
    | Seq.Nil -> None
    | Seq.Cons (cand, rest) -> (
      match try_run cand with
      | Some o -> Some o
      | None -> first_failing rest)
  in
  let rec go current =
    match first_failing (candidates (current.program, current.faults)) with
    | Some smaller -> go smaller
    | None -> current
  in
  if failed first then Some (go first) else None

(* Fault-mode fuzzing first runs the program clean (no mutation, no
   faults) to learn its simulated duration, then generates a schedule
   whose crashes land inside that horizon — a fixed horizon would miss
   short programs entirely and never exercise recovery.  HLRC runs take
   no crash schedule ([Dsm.run] rejects one), so theirs keeps only the
   message faults, drawn from the same stream. *)
let case ?protocol ~faults ~nprocs ~seed () =
  let rng = Rng.create seed in
  let p = Workload.generate rng (Workload.default_params ~nprocs) in
  if not faults then (p, None)
  else
    let clean = run_program ?protocol ~seed p in
    let horizon_ns =
      let n = Array.length clean.stream in
      if n = 0 then 1_000_000
      else max 100_000 clean.stream.(n - 1).Obs.time
    in
    let s = Fault.generate rng ~nprocs ~horizon_ns in
    let s =
      if protocol = Some Config.Hlrc then { s with Fault.crashes = [] } else s
    in
    (p, Some s)

let fuzz_once ?mutation ?protocol ?(faults = false) ~nprocs ~seed () =
  let p, sched = case ?protocol ~faults ~nprocs ~seed () in
  run_program ?mutation ?faults:sched ?protocol ~seed p

(* Parallel seed sweep: each seed's generate+run+check is independent, so
   the sweep fans out over a {!Pool} and reports per-seed results in seed
   order.  A crash (e.g. a mutated protocol deadlocking) is captured as
   [Error] rather than aborting the other seeds — the CLI prints it per
   seed, exactly as the sequential loop did.  Shrinking of failing seeds
   stays with the caller, after the sweep. *)
let sweep ?(jobs = 1) ?mutation ?protocol ?faults ~nprocs ~seed ~count () =
  if nprocs < 1 then
    invalid_arg (Printf.sprintf "fuzz: needs at least 1 node (got %d)" nprocs);
  let seeds = List.init count (fun i -> seed + i) in
  Pool.map ~jobs
    (fun s ->
      match
        fuzz_once ?mutation ?protocol ?faults ~nprocs ~seed:(Int64.of_int s) ()
      with
      | o -> (s, Ok o)
      | exception e -> (s, Error (Printexc.to_string e)))
    seeds

let counterexample outcome =
  let faults =
    match outcome.faults with
    | None -> ""
    | Some s -> Format.asprintf "@.--- faults ---@.%a@." Fault.pp s
  in
  match
    ( outcome.abort,
      outcome.report.Oracle.violations,
      outcome.report.Oracle.fault_errors )
  with
  | Some msg, _, _ ->
    Some
      (Format.asprintf "ABORT: %s@.--- workload ---@.%a%s" msg Workload.pp
         outcome.program faults)
  | None, v :: _, _ ->
    Some
      (Format.asprintf "%a@.--- workload ---@.%a%s"
         (fun ppf (stream, v) -> Oracle.pp_counterexample ppf stream v)
         (outcome.stream, v) Workload.pp outcome.program faults)
  | None, [], _ :: _ ->
    (* Crash/recovery structure errors have no single anchoring
       observation, so print the report itself plus the inputs. *)
    Some
      (Format.asprintf "%a@.--- workload ---@.%a%s" Oracle.pp_report
         outcome.report Workload.pp outcome.program faults)
  | None, [], [] -> None
