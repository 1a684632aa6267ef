(* Deterministic fault schedules and their runtime state.

   A schedule is pure data: node crash/restart windows, message-level
   perturbations (loss, duplication, reorder jitter) and link-partition
   windows.  It travels with the configuration — the same (seed,
   schedule) pair must replay byte-identically — so everything random is
   drawn from one dedicated SplitMix64 stream consumed inside
   {!Network.send}, in global send order.

   The transport model is RELIABLE delivery over a faulty link: a lost
   message is retransmitted until it gets through (the draw decides how
   many tries, each adding one round-trip timeout of latency and one
   wire copy of overhead), a duplicate is suppressed by receiver-side
   sequence numbers (costing only wire bytes), reorder jitter and
   partition windows delay the fabric crossing.  No protocol message is
   ever truly dropped, so the DSM layer needs no timeout/abort paths and
   a run under any message schedule still completes — see FAULTS.md for
   why this is the honest boundary of the model. *)

module Rng = Adsm_sim.Rng

type crash = { node : int; at : int; downtime : int }

type partition = { p_lo : int; p_hi : int; p_from : int; p_until : int }

type schedule = {
  crashes : crash list;
  loss : float;  (** per-transmission loss probability, [0, 0.9] *)
  dup : float;  (** per-message duplication probability, [0, 0.9] *)
  jitter_ns : int;  (** uniform extra fabric delay in [0, jitter_ns] *)
  rto_ns : int;  (** retransmission timeout charged per lost try *)
  partitions : partition list;
}

let default_rto_ns = 400_000

let empty =
  { crashes = []; loss = 0.; dup = 0.; jitter_ns = 0;
    rto_ns = default_rto_ns; partitions = [] }

(* ------------------------------------------------------------------ *)
(* Spec strings                                                       *)
(* ------------------------------------------------------------------ *)

(* Grammar (see FAULTS.md): `;`-separated clauses
     crash=NODE@AT:DOWNTIME      (repeatable)
     part=LO-HI@FROM:UNTIL       (repeatable)
     loss=P  dup=P  jitter=DUR  rto=DUR
   where DUR/AT/DOWNTIME take an optional ns/us/ms suffix (default ns). *)

let duration_of_string s =
  let num mult body =
    match int_of_string_opt body with
    | Some v when v >= 0 -> Some (v * mult)
    | Some _ | None -> None
  in
  let n = String.length s in
  if n > 2 && String.sub s (n - 2) 2 = "ns" then num 1 (String.sub s 0 (n - 2))
  else if n > 2 && String.sub s (n - 2) 2 = "us" then
    num 1_000 (String.sub s 0 (n - 2))
  else if n > 2 && String.sub s (n - 2) 2 = "ms" then
    num 1_000_000 (String.sub s 0 (n - 2))
  else num 1 s

let split_on c s = String.split_on_char c s |> List.filter (fun x -> x <> "")

let of_string spec =
  let ( let* ) r f = Result.bind r f in
  let err fmt = Printf.ksprintf Result.error fmt in
  let prob clause v =
    match float_of_string_opt v with
    | Some p when p >= 0. && p <= 0.9 -> Ok p
    | Some _ | None -> err "%s: probability must be in [0, 0.9]" clause
  in
  let dur clause v =
    match duration_of_string v with
    | Some d -> Ok d
    | None -> err "%s: bad duration %S (NUM[ns|us|ms])" clause v
  in
  let parse_clause acc clause =
    match String.index_opt clause '=' with
    | None -> err "bad clause %S (expected key=value)" clause
    | Some i -> (
      let key = String.sub clause 0 i in
      let v = String.sub clause (i + 1) (String.length clause - i - 1) in
      match key with
      | "loss" ->
        let* p = prob clause v in
        Ok { acc with loss = p }
      | "dup" ->
        let* p = prob clause v in
        Ok { acc with dup = p }
      | "jitter" ->
        let* d = dur clause v in
        Ok { acc with jitter_ns = d }
      | "rto" ->
        let* d = dur clause v in
        Ok { acc with rto_ns = d }
      | "crash" -> (
        match split_on '@' v with
        | [ node; window ] -> (
          match (int_of_string_opt node, split_on ':' window) with
          | Some node, [ at; downtime ] ->
            let* at = dur clause at in
            let* downtime = dur clause downtime in
            Ok { acc with crashes = { node; at; downtime } :: acc.crashes }
          | _ -> err "%s: expected crash=NODE@AT:DOWNTIME" clause)
        | _ -> err "%s: expected crash=NODE@AT:DOWNTIME" clause)
      | "part" -> (
        match split_on '@' v with
        | [ range; window ] -> (
          match (split_on '-' range, split_on ':' window) with
          | [ lo; hi ], [ from; until ] -> (
            match (int_of_string_opt lo, int_of_string_opt hi) with
            | Some p_lo, Some p_hi ->
              let* p_from = dur clause from in
              let* p_until = dur clause until in
              Ok
                {
                  acc with
                  partitions =
                    { p_lo; p_hi; p_from; p_until } :: acc.partitions;
                }
            | _ -> err "%s: expected part=LO-HI@FROM:UNTIL" clause)
          | _ -> err "%s: expected part=LO-HI@FROM:UNTIL" clause)
        | _ -> err "%s: expected part=LO-HI@FROM:UNTIL" clause)
      | _ -> err "unknown fault clause %S" key)
  in
  let* s =
    List.fold_left
      (fun acc clause ->
        let* acc = acc in
        parse_clause acc clause)
      (Ok empty)
      (split_on ';' (String.trim spec))
  in
  Ok { s with crashes = List.rev s.crashes; partitions = List.rev s.partitions }

let to_string s =
  let b = Buffer.create 64 in
  let clause fmt =
    Printf.ksprintf
      (fun c ->
        if Buffer.length b > 0 then Buffer.add_char b ';';
        Buffer.add_string b c)
      fmt
  in
  List.iter (fun c -> clause "crash=%d@%d:%d" c.node c.at c.downtime) s.crashes;
  if s.loss > 0. then clause "loss=%g" s.loss;
  if s.dup > 0. then clause "dup=%g" s.dup;
  if s.jitter_ns > 0 then clause "jitter=%d" s.jitter_ns;
  if s.rto_ns <> default_rto_ns then clause "rto=%d" s.rto_ns;
  List.iter
    (fun p -> clause "part=%d-%d@%d:%d" p.p_lo p.p_hi p.p_from p.p_until)
    s.partitions;
  Buffer.contents b

let pp ppf s = Format.pp_print_string ppf (to_string s)

(* ------------------------------------------------------------------ *)
(* Validation                                                         *)
(* ------------------------------------------------------------------ *)

(* Every crash must restart (downtime > 0 and finite by construction):
   the recovery design has no permanent-failure mode — barriers wait for
   the crashed node, which is what keeps GC from purging the diffs its
   recovery needs.  Per-node crash windows must not overlap: a node
   cannot crash again before its previous restart completed. *)
let validate ~nprocs s =
  let err fmt = Printf.ksprintf Result.error fmt in
  let check_crash acc (c : crash) =
    Result.bind acc (fun () ->
        if c.node < 0 || c.node >= nprocs then
          err "crash node %d out of range [0, %d)" c.node nprocs
        else if c.at < 0 then err "crash time %d negative" c.at
        else if c.downtime <= 0 then
          err "crash at node %d has no restart (downtime %d)" c.node c.downtime
        else Ok ())
  in
  let check_part acc (p : partition) =
    Result.bind acc (fun () ->
        if p.p_lo < 0 || p.p_hi >= nprocs || p.p_lo > p.p_hi then
          err "partition range %d-%d invalid for %d nodes" p.p_lo p.p_hi nprocs
        else if p.p_from < 0 || p.p_until <= p.p_from then
          err "partition window %d:%d invalid" p.p_from p.p_until
        else Ok ())
  in
  let per_node_disjoint acc =
    Result.bind acc (fun () ->
        let by_node = Hashtbl.create 8 in
        List.iter
          (fun (c : crash) ->
            let prev =
              Option.value ~default:[] (Hashtbl.find_opt by_node c.node)
            in
            Hashtbl.replace by_node c.node (c :: prev))
          s.crashes;
        Hashtbl.fold
          (fun node cs acc ->
            Result.bind acc (fun () ->
                let sorted =
                  List.sort (fun (a : crash) b -> compare a.at b.at) cs
                in
                let rec check = function
                  | a :: (b : crash) :: rest ->
                    if a.at + a.downtime > b.at then
                      err "node %d crashes at %d before its %d restart" node
                        b.at (a.at + a.downtime)
                    else check (b :: rest)
                  | _ -> Ok ()
                in
                check sorted))
          by_node (Ok ()))
  in
  List.fold_left check_crash (Ok ()) s.crashes
  |> fun acc ->
  List.fold_left check_part acc s.partitions |> per_node_disjoint

(* ------------------------------------------------------------------ *)
(* Generation and shrinking (for the fault fuzzer)                    *)
(* ------------------------------------------------------------------ *)

(* Draw a schedule sized for a fuzz run of roughly [horizon_ns]
   simulated time.  Probabilities are drawn on a 1/100 grid so the spec
   string round-trips exactly through %g. *)
let generate rng ~nprocs ~horizon_ns =
  let ncrashes = 1 + Rng.int rng 2 in
  let crashes =
    List.init ncrashes (fun _ ->
        {
          node = Rng.int rng nprocs;
          at = horizon_ns / 10 * (1 + Rng.int rng 9);
          downtime = horizon_ns / 20 * (1 + Rng.int rng 4);
        })
  in
  (* Overlapping windows on one node are invalid: keep the first. *)
  let crashes =
    List.fold_left
      (fun acc (c : crash) ->
        if
          List.exists
            (fun (o : crash) ->
              o.node = c.node
              && c.at < o.at + o.downtime
              && o.at < c.at + c.downtime)
            acc
        then acc
        else c :: acc)
      [] crashes
    |> List.rev
  in
  let loss = if Rng.int rng 2 = 0 then float_of_int (Rng.int rng 16) /. 100. else 0. in
  let dup = if Rng.int rng 2 = 0 then float_of_int (Rng.int rng 11) /. 100. else 0. in
  let jitter_ns = if Rng.int rng 2 = 0 then Rng.int rng 20_001 else 0 in
  let partitions =
    if nprocs >= 2 && Rng.int rng 4 = 0 then begin
      let cut = 1 + Rng.int rng (nprocs - 1) in
      let p_from = horizon_ns / 10 * (1 + Rng.int rng 8) in
      [
        {
          p_lo = 0;
          p_hi = cut - 1;
          p_from;
          p_until = p_from + (horizon_ns / 20 * (1 + Rng.int rng 3));
        };
      ]
    end
    else []
  in
  { crashes; loss; dup; jitter_ns; rto_ns = default_rto_ns; partitions }

(* Candidate reductions, biggest cuts first.  Like {!Workload.shrink},
   every candidate is a valid schedule; the caller keeps a candidate only
   if the failure it is chasing still reproduces. *)
let shrink s () =
  let drop_nth n l = List.filteri (fun i _ -> i <> n) l in
  let candidates =
    (if s.partitions <> [] then [ { s with partitions = [] } ] else [])
    @ (if s.loss > 0. then [ { s with loss = 0. } ] else [])
    @ (if s.dup > 0. then [ { s with dup = 0. } ] else [])
    @ (if s.jitter_ns > 0 then [ { s with jitter_ns = 0 } ] else [])
    @ List.mapi (fun i _ -> { s with crashes = drop_nth i s.crashes }) s.crashes
    @ List.filter_map
        (fun (c : crash) ->
          if c.downtime > 2_000 then
            Some
              {
                s with
                crashes =
                  List.map
                    (fun (o : crash) ->
                      if o == c then { o with downtime = o.downtime / 2 }
                      else o)
                    s.crashes;
              }
          else None)
        s.crashes
  in
  (List.to_seq candidates) ()

(* ------------------------------------------------------------------ *)
(* Runtime state                                                      *)
(* ------------------------------------------------------------------ *)

(* Mutable per-run state.  The parked queues live in {!Network}, where
   the message type is known; [rng] is only drawn inside [perturb],
   which {!Network.send} runs in global send order. *)

type runtime = { sched : schedule; rng : Rng.t; down : bool array }

let runtime sched ~seed ~nodes =
  {
    sched;
    (* Offset keeps the fault stream independent of the per-node
       workload generators (seed + id * 7919 in State.make_node). *)
    rng = Rng.create (Int64.add seed 0x0FA0_17ED_5EEDL);
    down = Array.make nodes false;
  }

(* Perturb one message: returns its (possibly delayed) fabric arrival
   and the wire-byte overhead of retransmissions/duplicates.  Loss and
   duplication draw from [rng] in global send order.  The delay is
   strictly additive and lands BEFORE the receiver-NIC serialization
   step, so per-destination delivery order is preserved (rx_done is
   strictly monotone per destination). *)
let perturb rt ~now ~arrival ~src ~dst ~wire_bytes =
  let s = rt.sched in
  let arrival = ref arrival in
  let overhead = ref 0 in
  if s.loss > 0. then begin
    let tries = ref 0 in
    while !tries < 8 && Rng.float rt.rng < s.loss do
      incr tries
    done;
    overhead := !overhead + (!tries * wire_bytes);
    arrival := !arrival + (!tries * s.rto_ns)
  end;
  if s.dup > 0. && Rng.float rt.rng < s.dup then
    overhead := !overhead + wire_bytes;
  if s.jitter_ns > 0 then arrival := !arrival + Rng.int rt.rng (s.jitter_ns + 1);
  List.iter
    (fun p ->
      if now >= p.p_from && now < p.p_until then begin
        let src_in = src >= p.p_lo && src <= p.p_hi in
        let dst_in = dst >= p.p_lo && dst <= p.p_hi in
        if src_in <> dst_in && !arrival < p.p_until then
          arrival := p.p_until
      end)
    s.partitions;
  (!arrival, !overhead)
