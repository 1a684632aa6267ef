(* Gap attribution: a trace sink owned by the benchmark that charges host
   time to the layer that spent it, without instrumenting the program.

   On every stamped event the sink reads a monotonic clock and charges
   the gap since the previous event to the bucket named by the previous
   event's tag ([msg-send] and [msg-deliver] split by message kind).  A
   gap is therefore the host time of whatever ran after an event until
   the next one was emitted: the handler after a delivery, the app code
   after a compute slice.  The engine's 1-in-64 [sim-events] probe is
   transparent — it neither closes a gap nor opens one — because it fires
   before an arbitrary event and names no layer. *)

module Event = Adsm_trace.Event
module Kind = Adsm_net.Kind

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Tags other than the two message events, in bucket order. *)
let plain_tags =
  [| "read-fault"; "write-fault"; "twin-create"; "twin-free"; "diff-create";
     "diff-apply"; "diff-gc"; "gc-drop"; "mode-change"; "own-request";
     "own-grant"; "own-refuse"; "lock-acquire"; "lock-release";
     "barrier-enter"; "barrier-leave"; "compute" |]

let n_plain = Array.length plain_tags

let buckets = n_plain + (2 * Kind.count)

let send_bucket kind = n_plain + Kind.index kind

let deliver_bucket kind = n_plain + Kind.count + Kind.index kind

let bucket_name i =
  if i < n_plain then plain_tags.(i)
  else
    let k = (i - n_plain) mod Kind.count in
    (if i < n_plain + Kind.count then "msg-send." else "msg-deliver.")
    ^ Kind.to_string (List.nth Kind.all k)

let index = function
  | Event.Read_fault _ -> 0
  | Write_fault _ -> 1
  | Twin_create _ -> 2
  | Twin_free _ -> 3
  | Diff_create _ -> 4
  | Diff_apply _ -> 5
  | Diff_gc _ -> 6
  | Gc_drop _ -> 7
  | Mode_change _ -> 8
  | Own_request _ -> 9
  | Own_grant _ -> 10
  | Own_refuse _ -> 11
  | Lock_acquire _ -> 12
  | Lock_release _ -> 13
  | Barrier_enter _ -> 14
  | Barrier_leave _ -> 15
  | Compute _ -> 16
  | Msg_send { kind; _ } -> send_bucket kind
  | Msg_deliver { kind; _ } -> deliver_bucket kind
  | Sim_events _ -> -1

let bucket tag =
  let rec find i =
    if i = n_plain then invalid_arg ("Profile.bucket: " ^ tag)
    else if plain_tags.(i) = tag then i
    else find (i + 1)
  in
  find 0

type t = {
  ns : int array;  (** host ns charged per bucket *)
  count : int array;  (** events per bucket *)
  mutable last : int;  (** bucket of the previous event; -1 before the first *)
  mutable last_ns : int;
  mutable run_start : int;
  mutable init_ns : int;  (** [Dsm.run] entry to the first event *)
  mutable tail_ns : int;  (** last event to [Dsm.run] return *)
}

let create () =
  {
    ns = Array.make buckets 0;
    count = Array.make buckets 0;
    last = -1;
    last_ns = 0;
    run_start = 0;
    init_ns = 0;
    tail_ns = 0;
  }

let emit p (st : Event.stamped) =
  let now = now_ns () in
  let i = index st.Event.event in
  if i >= 0 then begin
    if p.last < 0 then p.init_ns <- p.init_ns + now - p.run_start
    else p.ns.(p.last) <- p.ns.(p.last) + now - p.last_ns;
    p.count.(i) <- p.count.(i) + 1;
    p.last <- i;
    p.last_ns <- now
  end

let tracer p =
  Adsm_trace.Tracer.create [ { Adsm_trace.Sink.emit = emit p; close = ignore } ]

(* Bracket one [Dsm.run]: time before its first event is run set-up,
   time after its last one is the unattributed tail. *)
let start_run p =
  p.last <- -1;
  p.run_start <- now_ns ()

let stop_run p =
  let now = now_ns () in
  if p.last < 0 then p.init_ns <- p.init_ns + now - p.run_start
  else p.tail_ns <- p.tail_ns + now - p.last_ns

let reset p =
  Array.fill p.ns 0 buckets 0;
  Array.fill p.count 0 buckets 0;
  p.init_ns <- 0;
  p.tail_ns <- 0

(* A frozen copy of the counters. *)
let snapshot p = { p with ns = Array.copy p.ns; count = Array.copy p.count }

let attributed_ns p = Array.fold_left ( + ) 0 p.ns + p.init_ns + p.tail_ns

let tag_ns p tags = List.fold_left (fun s t -> s + p.ns.(bucket t)) 0 tags

let tag_count p tag = p.count.(bucket tag)

let send_ns p = List.fold_left (fun s k -> s + p.ns.(send_bucket k)) 0 Kind.all

let deliver_ns p kind = p.ns.(deliver_bucket kind)
