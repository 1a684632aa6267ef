type t = { emit : Event.stamped -> unit; close : unit -> unit }

let null = { emit = (fun _ -> ()); close = (fun () -> ()) }

(* ------------------------------------------------------------------ *)
(* Ring buffer                                                        *)
(* ------------------------------------------------------------------ *)

type ring = {
  capacity : int;
  q : Event.stamped Queue.t;
  mutable dropped : int;
}

let ring ?(capacity = 65_536) () =
  if capacity <= 0 then invalid_arg "Sink.ring: capacity must be positive";
  { capacity; q = Queue.create (); dropped = 0 }

let ring_sink r =
  {
    emit =
      (fun ev ->
        if Queue.length r.q = r.capacity then begin
          ignore (Queue.pop r.q);
          r.dropped <- r.dropped + 1
        end;
        Queue.push ev r.q);
    close = (fun () -> ());
  }

let ring_contents r = List.of_seq (Queue.to_seq r.q)

let ring_dropped r = r.dropped

(* ------------------------------------------------------------------ *)
(* JSONL                                                              *)
(* ------------------------------------------------------------------ *)

let jsonl write =
  let buf = Buffer.create 256 in
  {
    emit =
      (fun ev ->
        Buffer.clear buf;
        Json.add_to_buffer buf (Event.to_json ev);
        Buffer.add_char buf '\n';
        write (Buffer.contents buf));
    close = (fun () -> ());
  }

(* ------------------------------------------------------------------ *)
(* Chrome trace_event JSON (Perfetto / chrome://tracing)              *)
(* ------------------------------------------------------------------ *)

(* Mapping:
   - one Perfetto track per simulated node (pid = tid = node id, named
     through "process_name" metadata records);
   - barriers render as duration slices ("B"/"E" pairs: the slice is the
     node's time inside the barrier, including any GC round);
   - compute charges render as complete slices ("X" with [dur]);
   - the engine probe renders as a counter track ("C");
   - everything else is a thread-scoped instant ("i") carrying its
     payload fields in [args].
   Timestamps are microseconds (float), per the trace_event spec. *)

let chrome_category (ev : Event.t) =
  match ev with
  | Event.Msg_send _ | Event.Msg_deliver _ -> "net"
  | Event.Lock_acquire _ | Event.Lock_release _ | Event.Barrier_enter _
  | Event.Barrier_leave _ ->
    "sync"
  | Event.Sim_events _ -> "sim"
  | _ -> "dsm"

let chrome_record { Event.time; node; event } =
  let ts = ("ts", Json.Float (float_of_int time /. 1_000.)) in
  let common name ph =
    [
      ("name", Json.String name);
      ("cat", Json.String (chrome_category event));
      ("ph", Json.String ph);
      ts;
      ("pid", Json.Int node);
      ("tid", Json.Int node);
    ]
  in
  let with_args fields = fields @ [ ("args", Json.Obj (Event.args event)) ] in
  match event with
  | Event.Barrier_enter _ -> Json.Obj (with_args (common "barrier" "B"))
  | Event.Barrier_leave _ -> Json.Obj (common "barrier" "E")
  | Event.Compute { ns } ->
    Json.Obj
      (with_args
         (common "compute" "X" @ [ ("dur", Json.Float (float_of_int ns /. 1_000.)) ]))
  | Event.Sim_events { executed } ->
    Json.Obj
      (common "events executed" "C" @ [ ("args", Json.Obj [ ("executed", Json.Int executed) ]) ])
  | _ ->
    Json.Obj
      (with_args (common (Event.tag event) "i" @ [ ("s", Json.String "t") ]))

let chrome ~nodes write =
  write "{\"traceEvents\":[";
  let first = ref true in
  let emit_json json =
    if !first then first := false else write ",";
    write (Json.to_string json);
    write "\n"
  in
  for node = 0 to nodes - 1 do
    emit_json
      (Json.Obj
         [
           ("name", Json.String "process_name");
           ("ph", Json.String "M");
           ("pid", Json.Int node);
           ("tid", Json.Int node);
           ("args", Json.Obj [ ("name", Json.String (Printf.sprintf "node %d" node)) ]);
         ])
  done;
  let closed = ref false in
  {
    emit = (fun ev -> emit_json (chrome_record ev));
    close =
      (fun () ->
        if not !closed then begin
          closed := true;
          write "]}\n"
        end);
  }

(* ------------------------------------------------------------------ *)
(* File convenience                                                   *)
(* ------------------------------------------------------------------ *)

type format = Jsonl | Chrome

let file format ~nodes path =
  let oc = open_out path in
  let inner =
    match format with
    | Jsonl -> jsonl (output_string oc)
    | Chrome -> chrome ~nodes (output_string oc)
  in
  let closed = ref false in
  {
    emit = inner.emit;
    close =
      (fun () ->
        if not !closed then begin
          closed := true;
          inner.close ();
          close_out oc
        end);
  }
