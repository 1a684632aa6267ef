(** Pluggable trace sinks.

    A sink is just a pair of callbacks ({!t}): the {!Tracer} fans each
    stamped event out to every attached sink, and calls [close] once at
    the end of the run.  Three concrete sinks are provided:

    - a bounded in-memory {!ring} buffer (what the tests and the
      {!Query} module read back);
    - a {!jsonl} writer — one flat JSON object per line, the stable
      machine-readable format ({!Event.to_json});
    - a {!chrome} writer — Chrome [trace_event] JSON, loadable in
      Perfetto ({:https://ui.perfetto.dev}) or [chrome://tracing] with
      one track per simulated node.

    Writers are byte-oriented ([string -> unit]) so they compose with
    [Buffer], channels or test probes; {!file} is the convenience that
    backs the [--trace FILE] command-line flag. *)

type t = { emit : Event.stamped -> unit; close : unit -> unit }

(** Swallows everything; closing is a no-op. *)
val null : t

(** {1 Ring buffer} *)

type ring

(** A bounded buffer keeping the most recent [capacity] (default 65536)
    events; older events are evicted silently (but counted). *)
val ring : ?capacity:int -> unit -> ring

val ring_sink : ring -> t

(** Buffered events, oldest first. *)
val ring_contents : ring -> Event.stamped list

(** Number of events evicted because the buffer was full. *)
val ring_dropped : ring -> int

(** {1 Writers} *)

(** [jsonl write] encodes each event with {!Event.to_json} and hands
    [write] one newline-terminated line per event. *)
val jsonl : (string -> unit) -> t

(** [chrome ~nodes write] streams a Chrome [trace_event] document.  The
    header and one [process_name] metadata record per node (so Perfetto
    shows a named track for each of the [nodes] simulated nodes) are
    written immediately; the footer is written on [close].  Barriers
    become duration slices ([B]/[E]), {!Event.Compute} becomes complete
    slices ([X]), {!Event.Sim_events} a counter track ([C]) and all
    other events thread-scoped instants.  Timestamps are microseconds,
    pid and tid are both the node id. *)
val chrome : nodes:int -> (string -> unit) -> t

(** {1 File convenience} *)

type format = Jsonl | Chrome

(** [file format ~nodes path] opens [path] for writing and returns the
    corresponding writer sink; [close] flushes and closes the file (and
    is idempotent).  [nodes] is only consulted by the [Chrome] format. *)
val file : format -> nodes:int -> string -> t
