(* The memory-model observation vocabulary.

   An observation is what the *application* did to the shared store —
   a word read or written with its value, a lock acquired or released, a
   barrier crossed — as opposed to a trace event, which records what the
   *protocol* did about it.  The oracle replays a run's observation
   stream and checks it against lazy release consistency without looking
   at any protocol state, which is what makes it an independent check:
   the same stream semantics must hold whichever protocol produced it. *)

type t =
  | Read of { page : int; off : int; width : int; bits : int64 }
  | Write of { page : int; off : int; width : int; bits : int64 }
  | Acquire of { lock : int }
  | Release of { lock : int }
  | Barrier_enter of { epoch : int }
  | Barrier_leave of { epoch : int }
  | Crash
  | Restart

(* Stamped in global recording order; the simulator is single-threaded,
   so stream order is the real-time order in which the operations
   completed. *)
type stamped = { time : int; node : int; obs : t }

let tag = function
  | Read _ -> "read"
  | Write _ -> "write"
  | Acquire _ -> "acquire"
  | Release _ -> "release"
  | Barrier_enter _ -> "barrier-enter"
  | Barrier_leave _ -> "barrier-leave"
  | Crash -> "crash"
  | Restart -> "restart"

(* The word a memory observation touches, as a (page, offset) pair. *)
let location = function
  | Read { page; off; _ } | Write { page; off; _ } -> Some (page, off)
  | Acquire _ | Release _ | Barrier_enter _ | Barrier_leave _ | Crash | Restart
    ->
    None

let value_string ~width bits =
  if width = 8 then Printf.sprintf "%.17g" (Int64.float_of_bits bits)
  else Printf.sprintf "%ld" (Int64.to_int32 bits)

let pp ppf { time; node; obs } =
  let body =
    match obs with
    | Read { page; off; width; bits } ->
      Printf.sprintf "read  %d:%d = %s" page off (value_string ~width bits)
    | Write { page; off; width; bits } ->
      Printf.sprintf "write %d:%d = %s" page off (value_string ~width bits)
    | Acquire { lock } -> Printf.sprintf "acquire lock %d" lock
    | Release { lock } -> Printf.sprintf "release lock %d" lock
    | Barrier_enter { epoch } -> Printf.sprintf "barrier enter (epoch %d)" epoch
    | Barrier_leave { epoch } -> Printf.sprintf "barrier leave (epoch %d)" epoch
    | Crash -> "crash"
    | Restart -> "restart"
  in
  Format.fprintf ppf "[node %d @%dns] %s" node time body
