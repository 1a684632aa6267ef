(* Discrete-event engine: one thread drains the [Eheap] in global
   (time, seq) order.  The loop is allocation-free per event. *)

type t = {
  mutable clock : int;
  mutable next_seq : int;
  mutable executed : int;
  queue : (unit -> unit) Eheap.t;
  tiebreak : int -> int;
  mutable probe : (time:int -> executed:int -> unit) option;
}

(* SplitMix64 finalizer: a bijection on 64-bit integers, used to permute
   same-instant event ordering deterministically from a seed. *)
let mix64 seed z =
  let z = Int64.add (Int64.of_int z) seed in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  let z = Int64.logxor z (Int64.shift_right_logical z 31) in
  Int64.to_int (Int64.shift_right_logical z 2)

let create ?schedule_seed () =
  let tiebreak =
    match schedule_seed with
    | None -> Fun.id
    | Some seed -> mix64 (Int64.of_int seed)
  in
  {
    clock = 0;
    next_seq = 0;
    executed = 0;
    queue = Eheap.create ();
    tiebreak;
    probe = None;
  }

let set_probe t probe = t.probe <- probe

let now t = t.clock

let schedule_at t ~time f =
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: time %d is before now %d" time
         t.clock);
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  Eheap.push t.queue ~time ~seq:(t.tiebreak seq) f

let schedule t ~delay f =
  if delay < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~time:(t.clock + delay) f

let run t =
  (* Allocation-free event loop: read the key, then pop just the value —
     no [Some (time, seq, f)] box per event. *)
  let q = t.queue in
  let rec loop () =
    if Eheap.is_empty q then t.clock
    else begin
      let time = Eheap.min_time_exn q in
      let f = Eheap.pop_min_exn q in
      t.clock <- time;
      t.executed <- t.executed + 1;
      (match t.probe with
      | None -> ()
      | Some probe -> probe ~time ~executed:t.executed);
      f ();
      loop ()
    end
  in
  loop ()

let events_executed t = t.executed

let ns x = x
let us x = x * 1_000
let ms x = x * 1_000_000
let us_of_ns x = float_of_int x /. 1_000.
