open Effect
open Effect.Deep

type _ Effect.t += Suspend : ((unit -> unit) -> unit) -> unit Effect.t

let suspend f = perform (Suspend f)

let spawn engine f =
  let body () =
    match_with f ()
      {
        retc = (fun () -> ());
        exnc = raise;
        effc =
          (fun (type a) (eff : a Effect.t) ->
            match eff with
            | Suspend register ->
              Some
                (fun (k : (a, _) continuation) ->
                  register (fun () -> continue k ()))
            | _ -> None);
      }
  in
  Engine.schedule engine ~delay:0 body

let sleep engine d =
  if d < 0 then invalid_arg "Proc.sleep: negative duration";
  if d = 0 then ()
  else suspend (fun resume -> Engine.schedule engine ~delay:d resume)

module Ivar = struct
  type 'a state =
    | Empty
    | Waiting of ('a -> unit)
    | Filled of 'a

  type 'a t = { mutable state : 'a state }

  let create () = { state = Empty }

  let is_filled t = match t.state with Filled _ -> true | Empty | Waiting _ -> false

  let fill engine t v =
    match t.state with
    | Filled _ -> failwith "Ivar.fill: already filled"
    | Empty -> t.state <- Filled v
    | Waiting k ->
      t.state <- Filled v;
      Engine.schedule engine ~delay:0 (fun () -> k v)

  let await t =
    match t.state with
    | Filled v -> v
    | Waiting _ -> failwith "Ivar.await: already awaited"
    | Empty ->
      let result = ref None in
      suspend (fun resume ->
          t.state <-
            Waiting
              (fun v ->
                result := Some v;
                resume ()));
      (match !result with
      | Some v -> v
      | None -> assert false)
end
