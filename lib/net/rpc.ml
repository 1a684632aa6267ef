module Engine = Adsm_sim.Engine
module Proc = Adsm_sim.Proc

type 'msg respond = bytes:int -> kind:Kind.t -> 'msg -> unit

type 'msg handler = src:int -> 'msg -> 'msg respond option -> unit

(* Request ids are never observable: they ride inside the envelope and
   cost no wire bytes beyond the fixed header. *)
type 'msg t = {
  engine : Engine.t;
  net : 'msg Envelope.t Network.t;
  mutable next_id : int;
  pending : (int, 'msg Proc.Ivar.t) Hashtbl.t;
  handlers : 'msg handler option array;
  pool : 'msg Envelope.pool;
}

let create_topo engine topo ~nodes =
  let t =
    {
      engine;
      net = Network.create_topo engine topo ~nodes;
      next_id = 0;
      pending = Hashtbl.create 16;
      handlers = Array.make nodes None;
      pool = Envelope.create_pool ();
    }
  in
  for node = 0 to nodes - 1 do
    Network.set_handler t.net ~node (fun ~src env ->
        (* Extract everything, then release: a recycled envelope may be
           overwritten by any send the handler makes. *)
        let tag = env.Envelope.tag in
        let id = env.Envelope.id in
        let msg = env.Envelope.payload in
        Envelope.release t.pool env;
        match tag with
        | Envelope.Reply -> (
          match Hashtbl.find_opt t.pending id with
          | Some ivar ->
            Hashtbl.remove t.pending id;
            Proc.Ivar.fill t.engine ivar msg
          | None ->
            failwith (Printf.sprintf "Rpc: unexpected reply id %d" id))
        | Envelope.Request -> (
          match t.handlers.(node) with
          | None -> failwith (Printf.sprintf "Rpc: node %d has no handler" node)
          | Some h ->
            let respond ~bytes ~kind reply =
              Network.send t.net ~src:node ~dst:src ~bytes ~kind
                (Envelope.make t.pool Envelope.Reply ~id reply)
            in
            h ~src msg (Some respond))
        | Envelope.Oneway -> (
          match t.handlers.(node) with
          | None -> failwith (Printf.sprintf "Rpc: node %d has no handler" node)
          | Some h -> h ~src msg None))
  done;
  t

let create engine cfg ~nodes = create_topo engine (Topology.flat cfg) ~nodes

let nodes t = Network.nodes t.net

let network t = t.net

let set_monitor t monitor = Network.set_monitor t.net monitor

let set_handler t ~node h = t.handlers.(node) <- Some h

let call_async t ~src ~dst ~bytes ~kind msg =
  let id = t.next_id in
  t.next_id <- id + 1;
  let ivar = Proc.Ivar.create () in
  Hashtbl.replace t.pending id ivar;
  Network.send t.net ~src ~dst ~bytes ~kind
    (Envelope.make t.pool Envelope.Request ~id msg);
  ivar

let call t ~src ~dst ~bytes ~kind msg =
  Proc.Ivar.await (call_async t ~src ~dst ~bytes ~kind msg)

let cast t ~src ~dst ~bytes ~kind msg =
  Network.send t.net ~src ~dst ~bytes ~kind
    (Envelope.make t.pool Envelope.Oneway ~id:0 msg)
