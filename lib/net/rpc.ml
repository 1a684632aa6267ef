module Engine = Adsm_sim.Engine
module Proc = Adsm_sim.Proc

type 'msg respond = bytes:int -> kind:Kind.t -> 'msg -> unit

type 'msg handler = src:int -> 'msg -> 'msg respond option -> unit

type tag = Request | Reply | Oneway

(* Request ids are never observable: they ride inside the envelope and
   cost no wire bytes beyond the fixed header. *)
type 'msg envelope = {
  tag : tag;
  id : int;  (* correlation id; meaningless for [Oneway] *)
  payload : 'msg;
}

type 'msg t = {
  engine : Engine.t;
  net : 'msg envelope Network.t;
  mutable next_id : int;
  pending : (int, 'msg Proc.Ivar.t) Hashtbl.t;
  handlers : 'msg handler option array;
}

let create_topo engine topo ~nodes =
  let t =
    {
      engine;
      net = Network.create_topo engine topo ~nodes;
      next_id = 0;
      pending = Hashtbl.create 16;
      handlers = Array.make nodes None;
    }
  in
  for node = 0 to nodes - 1 do
    Network.set_handler t.net ~node (fun ~src { tag; id; payload = msg } ->
        match tag with
        | Reply -> (
          match Hashtbl.find_opt t.pending id with
          | Some ivar ->
            Hashtbl.remove t.pending id;
            Proc.Ivar.fill t.engine ivar msg
          | None ->
            failwith (Printf.sprintf "Rpc: unexpected reply id %d" id))
        | Request -> (
          match t.handlers.(node) with
          | None -> failwith (Printf.sprintf "Rpc: node %d has no handler" node)
          | Some h ->
            let respond ~bytes ~kind reply =
              Network.send t.net ~src:node ~dst:src ~bytes ~kind
                { tag = Reply; id; payload = reply }
            in
            h ~src msg (Some respond))
        | Oneway -> (
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
    { tag = Request; id; payload = msg };
  ivar

let call t ~src ~dst ~bytes ~kind msg =
  Proc.Ivar.await (call_async t ~src ~dst ~bytes ~kind msg)

let cast t ~src ~dst ~bytes ~kind msg =
  Network.send t.net ~src ~dst ~bytes ~kind
    { tag = Oneway; id = 0; payload = msg }
