(* Tests for the simulated cluster network and RPC layer. *)

module Engine = Adsm_sim.Engine
module Proc = Adsm_sim.Proc
module Netcfg = Adsm_net.Netcfg
module Network = Adsm_net.Network
module Rpc = Adsm_net.Rpc
module Kind = Adsm_net.Kind
module Topology = Adsm_net.Topology

(* ------------------------------------------------------------------ *)
(* Cost model calibration (paper Section 4)                           *)
(* ------------------------------------------------------------------ *)

let test_small_message_rtt () =
  let rtt = Netcfg.round_trip_ns Netcfg.atm_155 ~req_bytes:0 ~reply_bytes:0 in
  (* Paper: minimum round-trip 1 ms.  We accept within 2%. *)
  let err = abs (rtt - 1_000_000) in
  Alcotest.(check bool)
    (Printf.sprintf "small RTT %d ns within 2%% of 1 ms" rtt)
    true (err < 20_000)

let test_page_fetch_time () =
  let t = Netcfg.round_trip_ns Netcfg.atm_155 ~req_bytes:0 ~reply_bytes:4096 in
  (* Paper: remote 4096-byte page miss takes 1921 us. *)
  let err = abs (t - 1_921_000) in
  Alcotest.(check bool)
    (Printf.sprintf "page fetch %d ns within 2%% of 1921 us" t)
    true (err < 40_000)

let test_one_way_monotone_in_size () =
  let c = Netcfg.atm_155 in
  let a = Netcfg.one_way_ns c ~bytes:0
  and b = Netcfg.one_way_ns c ~bytes:100
  and d = Netcfg.one_way_ns c ~bytes:4096 in
  Alcotest.(check bool) "monotone" true (a < b && b < d)

(* ------------------------------------------------------------------ *)
(* Network delivery                                                   *)
(* ------------------------------------------------------------------ *)

let make_net ?(nodes = 4) () =
  let e = Engine.create () in
  let net = Network.create e Netcfg.atm_155 ~nodes in
  (e, net)

let test_delivery_and_timing () =
  let e, net = make_net () in
  let got = ref None in
  Network.set_handler net ~node:1 (fun ~src msg ->
      got := Some (src, msg, Engine.now e));
  Network.send net ~src:0 ~dst:1 ~bytes:0 ~kind:Kind.Page "hello";
  ignore (Engine.run e);
  let expect = Netcfg.one_way_ns Netcfg.atm_155 ~bytes:0 in
  match !got with
  | Some (src, msg, time) ->
    Alcotest.(check int) "src" 0 src;
    Alcotest.(check string) "payload" "hello" msg;
    Alcotest.(check int) "arrival time" expect time
  | None -> Alcotest.fail "message not delivered"

let test_link_fifo () =
  (* A large message sent first must not be overtaken by a small one sent
     immediately after on the same link. *)
  let e, net = make_net () in
  let order = ref [] in
  Network.set_handler net ~node:1 (fun ~src:_ msg -> order := msg :: !order);
  Network.send net ~src:0 ~dst:1 ~bytes:100_000 ~kind:Kind.Page "big";
  Network.send net ~src:0 ~dst:1 ~bytes:0 ~kind:Kind.Diff "small";
  ignore (Engine.run e);
  Alcotest.(check (list string)) "fifo per link" [ "big"; "small" ]
    (List.rev !order)

let test_distinct_links_independent () =
  (* Different links are not serialized against each other. *)
  let e, net = make_net () in
  let arrivals = Hashtbl.create 4 in
  let handler node ~src:_ msg = Hashtbl.replace arrivals (node, msg) (Engine.now e) in
  Network.set_handler net ~node:1 (handler 1);
  Network.set_handler net ~node:2 (handler 2);
  Network.send net ~src:0 ~dst:1 ~bytes:100_000 ~kind:Kind.Page "big";
  Network.send net ~src:3 ~dst:2 ~bytes:0 ~kind:Kind.Diff "small";
  ignore (Engine.run e);
  let t_big = Hashtbl.find arrivals (1, "big") in
  let t_small = Hashtbl.find arrivals (2, "small") in
  Alcotest.(check bool) "small on other link arrives first" true
    (t_small < t_big)

let test_counters () =
  let e, net = make_net () in
  Network.set_handler net ~node:1 (fun ~src:_ _ -> ());
  Network.set_handler net ~node:2 (fun ~src:_ _ -> ());
  Network.send net ~src:0 ~dst:1 ~bytes:10 ~kind:Kind.Diff ();
  Network.send net ~src:0 ~dst:2 ~bytes:20 ~kind:Kind.Diff ();
  Network.send net ~src:1 ~dst:2 ~bytes:30 ~kind:Kind.Page ();
  ignore (Engine.run e);
  Alcotest.(check int) "messages" 3 (Network.total_messages net);
  Alcotest.(check int) "payload" 60 (Network.total_payload_bytes net);
  Alcotest.(check int) "wire includes headers"
    (60 + (3 * Netcfg.atm_155.Netcfg.header_bytes))
    (Network.total_wire_bytes net);
  Alcotest.(check (list (pair string (pair int int))))
    "by kind"
    [ ("diff", (2, 30)); ("page", (1, 30)) ]
    (Network.by_kind net);
  Alcotest.(check (pair int int)) "diff kind counts" (2, 30)
    (Network.kind_counts net ~kind:Kind.Diff);
  Alcotest.(check (pair int int)) "unused kind counts" (0, 0)
    (Network.kind_counts net ~kind:Kind.Own);
  Alcotest.(check (pair int int)) "node 0 counts" (2, 0)
    (Network.node_counts net ~node:0);
  Alcotest.(check (pair int int)) "node 2 counts" (0, 2)
    (Network.node_counts net ~node:2);
  Network.reset_counters net;
  Alcotest.(check int) "reset" 0 (Network.total_messages net)

let test_self_send_rejected () =
  let _, net = make_net () in
  Alcotest.check_raises "self send" (Invalid_argument "Network.send: self-send")
    (fun () -> Network.send net ~src:1 ~dst:1 ~bytes:0 ~kind:Kind.Page ())

(* ------------------------------------------------------------------ *)
(* Endpoint serialization (NIC contention model)                      *)
(* ------------------------------------------------------------------ *)

let bytes_ns cfg b = (cfg.Netcfg.header_bytes + b) * cfg.Netcfg.per_byte_ns

let test_receiver_serialization () =
  (* Two large messages from different senders to ONE receiver must
     serialize: the second is delayed by the first's transfer time. *)
  let e, net = make_net () in
  let arrivals = ref [] in
  Network.set_handler net ~node:2 (fun ~src _ ->
      arrivals := (src, Engine.now e) :: !arrivals);
  let payload = 40_000 in
  Network.send net ~src:0 ~dst:2 ~bytes:payload ~kind:Kind.Diff ();
  Network.send net ~src:1 ~dst:2 ~bytes:payload ~kind:Kind.Page ();
  ignore (Engine.run e);
  match List.rev !arrivals with
  | [ (_, t1); (_, t2) ] ->
    let gap = t2 - t1 in
    Alcotest.(check bool)
      (Printf.sprintf "second delayed by a full transfer (gap %d ns)" gap)
      true
      (gap >= bytes_ns Netcfg.atm_155 payload)
  | _ -> Alcotest.fail "expected two arrivals"

let test_sender_serialization () =
  (* Two large messages from ONE sender to different receivers serialize
     at the sender's NIC. *)
  let e, net = make_net () in
  let arrivals = ref [] in
  let handler node ~src:_ _ = arrivals := (node, Engine.now e) :: !arrivals in
  Network.set_handler net ~node:1 (handler 1);
  Network.set_handler net ~node:2 (handler 2);
  let payload = 40_000 in
  Network.send net ~src:0 ~dst:1 ~bytes:payload ~kind:Kind.Diff ();
  Network.send net ~src:0 ~dst:2 ~bytes:payload ~kind:Kind.Page ();
  ignore (Engine.run e);
  match List.rev !arrivals with
  | [ (_, t1); (_, t2) ] ->
    Alcotest.(check bool) "second send waits for the first" true
      (t2 - t1 >= bytes_ns Netcfg.atm_155 payload)
  | _ -> Alcotest.fail "expected two arrivals"

let test_disjoint_paths_parallel () =
  (* Transfers on disjoint sender/receiver pairs overlap fully. *)
  let e, net = make_net () in
  let arrivals = ref [] in
  let handler node ~src:_ _ = arrivals := (node, Engine.now e) :: !arrivals in
  Network.set_handler net ~node:2 (handler 2);
  Network.set_handler net ~node:3 (handler 3);
  let payload = 40_000 in
  Network.send net ~src:0 ~dst:2 ~bytes:payload ~kind:Kind.Diff ();
  Network.send net ~src:1 ~dst:3 ~bytes:payload ~kind:Kind.Page ();
  ignore (Engine.run e);
  match List.rev !arrivals with
  | [ (_, t1); (_, t2) ] ->
    Alcotest.(check int) "identical arrival times" t1 t2
  | _ -> Alcotest.fail "expected two arrivals"

let test_uncontended_matches_cost_model () =
  (* With no contention, delivery time equals Netcfg.one_way_ns exactly,
     for several sizes. *)
  List.iter
    (fun payload ->
      let e, net = make_net () in
      let seen = ref (-1) in
      Network.set_handler net ~node:1 (fun ~src:_ _ -> seen := Engine.now e);
      Network.send net ~src:0 ~dst:1 ~bytes:payload ~kind:Kind.Page ();
      ignore (Engine.run e);
      Alcotest.(check int)
        (Printf.sprintf "%d bytes" payload)
        (Netcfg.one_way_ns Netcfg.atm_155 ~bytes:payload)
        !seen)
    [ 0; 100; 4096; 100_000 ]

(* ------------------------------------------------------------------ *)
(* Tree topology: per-hop costs and shared-uplink serialization        *)
(* ------------------------------------------------------------------ *)

(* Explicit hop parameters (not the derived defaults) so each expected
   arrival time below is a plain sum of named constants. *)
let tree_uplink = { Topology.latency_ns = 2_000; per_byte_ns = 5 }

let tree_topo =
  Topology.tree ~nodes_per_switch:2 ~edge_latency_ns:1_000 ~switch_ns:500
    ~uplink:tree_uplink Netcfg.atm_155

let make_tree_net ?(nodes = 6) () =
  let e = Engine.create () in
  let net = Network.create_topo e tree_topo ~nodes in
  (e, net)

let up_bytes_ns b =
  (Netcfg.atm_155.Netcfg.header_bytes + b) * tree_uplink.Topology.per_byte_ns

(* Uncontended tree arrival time for a single message on a fresh net. *)
let arrival_time ~src ~dst ~bytes =
  let e, net = make_tree_net () in
  let seen = ref (-1) in
  Network.set_handler net ~node:dst (fun ~src:_ _ -> seen := Engine.now e);
  Network.send net ~src ~dst ~bytes ~kind:Kind.Page ();
  ignore (Engine.run e);
  !seen

let test_flat_topo_matches_create () =
  (* [create_topo] with the Flat shape must be byte- and time-identical
     to the historical [create] path. *)
  List.iter
    (fun payload ->
      let e1, net1 = make_net () in
      let e2 = Engine.create () in
      let net2 =
        Network.create_topo e2 (Topology.flat Netcfg.atm_155) ~nodes:4
      in
      let t1 = ref (-1) and t2 = ref (-1) in
      Network.set_handler net1 ~node:1 (fun ~src:_ _ -> t1 := Engine.now e1);
      Network.set_handler net2 ~node:1 (fun ~src:_ _ -> t2 := Engine.now e2);
      Network.send net1 ~src:0 ~dst:1 ~bytes:payload ~kind:Kind.Page ();
      Network.send net2 ~src:0 ~dst:1 ~bytes:payload ~kind:Kind.Page ();
      ignore (Engine.run e1);
      ignore (Engine.run e2);
      Alcotest.(check int) (Printf.sprintf "%d bytes" payload) !t1 !t2)
    [ 0; 4096; 100_000 ]

let test_tree_same_switch_cost () =
  (* Nodes 0 and 1 share leaf switch 0: NIC transfer, edge up, one
     switch traversal, edge down. *)
  let cfg = Netcfg.atm_155 in
  let payload = 4096 in
  let expect =
    cfg.Netcfg.send_overhead_ns
    + bytes_ns cfg payload
    + 1_000 + 500 + 1_000
    + cfg.Netcfg.recv_overhead_ns
  in
  Alcotest.(check int) "same-switch arrival additive" expect
    (arrival_time ~src:0 ~dst:1 ~bytes:payload)

let test_tree_cross_switch_cost () =
  (* Node 0 (switch 0) to node 2 (switch 1): edge, leaf switch, uplink
     transfer + latency, root switch, downlink transfer + latency,
     destination leaf switch, edge. *)
  let cfg = Netcfg.atm_155 in
  let payload = 4096 in
  let expect =
    cfg.Netcfg.send_overhead_ns
    + bytes_ns cfg payload
    + 1_000 + 500 (* edge up, source leaf switch *)
    + up_bytes_ns payload + 2_000 + 500 (* uplink, root switch *)
    + up_bytes_ns payload + 2_000 + 500 (* downlink, dest leaf switch *)
    + 1_000 (* edge down *)
    + cfg.Netcfg.recv_overhead_ns
  in
  Alcotest.(check int) "cross-switch arrival additive" expect
    (arrival_time ~src:0 ~dst:2 ~bytes:payload)

let test_tree_uplink_contention () =
  (* Nodes 0 and 1 (both on leaf switch 0) send to nodes on two
     DIFFERENT remote switches at the same instant: distinct sender and
     receiver NICs, distinct down channels — the only shared resource is
     switch 0's root-bound uplink, so the second transfer arrives
     exactly one uplink transfer time after the first. *)
  let e, net = make_tree_net () in
  let payload = 4096 in
  let arrivals = Hashtbl.create 4 in
  Network.set_handler net ~node:2 (fun ~src:_ _ ->
      Hashtbl.replace arrivals 2 (Engine.now e));
  Network.set_handler net ~node:4 (fun ~src:_ _ ->
      Hashtbl.replace arrivals 4 (Engine.now e));
  Network.send net ~src:0 ~dst:2 ~bytes:payload ~kind:Kind.Page ();
  Network.send net ~src:1 ~dst:4 ~bytes:payload ~kind:Kind.Diff ();
  ignore (Engine.run e);
  let t_first = Hashtbl.find arrivals 2 and t_second = Hashtbl.find arrivals 4 in
  Alcotest.(check int) "second delayed by one uplink transfer"
    (up_bytes_ns payload) (t_second - t_first)

let test_tree_downlink_contention () =
  (* Senders on two different switches target two different nodes of ONE
     remote switch: the shared leaf-bound channel of that switch
     serializes them. *)
  let e, net = make_tree_net () in
  let payload = 4096 in
  let arrivals = Hashtbl.create 4 in
  Network.set_handler net ~node:4 (fun ~src:_ _ ->
      Hashtbl.replace arrivals 4 (Engine.now e));
  Network.set_handler net ~node:5 (fun ~src:_ _ ->
      Hashtbl.replace arrivals 5 (Engine.now e));
  Network.send net ~src:0 ~dst:4 ~bytes:payload ~kind:Kind.Page ();
  Network.send net ~src:2 ~dst:5 ~bytes:payload ~kind:Kind.Diff ();
  ignore (Engine.run e);
  let t_first = Hashtbl.find arrivals 4 and t_second = Hashtbl.find arrivals 5 in
  Alcotest.(check int) "second delayed by one downlink transfer"
    (up_bytes_ns payload) (t_second - t_first)

let test_tree_same_switch_avoids_uplink () =
  (* Same-switch traffic must not touch the uplink channels: a transfer
     between two nodes of switch 0, issued while a huge cross-switch
     transfer from the same switch occupies its uplink, still arrives at
     exactly its uncontended time. *)
  let payload = 4096 in
  let uncontended = arrival_time ~src:0 ~dst:1 ~bytes:payload in
  let e, net = make_tree_net () in
  let seen = ref (-1) in
  Network.set_handler net ~node:1 (fun ~src:_ _ -> seen := Engine.now e);
  Network.set_handler net ~node:4 (fun ~src:_ _ -> ());
  Network.send net ~src:1 ~dst:4 ~bytes:1_000_000 ~kind:Kind.Page ();
  Network.send net ~src:0 ~dst:1 ~bytes:payload ~kind:Kind.Diff ();
  ignore (Engine.run e);
  Alcotest.(check int) "unaffected by uplink traffic" uncontended !seen

let test_shape_of_string () =
  let base = Netcfg.atm_155 in
  (match Topology.shape_of_string ~base "flat" with
  | Ok Topology.Flat -> ()
  | _ -> Alcotest.fail "flat must parse");
  (match Topology.shape_of_string ~base "tree:8" with
  | Ok (Topology.Tree t) ->
    Alcotest.(check int) "radix" 8 t.Topology.nodes_per_switch
  | _ -> Alcotest.fail "tree:8 must parse");
  match Topology.shape_of_string ~base "tree:bogus" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tree:bogus must be rejected"

(* ------------------------------------------------------------------ *)
(* RPC                                                                *)
(* ------------------------------------------------------------------ *)

let test_rpc_call_reply () =
  let e = Engine.create () in
  let rpc = Rpc.create e Netcfg.atm_155 ~nodes:2 in
  Rpc.set_handler rpc ~node:1 (fun ~src:_ msg respond ->
      match respond with
      | Some r -> r ~bytes:4096 ~kind:Kind.Page (msg * 2)
      | None -> Alcotest.fail "expected a request");
  Rpc.set_handler rpc ~node:0 (fun ~src:_ _ _ -> ());
  let result = ref 0 and finish = ref 0 in
  Proc.spawn e (fun () ->
      result := Rpc.call rpc ~src:0 ~dst:1 ~bytes:0 ~kind:Kind.Page 21;
      finish := Engine.now e);
  ignore (Engine.run e);
  Alcotest.(check int) "reply value" 42 !result;
  let expect =
    Netcfg.round_trip_ns Netcfg.atm_155 ~req_bytes:0 ~reply_bytes:4096
  in
  Alcotest.(check int) "round trip equals model" expect !finish

let test_rpc_delayed_reply () =
  (* Server withholds the reply (ownership quantum style). *)
  let e = Engine.create () in
  let rpc = Rpc.create e Netcfg.atm_155 ~nodes:2 in
  let hold = 5_000_000 in
  Rpc.set_handler rpc ~node:1 (fun ~src:_ () respond ->
      match respond with
      | Some r -> Engine.schedule e ~delay:hold (fun () -> r ~bytes:0 ~kind:Kind.Lock ())
      | None -> ());
  let finish = ref 0 in
  Proc.spawn e (fun () ->
      Rpc.call rpc ~src:0 ~dst:1 ~bytes:0 ~kind:Kind.Lock ();
      finish := Engine.now e);
  ignore (Engine.run e);
  let expect = hold + Netcfg.round_trip_ns Netcfg.atm_155 ~req_bytes:0 ~reply_bytes:0 in
  Alcotest.(check int) "delayed grant" expect !finish

let test_rpc_cast () =
  let e = Engine.create () in
  let rpc = Rpc.create e Netcfg.atm_155 ~nodes:2 in
  let got = ref false in
  Rpc.set_handler rpc ~node:1 (fun ~src:_ () respond ->
      Alcotest.(check bool) "oneway has no respond" true (respond = None);
      got := true);
  Rpc.cast rpc ~src:0 ~dst:1 ~bytes:8 ~kind:Kind.Barrier ();
  ignore (Engine.run e);
  Alcotest.(check bool) "delivered" true !got

let test_rpc_concurrent_calls () =
  (* Several outstanding calls from different processes correlate correctly. *)
  let e = Engine.create () in
  let rpc = Rpc.create e Netcfg.atm_155 ~nodes:3 in
  for node = 1 to 2 do
    Rpc.set_handler rpc ~node (fun ~src:_ x respond ->
        match respond with
        | Some r -> r ~bytes:0 ~kind:Kind.Page (x + (node * 100))
        | None -> ())
  done;
  Rpc.set_handler rpc ~node:0 (fun ~src:_ _ _ -> ());
  let results = Array.make 4 0 in
  for i = 0 to 3 do
    let dst = 1 + (i mod 2) in
    Proc.spawn e (fun () ->
        results.(i) <- Rpc.call rpc ~src:0 ~dst ~bytes:0 ~kind:Kind.Page i)
  done;
  ignore (Engine.run e);
  Alcotest.(check (array int)) "all correlated" [| 100; 201; 102; 203 |] results

let () =
  Alcotest.run "net"
    [
      ( "netcfg",
        [
          Alcotest.test_case "small RTT ~ 1ms" `Quick test_small_message_rtt;
          Alcotest.test_case "page fetch ~ 1921us" `Quick test_page_fetch_time;
          Alcotest.test_case "monotone in size" `Quick test_one_way_monotone_in_size;
        ] );
      ( "network",
        [
          Alcotest.test_case "delivery" `Quick test_delivery_and_timing;
          Alcotest.test_case "link fifo" `Quick test_link_fifo;
          Alcotest.test_case "links independent" `Quick test_distinct_links_independent;
          Alcotest.test_case "counters" `Quick test_counters;
          Alcotest.test_case "self send" `Quick test_self_send_rejected;
        ] );
      ( "endpoint-serialization",
        [
          Alcotest.test_case "receiver contention" `Quick
            test_receiver_serialization;
          Alcotest.test_case "sender contention" `Quick
            test_sender_serialization;
          Alcotest.test_case "disjoint paths overlap" `Quick
            test_disjoint_paths_parallel;
          Alcotest.test_case "uncontended = cost model" `Quick
            test_uncontended_matches_cost_model;
        ] );
      ( "topology",
        [
          Alcotest.test_case "flat topo = historic create" `Quick
            test_flat_topo_matches_create;
          Alcotest.test_case "same-switch hop costs add" `Quick
            test_tree_same_switch_cost;
          Alcotest.test_case "cross-switch hop costs add" `Quick
            test_tree_cross_switch_cost;
          Alcotest.test_case "shared uplink serializes" `Quick
            test_tree_uplink_contention;
          Alcotest.test_case "shared downlink serializes" `Quick
            test_tree_downlink_contention;
          Alcotest.test_case "same-switch avoids uplink" `Quick
            test_tree_same_switch_avoids_uplink;
          Alcotest.test_case "shape_of_string" `Quick test_shape_of_string;
        ] );
      ( "rpc",
        [
          Alcotest.test_case "call/reply" `Quick test_rpc_call_reply;
          Alcotest.test_case "delayed reply" `Quick test_rpc_delayed_reply;
          Alcotest.test_case "cast" `Quick test_rpc_cast;
          Alcotest.test_case "concurrent calls" `Quick test_rpc_concurrent_calls;
        ] );
    ]
