(* Protocol selection: one total map from the configuration to a
   first-class protocol module, so no protocol code matches on
   [Config.protocol] per call.  Besides this map, only {!Mode}'s
   predicates and [Dsm.run]'s up-front rejection of HLRC under crashes read
   the protocol choice. *)

let get : Config.protocol -> Protocol_intf.t = function
  | Config.Mw -> (module Proto_mw)
  | Config.Sw -> (module Proto_sw)
  | Config.Wfs | Config.Wfs_wg -> (module Proto_adaptive)
  | Config.Hlrc -> (module Proto_hlrc)

let for_cluster (cl : State.cluster) = get cl.State.cfg.Config.protocol
