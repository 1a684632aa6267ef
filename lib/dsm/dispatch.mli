(** Protocol selection: maps {!Config.protocol} to the first-class protocol
    module implementing it (WFS and WFS+WG share {!Proto_adaptive}; the
    variant-specific behavior reads the configuration through {!Mode}).
    {!Mode} and [Dsm.run]'s HLRC crash gate are the only other readers of
    the protocol choice. *)

val get : Config.protocol -> Protocol_intf.t

val for_cluster : State.cluster -> Protocol_intf.t
