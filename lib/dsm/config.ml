let twin_ns = 104_000

let diff_create_ns = 179_000

let diff_apply_base_ns = 20_000

let diff_apply_byte_ns = 40

let page_install_ns = 30_000

let fault_ns = 20_000

let write_log_ns = 250

let diff_run_ns = 500

type protocol = Mw | Sw | Wfs | Wfs_wg | Hlrc

let protocol_name = function
  | Mw -> "MW"
  | Sw -> "SW"
  | Wfs -> "WFS"
  | Wfs_wg -> "WFS+WG"
  | Hlrc -> "HLRC"

let protocol_of_string s =
  match String.uppercase_ascii s with
  | "MW" -> Some Mw
  | "SW" -> Some Sw
  | "WFS" -> Some Wfs
  | "WFS+WG" | "WFSWG" | "WFS_WG" -> Some Wfs_wg
  | "HLRC" -> Some Hlrc
  | _ -> None

let all_protocols = [ Mw; Wfs_wg; Wfs; Sw ]

let extended_protocols = [ Mw; Wfs_wg; Wfs; Sw; Hlrc ]

type mutation =
  | Skip_diff_apply
  | Drop_write_notice
  | Stale_ownership_grant
  | Skip_notice_replay
  | Stale_vc_after_restart

let mutation_name = function
  | Skip_diff_apply -> "skip-diff-apply"
  | Drop_write_notice -> "drop-write-notice"
  | Stale_ownership_grant -> "stale-ownership-grant"
  | Skip_notice_replay -> "skip-notice-replay"
  | Stale_vc_after_restart -> "stale-vc-after-restart"

let mutation_of_string s =
  match String.lowercase_ascii s with
  | "skip-diff-apply" -> Some Skip_diff_apply
  | "drop-write-notice" -> Some Drop_write_notice
  | "stale-ownership-grant" -> Some Stale_ownership_grant
  | "skip-notice-replay" -> Some Skip_notice_replay
  | "stale-vc-after-restart" -> Some Stale_vc_after_restart
  | _ -> None

let all_mutations =
  [
    Skip_diff_apply;
    Drop_write_notice;
    Stale_ownership_grant;
    Skip_notice_replay;
    Stale_vc_after_restart;
  ]

type t = {
  protocol : protocol;
  nprocs : int;
  net : Adsm_net.Netcfg.t;
  topology : Adsm_net.Topology.shape;
  barrier_fanout : int;
  lock_shards : int;
  sparse_vc : bool;
  wg_threshold_bytes : int;
  ownership_quantum_ns : int;
  gc_threshold_bytes : int;
  migratory_detection : bool;
  write_ranges : bool;
  schedule_fuzz : int option;
  mutation : mutation option;
  faults : Adsm_net.Fault.schedule option;
  seed : int64;
}

let make ?(seed = 0x5EEDL) ~protocol ~nprocs () =
  if nprocs <= 0 then invalid_arg "Config.make: nprocs must be positive";
  {
    protocol;
    nprocs;
    net = Adsm_net.Netcfg.atm_155;
    topology = Adsm_net.Topology.Flat;
    barrier_fanout = max 2 nprocs;
    lock_shards = nprocs;
    sparse_vc = false;
    wg_threshold_bytes = 3_072;
    ownership_quantum_ns = 1_000_000;
    gc_threshold_bytes = 1_048_576;
    migratory_detection = false;
    write_ranges = false;
    schedule_fuzz = None;
    mutation = None;
    faults = None;
    seed;
  }
