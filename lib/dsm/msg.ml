module Page = Adsm_mem.Page

type own_result = Granted | Refused_fs | Refused_measure

type reflected = { frozen : Wmap.t; above : Wmap.t }

type t =
  | Lock_acquire of { lock : int; vc : Vc.t }
  | Lock_forward of { lock : int; requester : int; vc : Vc.t }
  | Lock_grant of { lock : int; intervals : Interval.t list }
  | Barrier_arrive of {
      epoch : int;
      vc : Vc.t;
      vc_version : int;
      intervals : Interval.t list;
      gc_wanted : bool;
    }
  | Barrier_release of {
      epoch : int;
      intervals : Interval.t list;
      gc_round : bool;
    }
  | Gc_done of { epoch : int }
  | Gc_complete of { epoch : int }
  | Page_req of { page : int }
  | Page_reply of {
      page : int;
      data : Page.t;
      version : int;
      committed : int;
      reflected : reflected;
    }
  | Diff_req of { page : int; seqs : int list; sees_sw : bool }
  | Diff_reply of { page : int; diffs : (int * Vc.t * Diff.t) list }
  | Own_req of { page : int; version : int; want_data : bool }
  | Own_reply of {
      page : int;
      result : own_result;
      version : int;
      committed : int;
      data : (Page.t * reflected) option;
    }
  | Sw_own_req of { page : int; version : int }
  | Sw_own_forward of { page : int; requester : int; version : int }
  | Sw_own_transfer of { page : int; data : Page.t; version : int; committed : int }
  | Hlrc_diff of { page : int; seq : int; vc : Vc.t; diff : Diff.t }
  | Hlrc_fetch of { page : int; need : (int * int) list }
  | Recover_req of { vc : Vc.t }
  | Recover_reply of { intervals : Interval.t list }

let size_bytes ?(vc_bytes = Vc.size_bytes) ~nprocs = function
  | Lock_acquire { vc; _ } -> 8 + vc_bytes vc
  | Lock_forward { vc; _ } -> 12 + vc_bytes vc
  | Lock_grant { intervals; _ } ->
    8 + Interval.size_bytes_list ~vc_bytes intervals
  | Barrier_arrive { vc; intervals; _ } ->
    12 + vc_bytes vc + Interval.size_bytes_list ~vc_bytes intervals
  | Barrier_release { intervals; _ } ->
    12 + Interval.size_bytes_list ~vc_bytes intervals
  | Gc_done _ | Gc_complete _ -> 8
  | Page_req _ -> 8
  | Page_reply _ -> 8 + Page.size + (4 * nprocs)
  | Diff_req { seqs; _ } -> 9 + (4 * List.length seqs)
  | Diff_reply { diffs; _ } ->
    List.fold_left
      (fun acc (_, vc, diff) -> acc + 4 + vc_bytes vc + Diff.size_bytes diff)
      8 diffs
  | Own_req _ -> 13
  | Own_reply { data; _ } ->
    (* A reply without a copy carries no reflected view, but the cost
       model charges every ownership reply a dense one. *)
    13 + (match data with None -> 0 | Some _ -> Page.size) + (4 * nprocs)
  | Sw_own_req _ -> 12
  | Sw_own_forward _ -> 16
  | Sw_own_transfer _ -> 12 + Page.size
  | Hlrc_diff { vc; diff; _ } -> 12 + vc_bytes vc + Diff.size_bytes diff
  | Hlrc_fetch { need; _ } -> 8 + (8 * List.length need)
  | Recover_req { vc } -> 8 + vc_bytes vc
  | Recover_reply { intervals } ->
    8 + Interval.size_bytes_list ~vc_bytes intervals

let kind : t -> Adsm_net.Kind.t = function
  | Lock_acquire _ | Lock_forward _ | Lock_grant _ -> Adsm_net.Kind.Lock
  | Barrier_arrive _ | Barrier_release _ -> Adsm_net.Kind.Barrier
  | Gc_done _ | Gc_complete _ -> Adsm_net.Kind.Gc
  | Page_req _ | Page_reply _ -> Adsm_net.Kind.Page
  | Diff_req _ | Diff_reply _ -> Adsm_net.Kind.Diff
  | Own_req _ | Own_reply _ | Sw_own_req _ | Sw_own_forward _
  | Sw_own_transfer _ ->
    Adsm_net.Kind.Own
  | Hlrc_diff _ -> Adsm_net.Kind.Diff
  | Hlrc_fetch _ -> Adsm_net.Kind.Page
  | Recover_req _ | Recover_reply _ -> Adsm_net.Kind.Recover

let pp ppf t =
  let s =
    match t with
    | Lock_acquire { lock; _ } -> Printf.sprintf "lock-acquire(%d)" lock
    | Lock_forward { lock; requester; _ } ->
      Printf.sprintf "lock-forward(%d->p%d)" lock requester
    | Lock_grant { lock; _ } -> Printf.sprintf "lock-grant(%d)" lock
    | Barrier_arrive { epoch; _ } -> Printf.sprintf "barrier-arrive(%d)" epoch
    | Barrier_release { epoch; _ } -> Printf.sprintf "barrier-release(%d)" epoch
    | Gc_done { epoch } -> Printf.sprintf "gc-done(%d)" epoch
    | Gc_complete { epoch } -> Printf.sprintf "gc-complete(%d)" epoch
    | Page_req { page } -> Printf.sprintf "page-req(%d)" page
    | Page_reply { page; version; _ } ->
      Printf.sprintf "page-reply(%d v%d)" page version
    | Diff_req { page; seqs; _ } ->
      Printf.sprintf "diff-req(%d x%d)" page (List.length seqs)
    | Diff_reply { page; diffs } ->
      Printf.sprintf "diff-reply(%d x%d)" page (List.length diffs)
    | Own_req { page; version; _ } ->
      Printf.sprintf "own-req(%d v%d)" page version
    | Own_reply { page; result; version; _ } ->
      Printf.sprintf "own-reply(%d %s v%d)" page
        (match result with
        | Granted -> "granted"
        | Refused_fs -> "refused-fs"
        | Refused_measure -> "refused-measure")
        version
    | Sw_own_req { page; _ } -> Printf.sprintf "sw-own-req(%d)" page
    | Sw_own_forward { page; requester; _ } ->
      Printf.sprintf "sw-own-forward(%d->p%d)" page requester
    | Sw_own_transfer { page; version; _ } ->
      Printf.sprintf "sw-own-transfer(%d v%d)" page version
    | Hlrc_diff { page; seq; _ } -> Printf.sprintf "hlrc-diff(%d #%d)" page seq
    | Hlrc_fetch { page; _ } -> Printf.sprintf "hlrc-fetch(%d)" page
    | Recover_req _ -> "recover-req"
    | Recover_reply { intervals } ->
      Printf.sprintf "recover-reply(x%d)" (List.length intervals)
  in
  Format.pp_print_string ppf s
