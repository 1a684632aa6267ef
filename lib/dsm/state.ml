module Page = Adsm_mem.Page
module Perm = Adsm_mem.Perm
module Proc = Adsm_sim.Proc
module Rng = Adsm_sim.Rng
module Engine = Adsm_sim.Engine

type write_log = { mutable ranges : (int * int) list; mutable words : int }

type entry = {
  page : int;
  mutable data : Page.t option;
  mutable has_base : bool;
  mutable perm : Perm.t;
  mutable twin : Page.t option;
  mutable version : int;
  mutable content_version : int;
  mutable committed_version : int;
  mutable owner : int;
  mutable is_owner : bool;
  mutable owned_at : int;
  mutable fs_active : bool;
  mutable wg_large : bool;
  mutable measured : bool;
  mutable drop_at_release : bool;
  mutable dirty : bool;
  mutable notices : Notice.t list;
  mutable reflected_frozen : Wmap.t;  (* shared with shipped views: never set *)
  mutable reflected : Wmap.t;  (* seqs recorded above [reflected_frozen] *)
  mutable nw_seqs : Wmap.t;  (* writer -> seq of its latest notice *)
  mutable nw_dom : int;
      (* Writer [nw_dom]'s latest notice (-1 = none) covers every
         writer's not in [nw_since]: see [check_writers]. *)
  mutable nw_since : int array;
  mutable nw_nsince : int;
  mutable fs_view : Bytes.t;
      (* bitset of the processors NOT seeing the page as SW: empty = none *)
  mutable copyset : Bytes.t;  (* bitset, empty until a first member *)
  mutable sw_home_hint : int;
  mutable pending_own : (int * int) list;
  mutable migratory_score : int;
  mutable read_fault_seq : int;
  mutable write_log : write_log option;
  mutable own_diffs : (int * Vc.t * Diff.t) list;
}

type lock_state = {
  mutable have_token : bool;
  mutable held : bool;
  mutable next : (int * Vc.t) option;
  mutable home_tail : int;
}

(* Per-node combining state for the barrier tree (see Sync).  A node
   folds its own arrival and each direct child's into [tb_intervals] and,
   if it is an interior node, into [tb_vcmin] (the componentwise MINIMUM —
   the knowledge every member of the subtree shares), then forwards one
   combined arrival to its parent.  The fields are reset when the node
   fans its release down. *)
type tree_barrier = {
  mutable tb_epoch : int;
  mutable tb_arrived : int;  (* direct children whose subtrees arrived *)
  mutable tb_self_arrived : bool;
  mutable tb_vcmin : Vc.t option;
      (* interior nodes only, allocated at the first barrier and reused *)
  mutable tb_intervals : Interval.t list;
  mutable tb_gc_wanted : bool;
  mutable tb_child_vcs : (int * Vc.t * int) list;
      (* each direct child's subtree-min clock (lent by reference) and its
         version when sent, for computing its release *)
  mutable tb_gc_done : int;  (* direct children whose subtrees validated *)
  mutable tb_self_gc_done : bool;
}

(* Software TLB size: a power of two, so a page's slot is [page land
   tlb_mask].  64 slots hold every array a stencil row touches at once. *)
let tlb_slots = 64

let tlb_mask = tlb_slots - 1

type wait =
  | Running
  | Lock of int * Interval.t list Proc.Ivar.t
  | Own of int * Msg.t Proc.Ivar.t
  | Barrier of Msg.t Proc.Ivar.t
  | Gc of unit Proc.Ivar.t
  | Restart of unit Proc.Ivar.t

type node = {
  id : int;
  nprocs : int;
  vc : Vc.t;
  pages : entry option array;
      (* Entries materialize on first touch ([entry_of]), so a node pays
         only for the pages it touches.  An untouched page has no
         notices, dirty flag or diffs, so every whole-array scan
         (rule 3, GC validation/purge, post-run checks) is a no-op on it:
         laziness is observationally identical to the old eager array. *)
  intervals : Interval.Logs.t;
  mutable dirty_pages : int list;
  mutable own_bytes : int;
  mutable fetched_diffs : int;
  mutable fetched_bytes : int;
  locks : (int, lock_state) Hashtbl.t;
  mutable wait : wait;
  last_barrier_vc : Vc.t;  (* overwritten in place at every barrier leave *)
  mutable barrier_epoch : int;
  mutable hlrc_waiting : (int * (int * int) list * Msg.t Adsm_net.Rpc.respond) list;
  tlb_rkey : int array;
  tlb_wkey : int array;
  tlb_raw : Bytes.t array;
      (* the software TLB: [tlb_slots] direct-mapped slots, see [tlb_fill] *)
  mutable tlb_gen : int;
  tb : tree_barrier;
  rng : Rng.t;
  (* Crash-recovery state, all inert when [cfg.faults] has no crashes:
     [crash_pending] is set by the node's crash event and checked (one
     bool load) at every DSM operation boundary. *)
  mutable crash_pending : bool;
  mutable crash_restart_at : int;
  mutable stale_seqs : int * int;
}

type cluster = {
  cfg : Config.t;
  engine : Engine.t;
  rpc : Msg.t Adsm_net.Rpc.t;
  nodes : node array;
  stats : Stats.t;
  tracer : Adsm_trace.Tracer.t;
  recorder : Adsm_check.Recorder.t;
  diff_scratch : Diff.scratch;
  mutable spare_pages : Page.t list;
  vc_epoch : Vc.Epoch.t;
  interval_store : Interval.Store.t;
}

let make_entry ~page ~home =
  {
    page;
    (* Every node starts with a zero-filled valid read-only copy, as if the
       shared segment had just been mapped.  The frame itself is allocated
       lazily on first touch. *)
    data = None;
    has_base = true;
    perm = Perm.Read_only;
    twin = None;
    version = 0;
    content_version = 0;
    committed_version = 0;
    owner = home;
    is_owner = false;
    owned_at = 0;
    fs_active = false;
    wg_large = false;
    measured = false;
    drop_at_release = false;
    dirty = false;
    notices = [];
    reflected_frozen = Wmap.empty;
    reflected = Wmap.empty;
    nw_seqs = Wmap.empty;
    nw_dom = -1;
    nw_since = [||];
    nw_nsince = 0;
    fs_view = Bytes.empty;
    copyset = Bytes.empty;
    sw_home_hint = home;
    pending_own = [];
    migratory_score = 0;
    read_fault_seq = -1;
    write_log = None;
    own_diffs = [];
  }

(* --- sparse entry-metadata accessors ------------------------------- *)
(* All of these preserve the dense semantics exactly. *)

(* The view reads as the larger of the frozen map and the map above
   it.  Every value the map above holds was set above the view's value
   at the time ([reflected_set] only raises), so a nonzero value there
   is that larger one. *)
let reflected_get (e : entry) q =
  let v = Wmap.get e.reflected q in
  if v <> 0 then v else Wmap.get e.reflected_frozen q

let reflected_set (e : entry) ~nprocs q v =
  let old = reflected_get e q in
  if v < old then
    failwith
      (Printf.sprintf
         "State.reflected_set: page %d, writer %d: %d would lower the \
          reflected view from %d"
         e.page q v old)
  else if v > old then e.reflected <- Wmap.set e.reflected ~nprocs q v

let reflected_install (e : entry) (r : Msg.reflected) =
  e.reflected_frozen <- r.frozen;
  e.reflected <- r.above

(* A dense map is frozen when it ships: the entry, this reply, later
   ones and their receivers share it, and the entry starts an empty map
   above it.  A map frozen already is merged in first; it only fills
   writers the dense map does not hold, since the dense map's values
   are the larger. *)
let reflected_ship (e : entry) ~nprocs : Msg.reflected =
  if Wmap.form e.reflected = Wmap.Dense then begin
    e.reflected_frozen <-
      Wmap.fold
        (fun q v m -> if Wmap.get m q = 0 then Wmap.set m ~nprocs q v else m)
        e.reflected_frozen e.reflected;
    e.reflected <- Wmap.empty
  end;
  { frozen = e.reflected_frozen; above = Wmap.copy e.reflected }

let reflected_reset (e : entry) =
  e.reflected_frozen <- Wmap.empty;
  e.reflected <- Wmap.empty

(* --- the cluster's page pool --------------------------------------- *)

let pooled_copy cl src =
  match cl.spare_pages with
  | spare :: rest ->
    cl.spare_pages <- rest;
    Page.blit ~src ~dst:spare;
    spare
  | [] -> Page.copy src

let recycle_page cl page = cl.spare_pages <- page :: cl.spare_pages

let drop_copy (e : entry) =
  e.data <- None;
  e.has_base <- false;
  e.perm <- Perm.No_access;
  e.notices <- [];
  e.content_version <- 0;
  e.committed_version <- 0;
  reflected_reset e

let last_seq (e : entry) q = Wmap.get e.nw_seqs q

(* A page written by more writers than this between two dominating
   notices takes the full scan anyway. *)
let since_cap = 8

let forget_dominating (e : entry) =
  e.nw_dom <- -1;
  e.nw_nsince <- 0

let rec in_since (e : entry) q j =
  j < e.nw_nsince && (e.nw_since.(j) = q || in_since e q (j + 1))

(* Writer [q]'s notice was recorded by a clock not known to cover the
   others. *)
let note_since (e : entry) q =
  if e.nw_dom = q then forget_dominating e
  else if e.nw_dom >= 0 then begin
    if not (in_since e q 0) then
      if e.nw_nsince = since_cap then forget_dominating e
      else begin
        if Array.length e.nw_since = 0 then e.nw_since <- Array.make since_cap 0;
        e.nw_since.(e.nw_nsince) <- q;
        e.nw_nsince <- e.nw_nsince + 1
      end
  end

let set_last_notice ~covers_all node (e : entry) q seq =
  e.nw_seqs <- Wmap.set e.nw_seqs ~nprocs:node.nprocs q seq;
  if covers_all then begin
    e.nw_dom <- q;
    e.nw_nsince <- 0
  end
  else note_since e q

let clear_last_notices (e : entry) =
  e.nw_seqs <- Wmap.empty;
  forget_dominating e

type writers = Covers_all | Uncovered | Concurrent

(* Fold writer [q], whose latest notice is interval [seq], into [acc]:
   an uncovered notice is concurrent with [n] unless it is [n]'s own
   writer's or saw [n]'s interval, which only its clock tells.  A
   top-level function, so the since-set scan allocates nothing. *)
let classify visit node (e : entry) (n : Notice.t) q seq acc =
  if Vc.get n.vc q >= seq then acc
  else if
    q <> n.proc
    && Vc.get (Interval.Logs.clock_of node.intervals ~page:e.page ~proc:q seq)
         n.proc
       < n.seq
  then begin
    (match visit with Some f -> f q | None -> ());
    Concurrent
  end
  else match acc with Concurrent -> acc | Covers_all | Uncovered -> Uncovered

let check_writers ?visit node (e : entry) (n : Notice.t) =
  if e.nw_dom >= 0 && Vc.get n.vc e.nw_dom >= last_seq e e.nw_dom then begin
    let acc = ref Covers_all in
    for j = 0 to e.nw_nsince - 1 do
      let q = e.nw_since.(j) in
      acc := classify visit node e n q (last_seq e q) !acc
    done;
    !acc
  end
  else Wmap.fold (classify visit node e n) e.nw_seqs Covers_all

(* Per-processor bitsets: bit [q] is bit [q land 7] of byte [q lsr 3].
   An empty bitset has no member; the first member allocates every
   byte. *)
let bit b q =
  Bytes.length b > 0
  && Char.code (Bytes.get b (q lsr 3)) land (1 lsl (q land 7)) <> 0

let with_bit b ~nprocs q v =
  let b =
    if Bytes.length b = 0 then Bytes.make ((nprocs + 7) lsr 3) '\000' else b
  in
  let m = 1 lsl (q land 7) and c = Char.code (Bytes.get b (q lsr 3)) in
  Bytes.set b (q lsr 3) (Char.chr (if v then c lor m else c land lnot m));
  b

let fs_view_get (e : entry) q = not (bit e.fs_view q)

let fs_view_set (e : entry) ~nprocs q v =
  if (not v) || Bytes.length e.fs_view > 0 then
    e.fs_view <- with_bit e.fs_view ~nprocs q (not v)

let copyset_add (e : entry) ~nprocs q =
  e.copyset <- with_bit e.copyset ~nprocs q true

(* Iterate the members of the (approximate) copyset, ascending. *)
let copyset_iter (e : entry) f =
  for q = 0 to (8 * Bytes.length e.copyset) - 1 do
    if bit e.copyset q then f q
  done

let make_node ~cfg ~vc_epoch ~store ~id ~total_pages =
  let nprocs = cfg.Config.nprocs in
  let vc = Vc.Epoch.zero vc_epoch in
  let last_barrier_vc = Vc.Epoch.zero vc_epoch in
  (* Both zero: the precondition of [Vc.rebase] (equal contents) holds.
     Epoch 0 = the all-zeros snapshot every node starts from (barrier
     completions stamp from 1 up). *)
  Vc.rebase vc ~base:last_barrier_vc ~epoch:0;
  {
    id;
    nprocs;
    vc;
    pages = Array.make total_pages None;
    intervals = Interval.Logs.create store ~node:id ~clock:vc;
    dirty_pages = [];
    own_bytes = 0;
    fetched_diffs = 0;
    fetched_bytes = 0;
    locks = Hashtbl.create 16;
    wait = Running;
    last_barrier_vc;
    barrier_epoch = 0;
    hlrc_waiting = [];
    tlb_rkey = Array.make tlb_slots (-1);
    tlb_wkey = Array.make tlb_slots (-1);
    tlb_raw = Array.make tlb_slots Bytes.empty;
    tlb_gen = 0;
    tb =
      {
        tb_epoch = 0;
        tb_arrived = 0;
        tb_self_arrived = false;
        tb_vcmin = None;
        tb_intervals = [];
        tb_gc_wanted = false;
        tb_child_vcs = [];
        tb_gc_done = 0;
        tb_self_gc_done = false;
      };
    rng = Rng.create (Int64.add cfg.Config.seed (Int64.of_int (id * 7919)));
    crash_pending = false;
    crash_restart_at = 0;
    stale_seqs = (0, 0);
  }

(* Get-or-create the node's entry for [page].  A lazily-created entry is
   exactly the entry the old eager initialization built: zero-page base,
   read-only, home = page mod nprocs. *)
let entry_of node page =
  match node.pages.(page) with
  | Some e -> e
  | None ->
    let home = page mod node.nprocs in
    let e = make_entry ~page ~home in
    if home = node.id then e.is_owner <- true;
    node.pages.(page) <- Some e;
    e

(* Iterate the materialized entries (the only ones any state can live on). *)
let iter_entries node f =
  Array.iter (function None -> () | Some e -> f e) node.pages

let diff_bytes node = node.own_bytes + node.fetched_bytes

(* TLB contract (see DESIGN.md, "Access fast path"): any code that lowers
   an entry's effective access rights on a node — protection downgrade,
   frame drop, or turning on write logging — must reset that node's TLB,
   because a slot bypasses the entry's permission test entirely.
   Upgrades need no reset: a stale slot is only ever conservative.

   Slot [page land tlb_mask] caches [page] under the key
   [page + tlb_gen]; [tlb_rkey] admits reads, [tlb_wkey] writes.  A reset
   moves [tlb_gen] past every key in use (pages are far below [1 lsl 32]),
   so it forgets every slot in O(1).  Unused keys are [-1], which no page
   matches.  A stored key could only match again after 2^31 resets on one
   node, when [tlb_gen] has wrapped all the way round. *)
let tlb_reset node = node.tlb_gen <- node.tlb_gen + (1 lsl 32)

let tlb_fill node page raw ~write =
  let slot = page land tlb_mask in
  let key = page + node.tlb_gen in
  node.tlb_rkey.(slot) <- key;
  node.tlb_wkey.(slot) <- (if write then key else -1);
  node.tlb_raw.(slot) <- raw

let frame entry =
  match entry.data with
  | Some p -> p
  | None ->
    let p = Page.create () in
    entry.data <- Some p;
    p

let committed_copy entry =
  match entry.twin with
  | Some _ as t -> t
  | None -> (
    match entry.data with
    | Some _ as d -> d
    | None ->
      (* An entry with no frame yet still holds the initial zero page as a
         valid (possibly stale) base, unless it was dropped at a garbage
         collection. *)
      if entry.has_base then Some (frame entry) else None)

let lock_state node ~home lock =
  match Hashtbl.find_opt node.locks lock with
  | Some s -> s
  | None ->
    (* The token initially rests, free, at the lock's home node. *)
    let s =
      { have_token = home = node.id; held = false; next = None; home_tail = -1 }
    in
    Hashtbl.replace node.locks lock s;
    s

let home_of_page cluster page = page mod cluster.cfg.Config.nprocs

(* Lock homes: lock l lives at one of k manager nodes chosen evenly
   across the id space — stride n/k keeps them on distinct leaf switches
   of a tree fabric instead of crowding the low-numbered nodes.  The
   default k = n is the paper's shape (lock l at node l mod n). *)
let home_of_lock cluster lock =
  let k = cluster.cfg.Config.lock_shards in
  lock mod k * (cluster.cfg.Config.nprocs / k)

let describe_wait = function
  | Running -> "(running/none)"
  | Lock (l, _) -> Printf.sprintf "lock:%d" l
  | Own (p, _) -> Printf.sprintf "own:%d" p
  | Barrier _ -> "barrier"
  | Gc _ -> "gc"
  | Restart _ -> "restart"

let block node wait =
  match node.wait with
  | Running -> node.wait <- wait
  | held ->
    failwith
      (Printf.sprintf "Proto: node %d blocks on %s while awaiting %s" node.id
         (describe_wait wait) (describe_wait held))

let wake cluster node (arrived : Msg.t) =
  let fill ivar v = Proc.Ivar.fill cluster.engine ivar v in
  match (node.wait, arrived) with
  | Lock (l, ivar), Msg.Lock_grant { lock; intervals } when lock = l ->
    fill ivar intervals
  | Own (p, ivar), Msg.Sw_own_transfer { page; _ } when page = p ->
    fill ivar arrived
  | Barrier ivar, Msg.Barrier_release _ ->
    node.wait <- Running;
    fill ivar arrived
  | Gc ivar, Msg.Gc_complete _ ->
    node.wait <- Running;
    fill ivar ()
  | held, _ ->
    failwith
      (Format.asprintf "Proto: node %d got %a while awaiting %s" node.id
         Msg.pp arrived (describe_wait held))

(* Emission guard: callers write
     [if tracing cl then emit cl ~node (Event.X { ... })]
   so the event payload is never even constructed when tracing is off. *)
let tracing cluster = Adsm_trace.Tracer.enabled cluster.tracer

let emit cluster ~node event =
  Adsm_trace.Tracer.emit cluster.tracer ~time:(Engine.now cluster.engine) ~node
    event

(* Same guard pattern for the consistency oracle's observation stream:
     [if checking cl then observe cl ~node (Obs.X { ... })]
   keeps the disabled path allocation-free and byte-identical. *)
let checking cluster = Adsm_check.Recorder.enabled cluster.recorder

let observe cluster ~node obs =
  Adsm_check.Recorder.record cluster.recorder ~time:(Engine.now cluster.engine)
    ~node obs
