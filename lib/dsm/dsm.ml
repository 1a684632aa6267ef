module Engine = Adsm_sim.Engine
module Proc = Adsm_sim.Proc
module Rng = Adsm_sim.Rng
module Rpc = Adsm_net.Rpc
module Network = Adsm_net.Network
module Page = Adsm_mem.Page
module Perm = Adsm_mem.Perm
module Layout = Adsm_mem.Layout

type t = {
  cfg : Config.t;
  layout : Layout.t;
  mutable next_lock : int;
  mutable cluster : State.cluster option;  (** set once [run] starts *)
}

type ctx = { cluster : State.cluster; node : State.node }

type f64s = { f_region : Layout.region; f_len : int }

type i32s = { i_region : Layout.region; i_len : int }

type report = {
  time_ns : int;
  messages : int;
  payload_bytes : int;
  wire_bytes : int;
  by_kind : (string * (int * int)) list;
  stats : Stats.t;
  shared_pages : int;
  events : int;
}

let create cfg = { cfg; layout = Layout.create (); next_lock = 0; cluster = None }

let config t = t.cfg

let alloc_f64 t ~name ~len =
  if len <= 0 then invalid_arg "Dsm.alloc_f64: len must be positive";
  { f_region = Layout.alloc t.layout ~name ~bytes:(8 * len); f_len = len }

let alloc_i32 t ~name ~len =
  if len <= 0 then invalid_arg "Dsm.alloc_i32: len must be positive";
  { i_region = Layout.alloc t.layout ~name ~bytes:(4 * len); i_len = len }

let fresh_lock t =
  let l = t.next_lock in
  t.next_lock <- l + 1;
  l

let run ?(tracer = Adsm_trace.Tracer.disabled)
    ?(recorder = Adsm_check.Recorder.disabled) t app =
  let cfg = t.cfg in
  let fanout = cfg.Config.barrier_fanout and k = cfg.Config.lock_shards in
  if fanout < 2 then
    invalid_arg
      (Printf.sprintf "Dsm.run: tree barrier fanout %d is below 2" fanout);
  if k < 1 || k > cfg.Config.nprocs then
    invalid_arg
      (Printf.sprintf "Dsm.run: %d lock shards is outside 1..%d" k
         cfg.Config.nprocs);
  (* Fault-schedule gate.  Message faults (loss/dup/jitter/partitions)
     compose with every configuration; crash schedules additionally need
     the durable write-behind log of eagerly created diffs (so no
     write-range logging, which keeps dirty state outside the diff store
     until the diff is built) and a non-HLRC protocol (HLRC flushes diffs
     to homes and discards them locally, so a crashed home would need
     replicated-home recovery — out of scope). *)
  (match cfg.Config.faults with
  | None -> ()
  | Some sched ->
    (match Adsm_net.Fault.validate ~nprocs:cfg.Config.nprocs sched with
    | Ok () -> ()
    | Error msg -> invalid_arg ("Dsm.run: bad fault schedule: " ^ msg));
    if sched.Adsm_net.Fault.crashes <> [] then begin
      if cfg.Config.write_ranges then
        invalid_arg
          "Dsm.run: crash schedules are incompatible with write_ranges \
           (logged ranges are volatile until diffed)";
      if cfg.Config.protocol = Config.Hlrc then
        invalid_arg
          "Dsm.run: crash schedules are not supported under HLRC (homes \
           hold the only diff copies; recovery needs replicated homes)"
    end);
  let engine = Engine.create ?schedule_seed:cfg.Config.schedule_fuzz () in
  let topo =
    Adsm_net.Topology.make cfg.Config.net cfg.Config.topology
  in
  let rpc = Rpc.create_topo engine topo ~nodes:cfg.Config.nprocs in
  if Adsm_trace.Tracer.enabled tracer then begin
    (* Observation only: the monitor and probe run inside existing events
       and schedule nothing, so a traced run is event-for-event identical
       to an untraced one. *)
    Rpc.set_monitor rpc
      (Some
         {
           Network.on_send =
             (fun ~now ~src ~dst ~bytes ~kind ->
               Adsm_trace.Tracer.emit tracer ~time:now ~node:src
                 (Adsm_trace.Event.Msg_send { dst; kind; bytes }));
           on_deliver =
             (fun ~now ~src ~dst ~bytes ~kind ->
               Adsm_trace.Tracer.emit tracer ~time:now ~node:dst
                 (Adsm_trace.Event.Msg_deliver { src; kind; bytes }));
         });
    Engine.set_probe engine
      (Some
         (fun ~time ~executed ->
           if executed land 63 = 0 then
             Adsm_trace.Tracer.emit tracer ~time ~node:0
               (Adsm_trace.Event.Sim_events { executed })))
  end;
  let total_pages = Layout.total_pages t.layout in
  let vc_epoch = Vc.Epoch.create ~nprocs:cfg.Config.nprocs in
  let interval_store = Interval.Store.create ~nprocs:cfg.Config.nprocs in
  let nodes =
    Array.init cfg.Config.nprocs (fun id ->
        State.make_node ~cfg ~vc_epoch ~store:interval_store ~id ~total_pages)
  in
  let cluster =
    {
      State.cfg;
      engine;
      rpc;
      nodes;
      stats = Stats.create ();
      tracer;
      recorder;
      diff_scratch = Diff.make_scratch ();
      spare_pages = [];
      vc_epoch;
      interval_store;
    }
  in
  t.cluster <- Some cluster;
  for node = 0 to cfg.Config.nprocs - 1 do
    Rpc.set_handler rpc ~node (fun ~src msg respond ->
        Proto.handle_message cluster ~node ~src msg respond)
  done;
  (match cfg.Config.faults with
  | None -> ()
  | Some sched ->
    Network.set_faults (Rpc.network rpc)
      (Some
         (Adsm_net.Fault.runtime sched ~seed:cfg.Config.seed
            ~nodes:cfg.Config.nprocs));
    Sync.arm_crashes cluster sched.Adsm_net.Fault.crashes);
  let running = ref cfg.Config.nprocs in
  for id = 0 to cfg.Config.nprocs - 1 do
    Proc.spawn engine (fun () ->
        app { cluster; node = nodes.(id) };
        decr running)
  done;
  (* Spare pages are scratch for the run alone: none outlives it. *)
  let time_ns =
    Fun.protect
      ~finally:(fun () -> cluster.State.spare_pages <- [])
      (fun () -> Engine.run engine)
  in
  if !running > 0 then begin
    let describe (n : State.node) =
      Printf.sprintf "node %d: %s" n.State.id (State.describe_wait n.State.wait)
    in
    let detail = String.concat "; " (List.map describe (Array.to_list nodes)) in
    failwith
      (Printf.sprintf
         "Dsm.run: deadlock — %d process(es) still blocked at simulated time \
          %d ns [%s]"
         !running time_ns detail)
  end;
  (* Post-run protocol invariants: a completed run must leave no wait,
     queued ownership request or deferred reply behind — any of those
     means a protocol message was dropped.  And each node's running
     own-diff byte count, which the GC trigger reads, must be the bytes
     its entries hold. *)
  Array.iter
    (fun (n : State.node) ->
      let fail what =
        failwith
          (Printf.sprintf "Dsm.run: node %d finished with %s" n.State.id what)
      in
      (match n.State.wait with
      | State.Running -> ()
      | w -> fail ("a blocked wait: " ^ State.describe_wait w));
      if n.State.hlrc_waiting <> [] then fail "an unanswered HLRC fetch";
      Hashtbl.iter
        (fun lock (ls : State.lock_state) ->
          if ls.State.held then
            fail (Printf.sprintf "lock %d still held" lock))
        n.State.locks;
      let held = ref 0 in
      State.iter_entries n (fun (e : State.entry) ->
          if e.State.pending_own <> [] then
            fail
              (Printf.sprintf "queued ownership requests on page %d"
                 e.State.page);
          List.iter
            (fun (_, _, diff) -> held := !held + Diff.size_bytes diff)
            e.State.own_diffs);
      if !held <> n.State.own_bytes then
        fail
          (Printf.sprintf "an own-diff account of %d bytes, holding %d"
             n.State.own_bytes !held))
    nodes;
  let net = Rpc.network rpc in
  {
    time_ns;
    messages = Network.total_messages net;
    payload_bytes = Network.total_payload_bytes net;
    wire_bytes = Network.total_wire_bytes net;
    by_kind = Network.by_kind net;
    stats = cluster.State.stats;
    shared_pages = total_pages;
    events = Engine.events_executed engine;
  }

(* --- in-context operations --- *)

let cluster (t : t) = t.cluster

let me ctx = ctx.node.State.id

let nprocs ctx = ctx.cluster.State.cfg.Config.nprocs

let compute ctx ns =
  Sync.pause_if_crashed ctx.cluster ctx.node;
  if State.tracing ctx.cluster then
    State.emit ctx.cluster ~node:ctx.node.State.id
      (Adsm_trace.Event.Compute { ns });
  Stats.add_time ctx.cluster.State.stats ~category:Stats.Compute ~ns;
  Proc.sleep ctx.cluster.State.engine ns

let now ctx = Engine.now ctx.cluster.State.engine

let rng ctx = ctx.node.State.rng

let lock ctx l = Sync.lock ctx.cluster ctx.node l

let unlock ctx l = Sync.unlock ctx.cluster ctx.node l

let barrier ctx = Sync.barrier ctx.cluster ctx.node

(* --- shared-array accessors --- *)

(* The accessor hot path.  A scalar access compiles down to: bounds test,
   shift/mask address arithmetic (page sizes are powers of two), one
   software-TLB probe (slot [page land tlb_mask], key [page + tlb_gen]),
   raw byte access.  Everything else — permission test against the
   entry, protocol faults, TLB fill, write logging, recorder observation
   — lives in the outlined cold paths below.  The TLB may only serve
   accesses the entry itself would have allowed: a slot is filled here
   after the permission check and every slot is forgotten by every site
   that downgrades a page's rights (see {!State.tlb_reset}), so hits
   never change the fault sequence.

   The scalar accessors are [@inline] and their bodies small, so in a
   build with cross-module inlining (any non-[-opaque] build, e.g. the
   release profile) they are expanded into the application loop: the
   float an app computes reaches [set_64] unboxed and the float
   [f64_get] returns stays in a register.  Called out of line instead
   (dev builds compile with [-opaque]), every [f64_get] result and
   [f64_set] argument is a boxed float.  The byte accesses use
   bounds-checked primitives declared here rather than
   [Page.get_f64]/[set_f64] so that the inlined body is primitives only.
   [Page] asserts a little-endian host at startup. *)

external get_32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"

external set_32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

external get_64 : Bytes.t -> int -> int64 = "%caml_bytes_get64"

external set_64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64"

let[@inline never] oob_f64 i len =
  invalid_arg (Printf.sprintf "Dsm: f64 index %d out of bounds [0,%d)" i len)

let[@inline never] oob_i32 i len =
  invalid_arg (Printf.sprintf "Dsm: i32 index %d out of bounds [0,%d)" i len)

let[@inline never] oob_run kind i len bound =
  invalid_arg
    (Printf.sprintf "Dsm: %s run [%d,%d) out of bounds [0,%d)" kind i
       (i + len) bound)

let[@inline never] oob_buf fn =
  invalid_arg (Printf.sprintf "Dsm.%s: buffer range out of bounds" fn)

let[@inline never] observe_read ctx page off width bits =
  State.observe ctx.cluster ~node:ctx.node.State.id
    (Adsm_check.Obs.Read { page; off; width; bits })

let[@inline never] observe_write ctx page off width bits =
  State.observe ctx.cluster ~node:ctx.node.State.id
    (Adsm_check.Obs.Write { page; off; width; bits })

let[@inline never] read_slow ctx page =
  let e = State.entry_of ctx.node page in
  while not (Perm.allows_read e.State.perm) do
    Proto.read_fault ctx.cluster ctx.node e
  done;
  let raw = Page.raw (State.frame e) in
  State.tlb_fill ctx.node page raw
    ~write:(Perm.allows_write e.State.perm && Option.is_none e.State.write_log);
  raw

(* [words] is the number of word writes the logged range covers: software
   write detection charges per logged WORD (the log's [words]), while the
   range list carries one coalesced entry per run — [Diff.of_ranges]
   word-aligns, sorts and merges ranges, so the resulting diff is
   byte-identical to per-word logging of the same run. *)
let[@inline never] write_slow ctx page off ~bytes ~words =
  let e = State.entry_of ctx.node page in
  while not (Perm.allows_write e.State.perm) do
    Proto.write_fault ctx.cluster ctx.node e
  done;
  let raw = Page.raw (State.frame e) in
  (match e.State.write_log with
  | Some log ->
    (* software write detection (Config.write_ranges); the TLB must not
       admit writes to a logging page, so every write comes here. *)
    log.ranges <- (off, bytes) :: log.ranges;
    log.words <- log.words + words
  | None -> State.tlb_fill ctx.node page raw ~write:true);
  raw

(* The frame to read [page] from: a TLB hit, else the slow path. *)
let[@inline] read_raw ctx page =
  let node = ctx.node in
  let slot = page land State.tlb_mask in
  if node.State.tlb_rkey.(slot) = page + node.State.tlb_gen then
    node.State.tlb_raw.(slot)
  else read_slow ctx page

(* The frame to write [page] at: a TLB hit, else the slow path (which
   logs the write on a logging page). *)
let[@inline] write_raw ctx page off ~bytes ~words =
  let node = ctx.node in
  let slot = page land State.tlb_mask in
  if node.State.tlb_wkey.(slot) = page + node.State.tlb_gen then
    node.State.tlb_raw.(slot)
  else write_slow ctx page off ~bytes ~words

let[@inline] f64_get ctx a i =
  if i < 0 || i >= a.f_len then oob_f64 i a.f_len;
  let byte = i lsl 3 in
  let page = a.f_region.Layout.first_page + (byte lsr Page.shift) in
  let off = byte land Page.mask in
  let bits = get_64 (read_raw ctx page) off in
  if State.checking ctx.cluster then observe_read ctx page off 8 bits;
  Int64.float_of_bits bits

let[@inline] f64_set ctx a i v =
  if i < 0 || i >= a.f_len then oob_f64 i a.f_len;
  let byte = i lsl 3 in
  let page = a.f_region.Layout.first_page + (byte lsr Page.shift) in
  let off = byte land Page.mask in
  let bits = Int64.bits_of_float v in
  set_64 (write_raw ctx page off ~bytes:8 ~words:1) off bits;
  if State.checking ctx.cluster then observe_write ctx page off 8 bits

let[@inline] i32_get ctx a i =
  if i < 0 || i >= a.i_len then oob_i32 i a.i_len;
  let byte = i lsl 2 in
  let page = a.i_region.Layout.first_page + (byte lsr Page.shift) in
  let off = byte land Page.mask in
  let v = get_32 (read_raw ctx page) off in
  if State.checking ctx.cluster then
    observe_read ctx page off 4 (Int64.of_int32 v);
  v

let[@inline] i32_set ctx a i v =
  if i < 0 || i >= a.i_len then oob_i32 i a.i_len;
  let byte = i lsl 2 in
  let page = a.i_region.Layout.first_page + (byte lsr Page.shift) in
  let off = byte land Page.mask in
  set_32 (write_raw ctx page off ~bytes:4 ~words:1) off v;
  if State.checking ctx.cluster then
    observe_write ctx page off 4 (Int64.of_int32 v)

(* One locate for the whole read-modify-write.  Observable semantics are
   those of [i32_get] followed by [i32_set]: the read (and its possible
   read fault) happens first, the addend is applied to the value read
   BEFORE the write fault, and the write never re-reads. *)
let[@inline] i32_add ctx a i v =
  if i < 0 || i >= a.i_len then oob_i32 i a.i_len;
  let byte = i lsl 2 in
  let page = a.i_region.Layout.first_page + (byte lsr Page.shift) in
  let off = byte land Page.mask in
  let current = get_32 (read_raw ctx page) off in
  if State.checking ctx.cluster then
    observe_read ctx page off 4 (Int64.of_int32 current);
  let sum = Int32.add current v in
  set_32 (write_raw ctx page off ~bytes:4 ~words:1) off sum;
  if State.checking ctx.cluster then
    observe_write ctx page off 4 (Int64.of_int32 sum)

(* --- bulk page-run operations --- *)

(* Sugar over the word accessors with identical observable semantics: one
   bounds+permission check (and one fault retry loop) per within-page run
   instead of per word.  [walk] visits the runs in ascending page order,
   exactly the order the equivalent scalar loop first touches the pages,
   and a run can only fault at its first word — between the words of a
   run the process never yields, so no handler can change the page's
   protection mid-run (the same argument that makes the scalar loop
   fault-free after its first touch).  For the same reason the recorder
   sees each run word by word afterwards ([observe_run]) with the times
   and values the scalar loop would have recorded.  The f64 runs move
   each within-page run with one memory copy ({!Page.get_f64_run}); the
   folds and the i32 runs go word by word. *)

(* [walk ~shift first_page i len f] splits elements [\[i, i+len)] of
   [1 lsl shift]-byte words, laid out from [first_page], into within-page
   runs and calls [f page off k run] for each in ascending order: [run]
   words from byte [off] of [page], the first of them element [i + k]. *)
let[@inline] walk ~shift first_page i len f =
  let k = ref 0 in
  while !k < len do
    let byte = (i + !k) lsl shift in
    let off = byte land Page.mask in
    let run = min (len - !k) ((Page.size - off) lsr shift) in
    f (first_page + (byte lsr Page.shift)) off !k run;
    k := !k + run
  done

(* One observation per word of the run just read or written, ascending,
   with the bits now in the frame. *)
let[@inline never] observe_run ctx ~write ~shift page off raw run =
  let width = 1 lsl shift in
  for k = 0 to run - 1 do
    let o = off + (k lsl shift) in
    let bits =
      if shift = 3 then get_64 raw o else Int64.of_int32 (get_32 raw o)
    in
    if write then observe_write ctx page o width bits
    else observe_read ctx page o width bits
  done

let f64_get_run ctx a i dst pos len =
  if len < 0 || i < 0 || i + len > a.f_len then oob_run "f64" i len a.f_len;
  if pos < 0 || pos + len > Array.length dst then oob_buf "f64_get_run";
  walk ~shift:3 a.f_region.Layout.first_page i len (fun page off k run ->
      let raw = read_raw ctx page in
      Page.get_f64_run raw off dst (pos + k) run;
      if State.checking ctx.cluster then
        observe_run ctx ~write:false ~shift:3 page off raw run)

let f64_set_run ctx a i src pos len =
  if len < 0 || i < 0 || i + len > a.f_len then oob_run "f64" i len a.f_len;
  if pos < 0 || pos + len > Array.length src then oob_buf "f64_set_run";
  walk ~shift:3 a.f_region.Layout.first_page i len (fun page off k run ->
      let raw = write_raw ctx page off ~bytes:(run lsl 3) ~words:run in
      Page.set_f64_run raw off src (pos + k) run;
      if State.checking ctx.cluster then
        observe_run ctx ~write:true ~shift:3 page off raw run)

let f64_fold_run ctx a i len ~init ~f =
  if len < 0 || i < 0 || i + len > a.f_len then oob_run "f64" i len a.f_len;
  let acc = ref init in
  walk ~shift:3 a.f_region.Layout.first_page i len (fun page off _ run ->
      let raw = read_raw ctx page in
      for k = 0 to run - 1 do
        acc := f !acc (Int64.float_of_bits (get_64 raw (off + (k lsl 3))))
      done;
      if State.checking ctx.cluster then
        observe_run ctx ~write:false ~shift:3 page off raw run);
  !acc

let i32_get_run ctx a i dst pos len =
  if len < 0 || i < 0 || i + len > a.i_len then oob_run "i32" i len a.i_len;
  if pos < 0 || pos + len > Array.length dst then oob_buf "i32_get_run";
  walk ~shift:2 a.i_region.Layout.first_page i len (fun page off k run ->
      let raw = read_raw ctx page in
      for j = 0 to run - 1 do
        dst.(pos + k + j) <- get_32 raw (off + (j lsl 2))
      done;
      if State.checking ctx.cluster then
        observe_run ctx ~write:false ~shift:2 page off raw run)

let i32_set_run ctx a i src pos len =
  if len < 0 || i < 0 || i + len > a.i_len then oob_run "i32" i len a.i_len;
  if pos < 0 || pos + len > Array.length src then oob_buf "i32_set_run";
  walk ~shift:2 a.i_region.Layout.first_page i len (fun page off k run ->
      let raw = write_raw ctx page off ~bytes:(run lsl 2) ~words:run in
      for j = 0 to run - 1 do
        set_32 raw (off + (j lsl 2)) src.(pos + k + j)
      done;
      if State.checking ctx.cluster then
        observe_run ctx ~write:true ~shift:2 page off raw run)

let i32_fold_run ctx a i len ~init ~f =
  if len < 0 || i < 0 || i + len > a.i_len then oob_run "i32" i len a.i_len;
  let acc = ref init in
  walk ~shift:2 a.i_region.Layout.first_page i len (fun page off _ run ->
      let raw = read_raw ctx page in
      for k = 0 to run - 1 do
        acc := f !acc (get_32 raw (off + (k lsl 2)))
      done;
      if State.checking ctx.cluster then
        observe_run ctx ~write:false ~shift:2 page off raw run);
  !acc
