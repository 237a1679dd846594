(* The discrete-event multicore runner.

   Each guest thread is pinned to one hardware context with its own cycle
   clock. The runner always steps the runnable thread with the smallest
   clock, ties going to the larger tid, one bytecode at a time, which
   yields a deterministic, sequentially-consistent interleaving in which
   transactions genuinely overlap in virtual time.

   Two schedulers realise that order. [Sched_heap] (the default) keeps the
   runnable threads in an indexed binary min-heap and lets the chosen
   thread *run ahead*: it steps in a tight loop until its clock passes the
   heap's smallest key or it blocks, so scheduling work is O(1) per
   instruction instead of a linear rescan. [Sched_ref] retains the
   per-instruction linear scan as an executable specification; both
   produce the same pick at every step, so their interleavings — and the
   figures — are identical (asserted by the differential test suite and
   the smoke script's digest comparison). Either way every instruction
   goes through the one executor, [step_thread], which hands it to the one
   opcode handler, [Rvm.Interp.step].

   The scheme logic (GIL yield protocol, TLE transaction begin/end/yield of
   Figures 1-2, dynamic length adjustment of Figure 3) lives here because it
   is exactly the part of the paper that glues scheduling, the lock and the
   HTM together. *)

open Htm_sim
module V = Rvm.Vmthread

(* Pattern-matched status and pending-abort tests for the per-step path:
   [=] or [<>] on a variant with argument-carrying constructors compiles to
   a polymorphic compare call (as does [Stdlib.max], hence [Int.max]
   there). *)
let[@inline] runnable (th : V.t) = match th.status with V.Runnable -> true | _ -> false
let[@inline] finished (th : V.t) = match th.status with V.Finished -> true | _ -> false

let[@inline] htm_pending htm ctx =
  match Htm.pending_abort htm ctx with None -> false | Some _ -> true

type sched_kind = Sched_heap | Sched_ref

(* BENCH_SCHED=ref flips the process-wide default so the smoke script and
   CI can regenerate figures under the reference scheduler without touching
   every config call site. An unknown value is an error: falling back to
   the default would let a typo compare the default against itself. *)
let default_sched_kind () =
  match
    String.lowercase_ascii
      (String.trim (Option.value (Sys.getenv_opt "BENCH_SCHED") ~default:""))
  with
  | "" | "heap" -> Sched_heap
  | "ref" | "scan" -> Sched_ref
  | s -> invalid_arg (Printf.sprintf "BENCH_SCHED=%S (expected heap or ref)" s)

type config = {
  machine : Machine.t;
  scheme : Scheme.kind;
  yield_points : Yield_points.set;
  opts : Rvm.Options.t;
  txlen_params : Txlen.params option;  (** default: per-machine *)
  max_insns : int;  (** safety stop *)
  tracer : Obs.Trace.t option;
      (** event-trace sink shared by the runner, the GIL and the heap; None
          (the default) keeps every instrumentation site at one branch *)
  sched : sched_kind;
  clock : Tm_clock.scheme;
      (** global commit-clock scheme the STM publishes under (GV1 unless
          --clock says otherwise); irrelevant for schemes without a
          software fallback *)
  subscription : Subscription.t;
      (** how hardware windows subscribe to the GIL/clock words (eager
          unless --subscription says otherwise) *)
}

let config ?(scheme = Scheme.Htm_dynamic) ?(yield_points = Yield_points.Extended)
    ?(opts = Rvm.Options.default) ?txlen_params ?(max_insns = 400_000_000)
    ?tracer ?sched ?(clock = Tm_clock.Gv1) ?(subscription = Subscription.Eager)
    machine =
  let sched =
    match sched with Some s -> s | None -> default_sched_kind ()
  in
  { machine; scheme; yield_points; opts; txlen_params; max_insns; tracer;
    sched; clock; subscription }

type breakdown = {
  mutable bd_txn_overhead : int;
  mutable bd_committed : int;
  mutable bd_aborted : int;
  mutable bd_gil_held : int;
  mutable bd_gil_wait : int;
  mutable bd_other : int;
}

type result = {
  wall_cycles : int;
  total_insns : int;
  output : string;
  main_value : Rvm.Value.t;
  htm_stats : Stats.t;
  stm_stats : Stm.stats;  (** all-zero unless the scheme uses the STM *)
  breakdown : breakdown;
  gil_acquisitions : int;
  gc_runs : int;
  allocs : int;
  txlen_at_one : float;  (** fraction of yield points adjusted to length 1 *)
  txlen_mean : float;
  requests_completed : int;
  request_throughput : float;  (** requests/sec where netsim is used *)
  metrics : Obs.Metrics.t;  (** the VM's registry, runner histograms included *)
  abort_sites : Obs.Sites.t;  (** abort-site attribution for this run *)
  trace : Obs.Trace.t option;  (** the sink passed in the config, if any *)
}

exception Stuck of string
exception Guest_failure of string

(* Per-thread TLE retry state (Figure 1's local variables). *)
type tle_state = {
  mutable transient_retry_counter : int;
  mutable gil_retry_counter : int;
  mutable first_retry : bool;
  mutable acq_at_begin : int;
      (** GIL acquisition count when the transaction began: an abort is a
          GIL conflict if an acquisition happened since, even if the lock was
          already released again by the time this thread gets to run its
          abort handler (on real hardware the handler runs immediately) *)
  mutable stm_retry_counter : int;
      (** software retries left for the current window; -1 = no STM window
          open (the budget is looked up per site at the first software begin) *)
  mutable stm_retry_init : int;
  mutable stm_site_uid : int;
      (** the (code uid, pc) the software window opened at, for rewarding /
          punishing the per-site retry budget after rollback moved th.pc *)
  mutable stm_site_pc : int;
  mutable clock_at_begin : Rvm.Value.t;
      (** (lazy subscription) the commit-clock cell's value when the
          hardware window began; the commit point re-reads the cell and
          any difference kills the window — the deferred equivalent of
          the eager subscribe read *)
}

let transient_retry_max = 3
let gil_retry_max = 16

type t = {
  cfg : config;
  vm : Rvm.Vm.t;
  gil : Gil.t;
  stm : Rvm.Value.t Stm.t option;
      (** the software fallback engine; [Some] exactly for schemes with
          [Scheme.uses_stm] (creating it reserves the commit-clock cell, so
          the store layout of every other scheme is untouched) *)
  stm_budget : Stm.Budget.t;
  txlen : Txlen.t;
  session : Rvm.Session.t;
  io : Netsim.t option;
  (* scheduling state *)
  sched : Sched.t;  (** runnable-with-context threads, keyed by clock *)
  mutable running_tid : int;
      (** thread currently holding a run-ahead slice; kept out of the heap
          while its clock advances, -1 between slices *)
  mutable free_ctx : int list;
  ctx_waiters : V.t Queue.t;
  mutable ctx_queued : bool array;  (** tid is in [ctx_waiters] *)
  mutable outside : bool array;  (** needs transaction_begin / gil acquire *)
  mutable resume_gil : bool array;
      (** woken from a blocking operation: CRuby re-acquires the GIL after a
          blocking region, so the window resumes on the fallback path (this
          also keeps wake-up tokens safe from transaction rollback) *)
  mutable skip_yield : bool array;
      (** the current window began at the current pc: that yield point
          counts as already passed, so don't fire it again before the
          instruction executes (otherwise a length-1 window could never
          get past its own starting bytecode) *)
  mutable stm_mode : bool array;
      (** (Hybrid only) this thread's next windows run as software
          transactions — set on a persistent/capacity/retry-exhausted
          hardware abort, cleared when a software window commits or the
          thread falls all the way back to the GIL *)
  mutable tle : tle_state array;
  mutable hw_rollback : (Txn.abort_reason -> unit) array;
  mutable sw_rollback : (Txn.abort_reason -> unit) array;
      (** per tid: the thread's hardware / software rollback closures,
          built once when it gets a context so opening a window never
          allocates one *)
  mutable park_clock : int array;
  cost_tbl : int array;
      (** base cycles per [Rvm.Compiler.Dcode] cost class on this machine *)
  (* wait queues *)
  mutex_waiters : (int, V.t Queue.t) Hashtbl.t;
  cond_waiters : (int, (V.t * int) Queue.t) Hashtbl.t;
  join_waiters : (int, V.t list) Hashtbl.t;
  sleepq : Sched.t;  (** sleeping / io-waiting threads, keyed by wake cycle *)
  accept_waiters : V.t Queue.t;
  mutable total_insns : int;
  prng : Prng.t;  (** scheduling-only randomness (retry backoff) *)
  breakdown : breakdown;
  mutable horizon : int;
      (** virtual-time horizon for {!advance}: no step whose start clock
          exceeds it begins; [max_int] for a plain {!run} *)
  (* observability *)
  tracer : Obs.Trace.t option;
  sites : Obs.Sites.t;
  mutable last_tid : int;  (** last stepped thread, for Ctx_switch events *)
  m_txn_committed : Obs.Metrics.histogram;  (** cycles per committed txn *)
  m_txn_aborted : Obs.Metrics.histogram;  (** cycles wasted per abort *)
  m_txn_retries : Obs.Metrics.histogram;  (** aborts absorbed per window *)
  m_txn_rs : Obs.Metrics.histogram;  (** committed read-set lines *)
  m_txn_ws : Obs.Metrics.histogram;
  m_gil_wait : Obs.Metrics.histogram;  (** cycles parked waiting for the GIL *)
  m_stm_committed : Obs.Metrics.histogram;
      (** cycles per committed software transaction *)
  m_fb_gil : Obs.Metrics.counter;  (** windows that fell back to the GIL *)
  m_fb_stm : Obs.Metrics.counter;  (** windows that fell back to the STM *)
  m_kill_gil : Obs.Metrics.counter;
      (** hardware aborts attributed to the GIL word's line *)
  m_kill_clock : Obs.Metrics.counter;
      (** hardware aborts attributed to the STM commit-clock cell's line
          (the subscription kills GV5/GV6 exist to avoid) *)
  m_clock_bumps : Obs.Metrics.counter;
      (** clock-cell writes performed (mirrors [Tm_clock.bumps]) *)
  m_clock_skipped : Obs.Metrics.counter;
      (** clock-cell writes avoided (mirrors [Tm_clock.skipped]) *)
  m_clock_switches : Obs.Metrics.counter;
      (** GV6 regime switches (mirrors [Tm_clock.switches]) *)
  m_slice_insns : Obs.Metrics.histogram;
      (** instructions executed per run-ahead slice *)
  g_runnable_peak : Obs.Metrics.gauge;
      (** high-watermark of simultaneously runnable threads *)
  g_accept_queue_peak : Obs.Metrics.gauge;
      (** high-watermark of the netsim accept-queue depth *)
  g_in_flight_peak : Obs.Metrics.gauge;
      (** high-watermark of accepted-but-unfinished requests *)
}

let max_threads = 64

let fresh_tle () =
  {
    transient_retry_counter = transient_retry_max;
    gil_retry_counter = gil_retry_max;
    first_retry = true;
    acq_at_begin = 0;
    stm_retry_counter = -1;
    stm_retry_init = 0;
    stm_site_uid = 0;
    stm_site_pc = 0;
    clock_at_begin = Rvm.Value.vint 0;
  }

let no_rollback (_ : Txn.abort_reason) = ()

let create ?(io : Netsim.t option) cfg ~source =
  let opts = Scheme.adjust_options cfg.scheme cfg.opts in
  (* z/OS HEAPPOOLS (Section 5.2) still leaves conflict points in malloc
     (Section 5.5): model it as much smaller thread-local chunks, so the
     global bump pointer is touched far more often than on Linux *)
  let opts =
    if cfg.machine.Machine.malloc_thread_local then opts
    else { opts with Rvm.Options.malloc_chunk = min opts.Rvm.Options.malloc_chunk 256 }
  in
  let session = Rvm.Session.create ~opts ~htm_mode:(Scheme.htm_mode cfg.scheme) cfg.machine ~source in
  let vm = session.Rvm.Session.vm in
  let txlen_mode =
    match cfg.scheme with
    | Scheme.Htm_fixed n -> Txlen.Constant n
    | _ -> Txlen.Dynamic
  in
  let params =
    match cfg.txlen_params with
    | Some p -> p
    | None -> Txlen.params_for cfg.machine
  in
  let gil = Gil.create vm in
  gil.Gil.tracer <- cfg.tracer;
  vm.Rvm.Vm.heap.Rvm.Heap.tracer <- cfg.tracer;
  (* Lazy_safe models Dice et al.'s hardware fix — it only exists on
     machines whose descriptor advertises the capability. *)
  if
    cfg.subscription = Subscription.Lazy_safe
    && not cfg.machine.Machine.lazy_sub_safe
  then
    invalid_arg
      (Printf.sprintf
         "Runner.create: machine %s does not support safe lazy subscription \
          (Machine.lazy_sub_safe is false)"
         cfg.machine.Machine.name);
  Htm.set_subscription vm.Rvm.Vm.htm cfg.subscription;
  (* the software fallback engine: created (and its commit-clock cell
     reserved) only for the schemes that can use it, so every other
     scheme's store layout — and therefore its figures — is untouched *)
  let stm =
    if Scheme.uses_stm cfg.scheme then
      Some
        (Stm.create
           ~clock:(Tm_clock.create cfg.clock)
           ~mk_clock:(fun n -> Rvm.Value.vint n)
           vm.Rvm.Vm.htm)
    else None
  in
  let sites = Obs.Sites.create () in
  let metrics = vm.Rvm.Vm.metrics in
  let main = session.Rvm.Session.main in
  let t =
    {
    cfg;
    vm;
    gil;
    stm;
    stm_budget = Stm.Budget.create ();
    txlen = Txlen.create ~params txlen_mode;
    session;
    io;
    sched = Sched.create ~dummy:main;
    running_tid = -1;
    free_ctx = List.init (Machine.n_ctx cfg.machine) (fun i -> i);
    ctx_waiters = Queue.create ();
    ctx_queued = Array.make max_threads false;
    outside = Array.make max_threads true;
    resume_gil = Array.make max_threads false;
    skip_yield = Array.make max_threads false;
    stm_mode = Array.make max_threads false;
    tle = Array.init max_threads (fun _ -> fresh_tle ());
    hw_rollback = Array.make max_threads no_rollback;
    sw_rollback = Array.make max_threads no_rollback;
    park_clock = Array.make max_threads 0;
    cost_tbl = Rvm.Compiler.cost_table cfg.machine.costs;
    mutex_waiters = Hashtbl.create 16;
    cond_waiters = Hashtbl.create 16;
    join_waiters = Hashtbl.create 16;
    sleepq = Sched.create ~dummy:main;
    accept_waiters = Queue.create ();
    total_insns = 0;
    prng = Prng.create 20140215;
    breakdown =
      {
        bd_txn_overhead = 0;
        bd_committed = 0;
        bd_aborted = 0;
        bd_gil_held = 0;
        bd_gil_wait = 0;
        bd_other = 0;
      };
    horizon = max_int;
    tracer = cfg.tracer;
    sites;
    last_tid = -1;
    m_txn_committed = Obs.Metrics.histogram metrics "txn.committed_cycles";
    m_txn_aborted = Obs.Metrics.histogram metrics "txn.aborted_cycles";
    m_txn_retries = Obs.Metrics.histogram metrics "txn.retries_per_window";
    m_txn_rs = Obs.Metrics.histogram metrics "txn.read_set_lines";
    m_txn_ws = Obs.Metrics.histogram metrics "txn.write_set_lines";
    m_gil_wait = Obs.Metrics.histogram metrics "gil.wait_cycles";
    m_stm_committed = Obs.Metrics.histogram metrics "stm.committed_cycles";
    m_fb_gil = Obs.Metrics.counter metrics "fallback.gil";
    m_fb_stm = Obs.Metrics.counter metrics "fallback.stm";
    m_kill_gil = Obs.Metrics.counter metrics "abort.gil_word";
    m_kill_clock = Obs.Metrics.counter metrics "abort.stm_clock";
    m_clock_bumps = Obs.Metrics.counter metrics "clock.bumps";
    m_clock_skipped = Obs.Metrics.counter metrics "clock.skipped";
    m_clock_switches = Obs.Metrics.counter metrics "clock.switches";
    m_slice_insns = Obs.Metrics.histogram metrics "sched.slice_insns";
    g_runnable_peak = Obs.Metrics.gauge metrics "sched.runnable_peak";
    g_accept_queue_peak = Obs.Metrics.gauge metrics "net.accept_queue_peak";
    g_in_flight_peak = Obs.Metrics.gauge metrics "net.in_flight_peak";
  }
  in
  (* Request-lifecycle instrumentation: netsim calls back at every request
     completion, the runner records the latency decomposition (pure
     observation — virtual time is never touched) and, when tracing, emits
     the per-connection span into the sink. *)
  (match io with
  | None -> ()
  | Some nio ->
      let m_latency = Obs.Metrics.histogram metrics "req.latency_cycles" in
      let m_queue = Obs.Metrics.histogram metrics "req.queue_cycles" in
      let m_service = Obs.Metrics.histogram metrics "req.service_cycles" in
      Netsim.set_on_close nio (fun (c : Netsim.conn) ~now ->
          let accepted = if c.Netsim.accepted_at > 0 then c.Netsim.accepted_at else c.Netsim.arrived in
          let queue_c = max 0 (accepted - c.Netsim.arrived) in
          let service_c = max 0 (now - accepted) in
          Obs.Metrics.observe m_latency (max 0 (now - c.Netsim.arrived));
          Obs.Metrics.observe m_queue queue_c;
          Obs.Metrics.observe m_service service_c;
          match t.tracer with
          | None -> ()
          | Some tr ->
              Obs.Trace.emit tr
                {
                  Obs.Event.ts = now;
                  tid = max 0 c.Netsim.served_by;
                  ctx = -1;
                  kind =
                    Obs.Event.Req_span
                      {
                        conn_id = c.Netsim.conn_id;
                        queue_cycles = queue_c;
                        first_byte_cycles =
                          (if c.Netsim.first_byte_at > 0 then
                             max 0 (c.Netsim.first_byte_at - accepted)
                           else -1);
                        service_cycles = service_c;
                        total_cycles = max 0 (now - c.Netsim.arrived);
                      };
                }));
  t

let costs t = t.cfg.machine.costs

let emit t (th : V.t) kind =
  match t.tracer with
  | None -> ()
  | Some tr ->
      Obs.Trace.emit tr
        { Obs.Event.ts = th.clock; tid = th.tid; ctx = th.ctx; kind }

(* Guard for [emit] sites whose payload allocates: test first, so disabled
   tracing builds nothing. *)
let[@inline] tracing t = match t.tracer with None -> false | Some _ -> true

(* Grow the per-tid state arrays so [tid] is addressable. *)
let ensure_tid t tid =
  let n = Array.length t.outside in
  if tid >= n then begin
    let m = max (2 * n) (tid + 1) in
    let grow a d =
      let b = Array.make m d in
      Array.blit a 0 b 0 n;
      b
    in
    t.outside <- grow t.outside true;
    t.resume_gil <- grow t.resume_gil false;
    t.skip_yield <- grow t.skip_yield false;
    t.stm_mode <- grow t.stm_mode false;
    t.ctx_queued <- grow t.ctx_queued false;
    let tle = Array.init m (fun _ -> fresh_tle ()) in
    Array.blit t.tle 0 tle 0 n;
    t.tle <- tle;
    t.hw_rollback <- grow t.hw_rollback no_rollback;
    t.sw_rollback <- grow t.sw_rollback no_rollback;
    t.park_clock <- grow t.park_clock 0
  end

(* ---- parking / waking --------------------------------------------------- *)

(* Sync a thread's heap membership with its state after any scheduling
   transition. The invariant the run-ahead loop relies on: the heap holds
   exactly the runnable-with-context threads, keyed by their current clock
   — except the thread of the slice in flight, which is compared against
   the heap root directly. *)
let sched_sync t (th : V.t) =
  if th.tid <> t.running_tid then
    if runnable th && th.ctx >= 0 then
      Sched.push t.sched ~key:th.clock th
    else Sched.remove t.sched th.tid

(* A hardware context belongs to a thread only while it can run: parking
   releases it to the pool (a blocked pthread yields its CPU), waking
   re-acquires one, possibly waiting for a free core. *)
let grant_ctx t (th : V.t) =
  match t.free_ctx with
  | ctx :: rest ->
      t.free_ctx <- rest;
      th.ctx <- ctx;
      Htm.set_occupied t.vm.Rvm.Vm.htm ctx true;
      true
  | [] ->
      ensure_tid t th.tid;
      if not t.ctx_queued.(th.tid) then begin
        t.ctx_queued.(th.tid) <- true;
        Queue.add th t.ctx_waiters
      end;
      false

let release_ctx t (th : V.t) =
  if th.ctx >= 0 then begin
    Htm.set_occupied t.vm.Rvm.Vm.htm th.ctx false;
    t.free_ctx <- th.ctx :: t.free_ctx;
    th.ctx <- -1;
    if not (Queue.is_empty t.ctx_waiters) then begin
      let w = Queue.pop t.ctx_waiters in
      t.ctx_queued.(w.tid) <- false;
      ignore (grant_ctx t w);
      (match w.status with
      | V.Waiting_ctx -> w.status <- V.Runnable
      | V.Runnable | V.Blocked _ | V.Finished -> ());
      w.clock <- Int.max w.clock th.clock;
      sched_sync t w
    end
  end

let park t (th : V.t) reason =
  th.status <- V.Blocked reason;
  t.park_clock.(th.tid) <- th.clock;
  release_ctx t th;
  sched_sync t th

let wake t (th : V.t) ~at =
  th.clock <- Int.max th.clock at;
  (match th.status with
  | V.Blocked _ -> th.status <- V.Runnable
  | V.Runnable | V.Waiting_ctx | V.Finished -> ());
  if th.ctx < 0 then ignore (grant_ctx t th);
  sched_sync t th

let wake_gil_waiter t (th : V.t) ~at =
  let waited = Int.max 0 (at - t.park_clock.(th.tid)) in
  t.breakdown.bd_gil_wait <- t.breakdown.bd_gil_wait + waited;
  th.cyc_gil_wait <- th.cyc_gil_wait + waited;
  Obs.Metrics.observe t.m_gil_wait waited;
  (match t.tracer with
  | None -> ()
  | Some tr ->
      Obs.Trace.emit tr
        {
          Obs.Event.ts = at;
          tid = th.tid;
          ctx = th.ctx;
          kind = Gil_wait { cycles = waited };
        });
  wake t th ~at

let queue_for tbl key =
  match Hashtbl.find_opt tbl key with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.add tbl key q;
      q

(* ---- transactions (Figures 1 and 2) ------------------------------------- *)

let charge_txn_overhead t (th : V.t) c =
  th.clock <- th.clock + c;
  th.cyc_txn_overhead <- th.cyc_txn_overhead + c;
  t.breakdown.bd_txn_overhead <- t.breakdown.bd_txn_overhead + c

(* The rollback closure run by the engine whenever this thread's transaction
   dies (self-abort or victim of a conflict). The abort site — the bytecode
   this thread was executing when it died — must be read before [V.restore]
   rewinds the registers to the window start. *)
let rollback_hook t (th : V.t) (reason : Txn.abort_reason) =
  th.n_aborts <- th.n_aborts + 1;
  let code = th.code.Rvm.Value.code_name and pc = th.pc in
  let op =
    if pc >= 0 && pc < Array.length th.code.insns then
      Rvm.Bytecode.insn_name th.code.insns.(pc)
    else "?"
  in
  V.restore th;
  let wasted = Int.max 0 (th.clock - th.txn_start_clock) in
  th.cyc_aborted <- th.cyc_aborted + wasted;
  t.breakdown.bd_aborted <- t.breakdown.bd_aborted + wasted;
  let htm = t.vm.Rvm.Vm.htm in
  let line = Htm.abort_line htm th.ctx in
  (* split the subscription-kill attribution the ablation cares about:
     GIL-word kills (TLE's lemming cost) vs commit-clock kills (the STM
     publication cost GV5/GV6 exist to shrink) *)
  (if line >= 0 then
     let store = t.vm.Rvm.Vm.store in
     if line = Store.line_of store t.vm.Rvm.Vm.g_gil then
       Obs.Metrics.incr t.m_kill_gil
     else
       match t.stm with
       | Some stm when line = Store.line_of store (Stm.clock_cell stm) ->
           Obs.Metrics.incr t.m_kill_clock
       | _ -> ());
  let reason_s = Txn.reason_to_string reason in
  Obs.Sites.record t.sites ~code ~pc ~op ~reason:reason_s ~line;
  Obs.Metrics.observe t.m_txn_aborted wasted;
  if tracing t then
    emit t th
      (Obs.Event.Txn_abort
         {
           reason = reason_s;
           cycles = wasted;
           rs = Htm.txn_rs htm th.ctx;
           ws = Htm.txn_ws htm th.ctx;
           line;
           code;
           pc;
           op;
         });
  th.clock <- th.clock + (costs t).cyc_abort;
  (* a conflict victim can be any runnable thread: its clock just moved, so
     its heap key is stale until re-synced (self-aborts are skipped by the
     running-slice guard and re-synced at slice end) *)
  sched_sync t th

let set_yield_counter t (th : V.t) len =
  Htm.write t.vm.Rvm.Vm.htm ~ctx:th.ctx
    (th.struct_base + V.st_yield_counter)
    (Rvm.Value.vint len)

let read_yield_counter t (th : V.t) =
  match Htm.read t.vm.Rvm.Vm.htm ~ctx:th.ctx (th.struct_base + V.st_yield_counter) with
  | Rvm.Value.VInt n -> n
  | _ -> 1

let reset_retries t (th : V.t) =
  let st = t.tle.(th.tid) in
  st.transient_retry_counter <- transient_retry_max;
  st.gil_retry_counter <- gil_retry_max;
  st.first_retry <- true;
  st.stm_retry_counter <- -1

(* ---- the software fallback (lib/stm) ------------------------------------ *)

let stm_of t = match t.stm with Some s -> s | None -> assert false

(* The STM mirror of [rollback_hook]: run by [Stm.abort] whenever this
   thread's software transaction dies (failed validation, a GIL
   acquisition, or an explicit escape). *)
let stm_rollback_hook t (th : V.t) (reason : Txn.abort_reason) =
  th.n_aborts <- th.n_aborts + 1;
  let code = th.code.Rvm.Value.code_name and pc = th.pc in
  let op =
    if pc >= 0 && pc < Array.length th.code.insns then
      Rvm.Bytecode.insn_name th.code.insns.(pc)
    else "?"
  in
  V.restore th;
  let wasted = Int.max 0 (th.clock - th.txn_start_clock) in
  th.cyc_aborted <- th.cyc_aborted + wasted;
  t.breakdown.bd_aborted <- t.breakdown.bd_aborted + wasted;
  let stm = stm_of t in
  let line = Stm.abort_line stm th.ctx in
  let reason_s = Txn.reason_to_string reason in
  Obs.Sites.record t.sites ~code ~pc ~op ~reason:reason_s ~line;
  Obs.Metrics.observe t.m_txn_aborted wasted;
  if tracing t then begin
    let rs, ws = Stm.footprint stm th.ctx in
    emit t th
      (Obs.Event.Txn_abort
         { reason = reason_s; cycles = wasted; rs; ws; line; code; pc; op })
  end;
  th.clock <- th.clock + (costs t).cyc_abort;
  sched_sync t th

(* Software-transaction begin, the [transaction_begin] mirror. Returns
   false if the thread parked. Like hardware windows, software windows obey
   the strict TLE discipline: none may start — or commit — while the GIL is
   held, so a GIL holder still observes a fully quiesced VM. *)
let stm_begin t (th : V.t) =
  let vm = t.vm in
  let st = t.tle.(th.tid) in
  if Rvm.Vm.live_count vm <= 1 then begin
    (* no concurrency needed: revert to the GIL *)
    if Gil.held_by t.gil th then true
    else if t.gil.owner = -1 then begin
      Gil.take t.gil th;
      t.outside.(th.tid) <- false;
      t.skip_yield.(th.tid) <- true;
      st.stm_retry_counter <- -1;
      set_yield_counter t th
        (Txlen.set_transaction_length t.txlen ~code:th.code ~pc:th.pc);
      true
    end
    else begin
      Gil.enqueue_waiter t.gil th;
      park t th (V.On_mutex (-1));
      t.outside.(th.tid) <- true;
      false
    end
  end
  else if t.gil.owner <> -1 then begin
    Gil.enqueue_waiter t.gil th;
    park t th (V.On_mutex (-2));
    t.outside.(th.tid) <- true;
    false
  end
  else begin
    let len = Txlen.set_transaction_length t.txlen ~code:th.code ~pc:th.pc in
    if st.stm_retry_counter < 0 then begin
      (* a fresh window, not a retry: look up this site's retry budget *)
      st.stm_site_uid <- th.code.Rvm.Value.uid;
      st.stm_site_pc <- th.pc;
      let b =
        Stm.Budget.allowed t.stm_budget ~uid:st.stm_site_uid ~pc:st.stm_site_pc
      in
      st.stm_retry_counter <- b;
      st.stm_retry_init <- b
    end;
    st.acq_at_begin <- t.gil.acquisitions;
    charge_txn_overhead t th (costs t).cyc_stm_begin;
    V.snapshot th;
    th.txn_start_clock <- th.clock;
    Stm.begin_ (stm_of t) ~ctx:th.ctx ~rollback:t.sw_rollback.(th.tid);
    emit t th Obs.Event.Txn_begin;
    (* these writes route into the redo log: the engine dispatches
       [Htm.read]/[Htm.write] to the STM for software-active contexts *)
    set_yield_counter t th len;
    (if vm.Rvm.Vm.opts.tls_current_thread then begin
       if not t.cfg.machine.tls_fast then th.clock <- th.clock + (costs t).cyc_tls;
       Htm.write vm.Rvm.Vm.htm ~ctx:th.ctx
         (th.struct_base + V.st_tls_current)
         (Rvm.Value.vint th.tid)
     end
     else
       Htm.write vm.Rvm.Vm.htm ~ctx:th.ctx vm.Rvm.Vm.g_current_thread
         (Rvm.Value.vint th.tid));
    t.outside.(th.tid) <- false;
    t.skip_yield.(th.tid) <- true;
    true
  end

(* Every window that gives up on its primary mode lands here (the Figure 1
   fallback for HTM-only schemes; the last resort after the STM for the
   hybrid). *)
let gil_fallback t (th : V.t) ~cause =
  Obs.Sites.record_fallback t.sites ~target:"gil" ~cause;
  Obs.Metrics.incr t.m_fb_gil;
  t.stm_mode.(th.tid) <- false;
  if t.gil.owner = -1 then begin
    Gil.take t.gil th;
    t.outside.(th.tid) <- false;
    t.skip_yield.(th.tid) <- true;
    reset_retries t th;
    (* window length is unchanged when reverting to the GIL *)
    set_yield_counter t th
      (Txlen.set_transaction_length t.txlen ~code:th.code ~pc:th.pc)
  end
  else begin
    Gil.enqueue_waiter t.gil th;
    park t th (V.On_mutex (-1));
    t.outside.(th.tid) <- true
  end

(* Software-transaction commit: validate the read set, publish the redo log
   and bump the store-resident commit clock (killing subscribed hardware
   transactions). Returns false — with the pending abort recorded and the
   registers already rolled back — when validation fails or the GIL was
   taken since the window began. *)
let stm_commit t (th : V.t) =
  let vm = t.vm in
  let stm = stm_of t in
  let st = t.tle.(th.tid) in
  if t.gil.owner <> -1 || t.gil.acquisitions > st.acq_at_begin then begin
    (* the GIL word is implicitly part of every window's footprint *)
    Stm.abort stm ~ctx:th.ctx
      ~line:(Store.line_of vm.Rvm.Vm.store vm.Rvm.Vm.g_gil)
      Txn.Conflict;
    false
  end
  else begin
    let bad = Stm.validate stm ~ctx:th.ctx in
    if bad >= 0 then begin
      Stm.abort stm ~ctx:th.ctx ~line:bad Txn.Validation;
      false
    end
    else begin
      let rs, ws = Stm.footprint stm th.ctx in
      charge_txn_overhead t th
        ((costs t).cyc_stm_commit
        + (rs * (costs t).cyc_stm_valid_line)
        + (ws * (costs t).cyc_mem));
      Stm.commit stm ~ctx:th.ctx;
      let in_txn_cycles = Int.max 0 (th.clock - th.txn_start_clock) in
      th.cyc_committed <- th.cyc_committed + in_txn_cycles;
      t.breakdown.bd_committed <- t.breakdown.bd_committed + in_txn_cycles;
      let retries = Int.max 0 (st.stm_retry_init - st.stm_retry_counter) in
      Obs.Metrics.observe t.m_stm_committed in_txn_cycles;
      Obs.Metrics.observe t.m_txn_rs rs;
      Obs.Metrics.observe t.m_txn_ws ws;
      Obs.Metrics.observe t.m_txn_retries retries;
      if tracing t then
        emit t th
          (Obs.Event.Txn_commit { cycles = in_txn_cycles; rs; ws; retries });
      Stm.Budget.reward t.stm_budget ~uid:st.stm_site_uid ~pc:st.stm_site_pc;
      (* a successful software commit ends the episode: the next window
         tries hardware again (under Stm_only the flag is never consulted) *)
      t.stm_mode.(th.tid) <- false;
      reset_retries t th;
      true
    end
  end

(* transaction_begin (Figure 1). Returns false if the thread parked.

   The window's starting yield point is always [th.code]/[th.pc]: begins run
   before the instruction executes, and an abort's rollback restores the
   registers to the begin-time snapshot — so no separate window key needs
   storing (the previous tuple key allocated per window, which is
   per-instruction work under length-1 windows). *)
let rec transaction_begin t (th : V.t) =
  let vm = t.vm in
  let st = t.tle.(th.tid) in
  if Rvm.Vm.live_count vm <= 1 then begin
    (* no concurrency needed: revert to the GIL (lines 2-3) *)
    if Gil.held_by t.gil th then true
    else if t.gil.owner = -1 then begin
      Gil.take t.gil th;
      t.outside.(th.tid) <- false;
      t.skip_yield.(th.tid) <- true;
      set_yield_counter t th
        (Txlen.set_transaction_length t.txlen ~code:th.code ~pc:th.pc);
      true
    end
    else begin
      Gil.enqueue_waiter t.gil th;
      park t th (V.On_mutex (-1));
      t.outside.(th.tid) <- true;
      false
    end
  end
  else begin
    let len = Txlen.set_transaction_length t.txlen ~code:th.code ~pc:th.pc in
    (* wait for the GIL to be released before starting (lines 6-8) *)
    if t.gil.owner <> -1 then begin
      Gil.enqueue_waiter t.gil th;
      park t th (V.On_mutex (-2));
      t.outside.(th.tid) <- true;
      false
    end
    else begin
      st.first_retry <- true;
      st.acq_at_begin <- t.gil.acquisitions;
      charge_txn_overhead t th (costs t).cyc_tbegin;
      V.snapshot th;
      th.txn_start_clock <- th.clock;
      Htm.tbegin vm.Rvm.Vm.htm ~ctx:th.ctx ~rollback:t.hw_rollback.(th.tid);
      emit t th Obs.Event.Txn_begin;
      set_yield_counter t th len;
      (* publish the running thread (Section 4.4 conflict #1) *)
      (if vm.Rvm.Vm.opts.tls_current_thread then begin
         if not t.cfg.machine.tls_fast then th.clock <- th.clock + (costs t).cyc_tls;
         Htm.write vm.Rvm.Vm.htm ~ctx:th.ctx
           (th.struct_base + V.st_tls_current)
           (Rvm.Value.vint th.tid)
       end
       else
         Htm.write vm.Rvm.Vm.htm ~ctx:th.ctx vm.Rvm.Vm.g_current_thread
           (Rvm.Value.vint th.tid));
      (match t.cfg.subscription with
      | Subscription.Eager ->
          (* subscribe to the GIL (line 15); abort if it got acquired
             meanwhile *)
          (try
             if Gil.read_acquired t.gil th then
               Htm.tabort vm.Rvm.Vm.htm ~ctx:th.ctx Txn.Explicit
           with Htm.Abort_now _ -> ());
          (* (hybrid) subscribe to the STM commit clock the same way: any
             software commit while this hardware window runs conflicts it
             out, which is what makes the two engines mutually
             serializable *)
          (match t.stm with
          | Some stm -> (
              try
                ignore (Htm.read vm.Rvm.Vm.htm ~ctx:th.ctx (Stm.clock_cell stm))
              with Htm.Abort_now _ -> ())
          | None -> ())
      | Subscription.Lazy | Subscription.Lazy_safe ->
          (* deferred subscription: neither word enters the read set, so a
             GIL acquisition or software commit cannot conflict this window
             out mid-flight — [transaction_end] re-checks both values at
             the commit point instead. Record the clock-cell value the
             commit-point check compares against. *)
          (match t.stm with
          | Some stm ->
              st.clock_at_begin <-
                Store.get vm.Rvm.Vm.store (Stm.clock_cell stm)
          | None -> ()));
      if htm_pending vm.Rvm.Vm.htm th.ctx then begin
        handle_abort t th;
        runnable th
      end
      else begin
        t.outside.(th.tid) <- false;
        t.skip_yield.(th.tid) <- true;
        true
      end
    end
  end

(* Abort handling (Figure 1 lines 16-37). The transaction has already been
   rolled back; decide whether to retry, wait, or fall back to the GIL. *)
and handle_abort t (th : V.t) =
  let vm = t.vm in
  let reason =
    match Htm.pending_abort vm.Rvm.Vm.htm th.ctx with
    | Some r -> r
    | None -> assert false
  in
  Htm.clear_pending_abort vm.Rvm.Vm.htm th.ctx;
  let st = t.tle.(th.tid) in
  (* rollback restored th.code/th.pc to the window's starting yield point *)
  if st.first_retry then begin
    st.first_retry <- false;
    Txlen.adjust_transaction_length t.txlen ~code:th.code ~pc:th.pc
  end;
  (* the hybrid scheme's software detour: aborts whose cause the STM can
     absorb (unbounded capacity, persistent conflicts, exhausted hardware
     retries) switch the thread to software windows instead of serialising
     on the GIL *)
  let fallback_to_stm ~cause =
    Obs.Sites.record_fallback t.sites ~target:"stm" ~cause;
    Obs.Metrics.incr t.m_fb_stm;
    t.stm_mode.(th.tid) <- true;
    ignore (stm_begin t th)
  in
  let hybrid = match t.cfg.scheme with Scheme.Hybrid -> true | _ -> false in
  let gil_conflict =
    t.gil.owner <> -1 || t.gil.acquisitions > st.acq_at_begin
  in
  if gil_conflict then begin
    (* conflict at the GIL (lines 21-27) *)
    st.gil_retry_counter <- st.gil_retry_counter - 1;
    if st.gil_retry_counter > 0 then begin
      if t.gil.owner <> -1 then begin
        Gil.enqueue_waiter t.gil th;
        park t th (V.On_mutex (-2));
        t.outside.(th.tid) <- true
      end
      else ignore (transaction_begin t th)
    end
    else gil_fallback t th ~cause:"gil-contention"
  end
  else if reason = Txn.Explicit then gil_fallback t th ~cause:"explicit"
  else if Txn.is_persistent reason then
    if hybrid then fallback_to_stm ~cause:"capacity"
    else gil_fallback t th ~cause:"capacity"
  else if hybrid && reason = Txn.Eager then
    (* the predictor deems this site persistently doomed in hardware *)
    fallback_to_stm ~cause:"persistent"
  else begin
    st.transient_retry_counter <- st.transient_retry_counter - 1;
    if st.transient_retry_counter > 0 then begin
      (* randomized exponential backoff between retries: without it,
         symmetric retries (e.g. two threads refilling the free list) abort
         each other forever under requester-wins conflict resolution *)
      let attempt = transient_retry_max - st.transient_retry_counter in
      th.clock <- th.clock + Prng.int t.prng (256 lsl attempt);
      ignore (transaction_begin t th)
    end
    else if hybrid then fallback_to_stm ~cause:"retry-budget"
    else gil_fallback t th ~cause:"retry-budget"
  end

(* STM abort handling: the software counterpart of [handle_abort]. The
   transaction has already been rolled back; retry with backoff while the
   per-site budget lasts, escape to the GIL otherwise. *)
let handle_stm_abort t (th : V.t) =
  let stm = stm_of t in
  let reason =
    match Stm.pending_abort stm th.ctx with
    | Some r -> r
    | None -> assert false
  in
  Stm.clear_pending_abort stm th.ctx;
  let st = t.tle.(th.tid) in
  if reason = Txn.Explicit then gil_fallback t th ~cause:"explicit"
  else begin
    st.stm_retry_counter <- st.stm_retry_counter - 1;
    if st.stm_retry_counter > 0 then begin
      (* contention manager: bounded randomized exponential backoff *)
      let attempt = max 0 (st.stm_retry_init - st.stm_retry_counter) in
      th.clock <- th.clock + Prng.int t.prng (256 lsl min attempt 6);
      ignore (stm_begin t th)
    end
    else begin
      Stm.Budget.punish t.stm_budget ~uid:st.stm_site_uid ~pc:st.stm_site_pc;
      gil_fallback t th ~cause:"stm-retry-budget"
    end
  end

let gil_release_and_wake t (th : V.t) =
  let waiters = Gil.release t.gil th in
  List.iter (fun w -> wake_gil_waiter t w ~at:th.clock) waiters

(* transaction_end (Figure 2 lines 1-4). Returns false when a deferred
   (lazy) subscription check killed the hardware window at its commit
   point: the registers are rolled back and the pending abort recorded, so
   the caller must not treat the window as closed — the retry policy runs
   on the next scheduling step. Always true under eager subscription
   (hardware commits cannot fail there; aborts arrive as [Abort_now]
   during execution). *)
let transaction_end t (th : V.t) =
  let vm = t.vm in
  if Gil.held_by t.gil th then begin
    gil_release_and_wake t th;
    reset_retries t th;
    true
  end
  else if Htm.in_txn vm.Rvm.Vm.htm th.ctx then begin
    let store = vm.Rvm.Vm.store in
    let lazy_killed =
      match t.cfg.subscription with
      | Subscription.Eager -> false
      | Subscription.Lazy | Subscription.Lazy_safe -> (
          (* the deferred subscription, checked at the commit point. Value
             checks only: a GIL acquire/release cycle (or a software
             commit whose clock value wrapped back — impossible here, the
             clock is monotone) that ran entirely inside this window
             passes them. Under Eager the acquisition itself would have
             killed the window; that gap is the modeled hazard. *)
          if t.gil.owner <> -1 then begin
            Htm.abort_at vm.Rvm.Vm.htm ~ctx:th.ctx
              ~line:(Store.line_of store vm.Rvm.Vm.g_gil)
              Txn.Conflict;
            true
          end
          else
            match t.stm with
            | Some stm
              when Store.get store (Stm.clock_cell stm)
                   <> t.tle.(th.tid).clock_at_begin ->
                Htm.abort_at vm.Rvm.Vm.htm ~ctx:th.ctx
                  ~line:(Store.line_of store (Stm.clock_cell stm))
                  Txn.Conflict;
                true
            | _ -> false)
    in
    if lazy_killed then false
    else begin
      let in_txn_cycles = Int.max 0 (th.clock - th.txn_start_clock) in
      let rs = Htm.txn_rs vm.Rvm.Vm.htm th.ctx
      and ws = Htm.txn_ws vm.Rvm.Vm.htm th.ctx in
      Htm.tend vm.Rvm.Vm.htm ~ctx:th.ctx;
      charge_txn_overhead t th (costs t).cyc_tend;
      th.cyc_committed <- th.cyc_committed + in_txn_cycles;
      t.breakdown.bd_committed <- t.breakdown.bd_committed + in_txn_cycles;
      let st = t.tle.(th.tid) in
      let retries =
        transient_retry_max - st.transient_retry_counter
        + (gil_retry_max - st.gil_retry_counter)
      in
      Obs.Metrics.observe t.m_txn_committed in_txn_cycles;
      Obs.Metrics.observe t.m_txn_rs rs;
      Obs.Metrics.observe t.m_txn_ws ws;
      Obs.Metrics.observe t.m_txn_retries retries;
      if tracing t then
        emit t th
          (Obs.Event.Txn_commit { cycles = in_txn_cycles; rs; ws; retries });
      reset_retries t th;
      true
    end
  end
  else begin
    reset_retries t th;
    true
  end

(* Open the next window in whatever mode the scheme (and, for the hybrid,
   the thread's episode state) dictates. *)
let window_begin t (th : V.t) =
  match t.cfg.scheme with
  | Scheme.Stm_only -> stm_begin t th
  | Scheme.Hybrid when t.stm_mode.(th.tid) -> stm_begin t th
  | _ -> transaction_begin t th

(* Close the current window. A software commit can fail — and so can a
   hardware commit under lazy subscription, at its deferred commit-point
   check. Either way the close returns false with the registers rolled back
   and the pending abort recorded, and the caller must not reopen a window
   (the retry policy runs on the next scheduling step). *)
let window_end t (th : V.t) =
  match t.stm with
  | Some stm when Stm.in_txn stm th.ctx -> stm_commit t th
  | _ -> transaction_end t th

(* Close the final window before a thread retires. Same failure contract as
   [window_end]; the Done handlers revive the thread on a failed close so
   the retry policy re-runs the window to completion. (A held GIL is not a
   window — [on_thread_done] releases it after the retire commits.) *)
let window_close_for_retire t (th : V.t) =
  match t.stm with
  | Some stm when Stm.in_txn stm th.ctx -> stm_commit t th
  | _ ->
      if Htm.in_txn t.vm.Rvm.Vm.htm th.ctx then transaction_end t th
      else true

(* transaction_yield (Figure 2 lines 8-16), called at yield points. *)
let transaction_yield t (th : V.t) =
  let vm = t.vm in
  th.clock <- th.clock + (costs t).cyc_yield_check;
  if not t.cfg.machine.tls_fast then th.clock <- th.clock + (costs t).cyc_tls;
  (* Figure 2 line 9: no yield operation when there is no other live thread *)
  if Rvm.Vm.live_count vm > 1 then begin
    let c = read_yield_counter t th - 1 in
    set_yield_counter t th c;
    if c <= 0 then
      if window_end t th then begin
        ignore (window_begin t th);
        if runnable th then t.skip_yield.(th.tid) <- false
      end
  end

(* ---- the GIL-only scheme ------------------------------------------------ *)

let gil_enter t (th : V.t) =
  if Gil.held_by t.gil th then true
  else if t.gil.owner = -1 then begin
    Gil.take t.gil th;
    t.outside.(th.tid) <- false;
    true
  end
  else begin
    Gil.enqueue_waiter t.gil th;
    park t th (V.On_mutex (-1));
    t.outside.(th.tid) <- true;
    false
  end

(* At a yield point under the pure GIL: release + sched_yield + reacquire
   when the timer tick has passed and someone is waiting (Section 3.2). *)
let gil_yield_point t (th : V.t) =
  th.clock <- th.clock + (costs t).cyc_yield_check;
  if Gil.should_yield t.gil th then begin
    Gil.bump_timer t.gil th;
    th.clock <- th.clock + (costs t).cyc_sched_yield;
    gil_release_and_wake t th;
    (* go to the back of the pack: the woken waiters have earlier clocks *)
    ignore (gil_enter t th)
  end

(* ---- blocking ----------------------------------------------------------- *)

(* A builtin raised [Block]: release the GIL around the blocking operation
   (CRuby semantics), park the thread, and re-execute the instruction on
   wake-up. *)
let on_block t (th : V.t) reason =
  assert (not (Htm.in_txn t.vm.Rvm.Vm.htm th.ctx));
  assert (
    match t.stm with Some s -> not (Stm.in_txn s th.ctx) | None -> true);
  th.clock <- th.clock + (costs t).cyc_blocking_op;
  if Gil.held_by t.gil th then gil_release_and_wake t th;
  t.outside.(th.tid) <- true;
  (match t.cfg.scheme with
  | Scheme.Htm_fixed _ | Scheme.Htm_dynamic | Scheme.Hybrid | Scheme.Stm_only
    ->
      t.resume_gil.(th.tid) <- true
  | Scheme.Gil_only | Scheme.Fine_grained | Scheme.Free_parallel -> ());
  (match reason with
  | V.On_mutex slot -> Queue.add th (queue_for t.mutex_waiters slot)
  | V.On_cond (cv, mx) -> Queue.add (th, mx) (queue_for t.cond_waiters cv)
  | V.On_join tid ->
      Hashtbl.replace t.join_waiters tid
        (th :: Option.value (Hashtbl.find_opt t.join_waiters tid) ~default:[])
  | V.On_sleep at | V.On_io at -> Sched.push t.sleepq ~key:at th
  | V.On_accept _ -> Queue.add th t.accept_waiters);
  park t th reason

(* Wakes requested by unlock/signal/broadcast builtins. *)
let drain_wakes t (th : V.t) =
  let vm = t.vm in
  if vm.Rvm.Vm.pending_wakes == [] then ()
  else begin
  (* the current thread may have just finished and released its context;
     these writes are scheduler-side bookkeeping, any context works *)
  let wctx = if th.ctx >= 0 then th.ctx else 0 in
  let wakes = vm.Rvm.Vm.pending_wakes in
  vm.Rvm.Vm.pending_wakes <- [];
  List.iter
    (fun w ->
      match w with
      | Rvm.Vm.Wake_mutex slot -> (
          match Hashtbl.find_opt t.mutex_waiters slot with
          | Some q when not (Queue.is_empty q) ->
              let w = Queue.pop q in
              (* leaving the wait queue: drop the waiter count *)
              let waiters =
                match Htm.read vm.Rvm.Vm.htm ~ctx:wctx (slot + Rvm.Layout.m_waiters) with
                | Rvm.Value.VInt n -> n
                | _ -> 0
              in
              Htm.write vm.Rvm.Vm.htm ~ctx:wctx (slot + Rvm.Layout.m_waiters)
                (Rvm.Value.vint (max 0 (waiters - 1)));
              wake t w ~at:th.clock
          | _ -> ())
      | Rvm.Vm.Wake_cond_one slot -> (
          match Hashtbl.find_opt t.cond_waiters slot with
          | Some q when not (Queue.is_empty q) ->
              let w, _mx = Queue.pop q in
              w.cond_signaled <- true;
              wake t w ~at:th.clock
          | _ -> ())
      | Rvm.Vm.Wake_cond_all slot -> (
          match Hashtbl.find_opt t.cond_waiters slot with
          | Some q ->
              while not (Queue.is_empty q) do
                let w, _mx = Queue.pop q in
                w.cond_signaled <- true;
                wake t w ~at:th.clock
              done
          | None -> ()))
    wakes
  end

(* ---- thread lifecycle --------------------------------------------------- *)

let assign_ctx t (th : V.t) =
  ensure_tid t th.tid;
  t.outside.(th.tid) <- true;
  t.resume_gil.(th.tid) <- false;
  t.skip_yield.(th.tid) <- false;
  t.stm_mode.(th.tid) <- false;
  t.tle.(th.tid) <- fresh_tle ();
  t.hw_rollback.(th.tid) <- rollback_hook t th;
  t.sw_rollback.(th.tid) <- stm_rollback_hook t th;
  if grant_ctx t th then begin
    th.status <- V.Runnable;
    sched_sync t th;
    true
  end
  else false

let drain_spawned t =
  let vm = t.vm in
  if vm.Rvm.Vm.spawned == [] then ()
  else begin
    let spawned = List.rev vm.Rvm.Vm.spawned in
    vm.Rvm.Vm.spawned <- [];
    List.iter (fun th -> ignore (assign_ctx t th)) spawned
  end

let on_thread_done t (th : V.t) =
  Sched.remove t.sched th.tid;
  (* any hardware/software window was already closed (and its close
     confirmed) by [window_close_for_retire]; only a held GIL remains *)
  if Gil.held_by t.gil th then ignore (transaction_end t th);
  let vm = t.vm in
  let live =
    match Htm.read vm.Rvm.Vm.htm ~ctx:th.ctx vm.Rvm.Vm.g_live with
    | Rvm.Value.VInt n -> n
    | _ -> 1
  in
  Htm.write vm.Rvm.Vm.htm ~ctx:th.ctx vm.Rvm.Vm.g_live (Rvm.Value.vint (live - 1));
  (* wake joiners *)
  (match Hashtbl.find_opt t.join_waiters th.tid with
  | Some ws ->
      Hashtbl.remove t.join_waiters th.tid;
      List.iter (fun w -> wake t w ~at:th.clock) ws
  | None -> ());
  (* free the hardware context *)
  release_ctx t th

(* ---- time advance when everyone is blocked ------------------------------ *)

(* Drain the acceptor queue, waking everyone at [at]. *)
let wake_acceptors t ~at =
  while not (Queue.is_empty t.accept_waiters) do
    wake t (Queue.pop t.accept_waiters) ~at
  done

(* Advance virtual time to the next sleeper deadline or arrival, waking the
   due threads — but never past [until]: an event beyond the horizon (or an
   open feed that may yet supply one) answers [false] so {!advance} can
   pause instead. With [until = max_int] and no event at all this is a
   deadlock, like the old unconditional raise. *)
let advance_time t ~until =
  let vm = t.vm in
  (* earliest sleeper / io wake: the sleeper queue is sorted, so the
     earliest deadline is its root instead of an O(n) fold *)
  let sleeper = Sched.min_key t.sleepq in
  let arrival =
    match t.io with
    | Some io when not (Queue.is_empty t.accept_waiters) -> (
        match Netsim.next_arrival io with Some a -> a | None -> max_int)
    | _ -> max_int
  in
  let target = min sleeper arrival in
  if target = max_int then begin
    (* a fed arrival stream that is still open can deliver future work, so
       a bounded advance pauses at the horizon instead of deadlocking *)
    let feed_open =
      match t.io with Some io -> Netsim.feed_may_grow io | None -> false
    in
    if feed_open && until < max_int then false
    else
      raise
        (Stuck
           (Printf.sprintf "deadlock: no runnable threads (live=%d)"
              (Rvm.Vm.live_count vm)))
  end
  else if target > until then false
  else begin
    (* wake sleepers due, each at its own deadline ([target < max_int],
       so the empty heap's [max_int] key ends the loop) *)
    while Sched.min_key t.sleepq <= target do
      let at = Sched.min_key t.sleepq in
      wake t (Sched.take_min t.sleepq) ~at
    done;
    (* deliver connections *)
    (match t.io with
    | Some io when arrival <= target ->
        ignore (Netsim.advance io ~now:target);
        Obs.Metrics.gauge_max t.g_accept_queue_peak (Netsim.queue_depth io);
        wake_acceptors t ~at:target
    | _ -> ());
    true
  end

(* ---- the main loop ------------------------------------------------------ *)

(* The retained reference scheduler: a linear scan for the
   (clock, tid)-minimal runnable thread, the executable specification the
   heap scheduler is differentially tested against. *)
let pick_runnable_ref t =
  let best = ref None in
  List.iter
    (fun (th : V.t) ->
      if runnable th && th.ctx >= 0 then
        match !best with
        | None -> best := Some th
        | Some b ->
            if
              th.clock < b.V.clock
              || (th.clock = b.V.clock && th.tid > b.V.tid)
            then best := Some th)
    t.vm.Rvm.Vm.threads;
  !best

let[@inline] stm_pending t (th : V.t) =
  match t.stm with
  | Some s -> (
      match Stm.pending_abort s th.ctx with None -> false | Some _ -> true)
  | None -> false

(* Stages 1-2 of the step protocol: note the context switch, run the retry
   policy for an outstanding abort, and enter a window if outside one. The
   caller goes on to stage 3 only if the thread is still runnable. *)
let[@inline] step_prologue t (th : V.t) =
  let scheme = t.cfg.scheme in
  if th.tid <> t.last_tid then begin
    if t.last_tid >= 0 && tracing t then
      emit t th (Obs.Event.Ctx_switch { prev_tid = t.last_tid });
    t.last_tid <- th.tid
  end;
  (* 1. outstanding abort to handle? *)
  if Scheme.uses_htm scheme && htm_pending t.vm.Rvm.Vm.htm th.ctx then
    handle_abort t th
  else if Scheme.uses_stm scheme && stm_pending t th then handle_stm_abort t th;
  (* 2. enter a window if outside one *)
  if runnable th && t.outside.(th.tid) then
    match scheme with
    | Scheme.Gil_only -> ignore (gil_enter t th)
    | Scheme.Htm_fixed _ | Scheme.Htm_dynamic | Scheme.Hybrid | Scheme.Stm_only
      ->
        if t.resume_gil.(th.tid) then begin
          (* back from a blocking region: reacquire the GIL and finish the
             current window on the fallback path *)
          if gil_enter t th then begin
            t.resume_gil.(th.tid) <- false;
            t.skip_yield.(th.tid) <- true
          end
        end
        else ignore (window_begin t th)
    | Scheme.Fine_grained | Scheme.Free_parallel -> t.outside.(th.tid) <- false

(* Execute one scheduling step for [th]: at most one instruction. The
   yield decision and the charged base cost come from the instruction at
   the pre-yield pc, even when a failed software commit inside
   [transaction_yield] rolled the registers back to an older pc; so the
   cost class is latched before stage 3, and [Rvm.Interp.step] then runs
   whatever instruction the registers name. Inlined, as are
   [step_prologue] and [Rvm.Vm.dcode]: all three run once per
   instruction. *)
let[@inline] step_thread t (th : V.t) =
  let vm = t.vm in
  step_prologue t th;
  if runnable th then begin
    let d = Rvm.Vm.dcode vm th.code in
    let pc = th.pc in
    let cost_class = Array.unsafe_get d.Rvm.Compiler.Dcode.cost pc in
    (* 3. yield point *)
    (match t.cfg.scheme with
    | Scheme.Gil_only ->
        if Bytes.unsafe_get d.yield_orig pc = '\001' then gil_yield_point t th
    | Scheme.Htm_fixed _ | Scheme.Htm_dynamic | Scheme.Hybrid
    | Scheme.Stm_only -> (
        if t.skip_yield.(th.tid) then t.skip_yield.(th.tid) <- false
        else if
          Bytes.unsafe_get
            (match t.cfg.yield_points with
            | Yield_points.Original -> d.yield_orig
            | Yield_points.Extended -> d.yield_ext)
            pc
          = '\001'
        then
          (* a software window's yield-counter read can fail validation:
             the rollback has already run, so just stop this step and let
             the retry policy pick the thread up again *)
          try transaction_yield t th with Htm.Abort_now _ -> ())
    | Scheme.Fine_grained | Scheme.Free_parallel -> ());
    if runnable th then begin
      (* 4. execute one instruction *)
      let pre_fp = th.fp and pre_sp = th.sp and pre_pc = th.pc and pre_code = th.code in
      let in_txn_before =
        Htm.in_txn vm.Rvm.Vm.htm th.ctx
        || (match t.stm with
           | Some s -> Stm.in_txn s th.ctx
           | None -> false)
      in
      (try
         let r = Rvm.Interp.step vm th in
         let extra = Htm.step_extra_cycles vm.Rvm.Vm.htm
         and accesses = Htm.step_accesses vm.Rvm.Vm.htm in
         Htm.reset_step_cost vm.Rvm.Vm.htm;
         let cost =
           Array.unsafe_get t.cost_tbl cost_class
           + (accesses * (costs t).cyc_mem)
           + extra
         in
         th.clock <- th.clock + cost;
         th.work <- th.work + 1;
         if Gil.held_by t.gil th then begin
           th.cyc_gil_held <- th.cyc_gil_held + cost;
           t.breakdown.bd_gil_held <- t.breakdown.bd_gil_held + cost
         end
         else if not in_txn_before then
           t.breakdown.bd_other <- t.breakdown.bd_other + cost;
         t.total_insns <- t.total_insns + 1;
         match r with
         | Rvm.Interp.Continue -> ()
         | Rvm.Interp.Done _ ->
             (* the window must close before the thread can retire — a
                software commit, or under lazy subscription a hardware
                commit-point check, can fail: the registers are rolled
                back and the thread re-runs the window (reaching Done
                again) *)
             let closed = window_close_for_retire t th in
             if closed then on_thread_done t th
             else
               (* [leave_from] already marked the thread finished, but
                  the rollback rewound it to the window start: revive it
                  so the retry policy re-runs the window to completion *)
               th.status <- V.Runnable
       with
      | Htm.Abort_now _ ->
          (* engine rolled back and the rollback hook restored registers;
             retry policy runs on the next scheduling step *)
          Htm.reset_step_cost vm.Rvm.Vm.htm
      | V.Block reason ->
          Htm.reset_step_cost vm.Rvm.Vm.htm;
          th.fp <- pre_fp;
          th.sp <- pre_sp;
          th.pc <- pre_pc;
          th.code <- pre_code;
          on_block t th reason);
      drain_wakes t th;
      drain_spawned t
    end
  end

(* Deliver connections that are due so blocked acceptors wake even while
   other threads keep the cores busy. Runs before every instruction. *)
let deliver_io t (th : V.t) =
  match t.io with
  | Some io when not (Queue.is_empty t.accept_waiters) -> (
      match Netsim.next_arrival io with
      | Some at when at <= th.V.clock ->
          ignore (Netsim.advance io ~now:th.V.clock);
          Obs.Metrics.gauge_max t.g_accept_queue_peak (Netsim.queue_depth io);
          wake_acceptors t ~at:th.V.clock
      | _ -> ())
  | _ -> ()

(* A slice: [th] was taken out of the heap as the scheduler's pick; step it
   until its key passes the heap's smallest (a newly-woken or spawned
   thread included — every transition re-syncs the heap mid-step), it
   stops being runnable, or a global stop condition trips. Under
   [Sched_heap] that run-ahead is equivalent to re-picking before every
   instruction, without the scan; [Sched_ref] does re-pick, so its slices
   are one step long. *)
let run_slice t ~stop (main : V.t) (th : V.t) =
  t.running_tid <- th.tid;
  Obs.Metrics.gauge_max t.g_runnable_peak (Sched.size t.sched + 1);
  let one_step = match t.cfg.sched with Sched_ref -> true | Sched_heap -> false in
  let slice = ref 0 in
  let continue_ = ref true in
  while !continue_ do
    deliver_io t th;
    step_thread t th;
    incr slice;
    if
      one_step
      || finished main
      || (not (runnable th))
      || th.ctx < 0
      || t.total_insns >= t.cfg.max_insns
      || th.clock > t.horizon
      || stop ()
      (* run ahead while this thread is still the scheduler's choice *)
      || Sched.preempts t.sched ~key:th.clock ~tid:th.tid
    then continue_ := false
  done;
  t.running_tid <- -1;
  sched_sync t th;
  Obs.Metrics.observe t.m_slice_insns !slice

exception Idle

(* The scheduler's pick, taken out of the heap for its slice: the heap
   root, or [pick_runnable_ref]'s linear scan under [Sched_ref].
   @raise Idle when no thread can run. *)
let pick t =
  match t.cfg.sched with
  | Sched_heap ->
      if Sched.is_empty t.sched then raise_notrace Idle else Sched.take_min t.sched
  | Sched_ref -> (
      match pick_runnable_ref t with
      | Some th ->
          Sched.remove t.sched th.tid;
          th
      | None -> raise_notrace Idle)

type thread_lines = {
  tl_tid : int;
  tl_struct_lo : int;
  tl_struct_hi : int;
  tl_stack_lo : int;
  tl_stack_hi : int;
}

(* Name the shared regions of Section 4.4 / 5.5 by cache line. The VM is
   walked once, when a result is snapshotted (threads and arenas appear as
   the run goes), and the names are kept as plain line numbers: a resolver
   that walked the live VM would keep its HTM line tables, heap and thread
   list alive for as long as any kept result does. First match wins, in the
   order below; threads newest first. *)
let line_resolver t =
  let vm = t.vm in
  let lof a = Store.line_of vm.Rvm.Vm.store a in
  let heap = vm.Rvm.Vm.heap in
  let named =
    [ (vm.Rvm.Vm.g_gil, "GIL word"); (vm.Rvm.Vm.g_gil_owner, "GIL owner word") ]
    @ (match t.stm with
      | Some s ->
          [
            (Stm.clock_cell s, "stm.clock (commit-clock cell)");
            (Stm.bumps_cell s, "stm.clock bumps stat cell");
            (Stm.skipped_cell s, "stm.clock skipped stat cell");
          ]
      | None -> [])
    @ [
        (vm.Rvm.Vm.g_current_thread, "current-thread global");
        (vm.Rvm.Vm.g_live, "live-thread count");
        (heap.Rvm.Heap.g_free_head, "global free-list head");
        (heap.Rvm.Heap.g_free_count, "global free-list count");
        (heap.Rvm.Heap.g_malloc_ptr, "global malloc bump pointer");
        (heap.Rvm.Heap.g_malloc_end, "global malloc end pointer");
        (heap.Rvm.Heap.lazy_cursor, "lazy-sweep cursor");
      ]
    |> List.map (fun (a, name) -> (lof a, name))
  in
  let caches_lo, caches_hi =
    if vm.Rvm.Vm.n_caches > 0 then
      ( lof vm.Rvm.Vm.cache_base,
        lof (vm.Rvm.Vm.cache_base + (2 * vm.Rvm.Vm.n_caches) - 1) )
    else (1, 0)
  in
  let threads =
    List.map
      (fun (th : V.t) ->
        {
          tl_tid = th.tid;
          tl_struct_lo = lof th.struct_base;
          tl_struct_hi = lof (th.struct_base + V.struct_cells - 1);
          tl_stack_lo = lof th.stack_base;
          tl_stack_hi = lof (th.stack_limit - 1);
        })
      vm.Rvm.Vm.threads
  in
  fun line ->
    match List.assoc_opt line named with
    | Some _ as name -> name
    | None ->
        if line >= caches_lo && line <= caches_hi then
          Some "inline method caches"
        else
          List.find_map
            (fun th ->
              if line >= th.tl_struct_lo && line <= th.tl_struct_hi then
                Some (Printf.sprintf "thread struct (tid %d)" th.tl_tid)
              else if line >= th.tl_stack_lo && line <= th.tl_stack_hi then
                Some (Printf.sprintf "thread stack (tid %d)" th.tl_tid)
              else None)
            threads

(* The result record is a pure read of the runner's current state, so a
   horizon-bounded [advance] can build it exactly when [run] would have. *)
let snapshot t =
  let vm = t.vm in
  let main = t.session.Rvm.Session.main in
  let wall =
    List.fold_left (fun acc (th : V.t) -> max acc th.clock) 0 vm.Rvm.Vm.threads
  in
  (* fold netsim's exact high-watermarks into the gauges (sampling in
     [deliver_io] sees the queue only at delivery points) *)
  (match t.io with
  | Some io ->
      Obs.Metrics.gauge_max t.g_accept_queue_peak (Netsim.queue_peak io);
      Obs.Metrics.gauge_max t.g_in_flight_peak (Netsim.in_flight_peak io)
  | None -> ());
  (* mirror the clock scheme's counters into the registry (idempotent
     sets, so repeated snapshots of a paused runner stay correct) *)
  (match t.stm with
  | Some stm ->
      let c = Stm.clock stm in
      t.m_clock_bumps.Obs.Metrics.count <- Tm_clock.bumps c;
      t.m_clock_skipped.Obs.Metrics.count <- Tm_clock.skipped c;
      t.m_clock_switches.Obs.Metrics.count <- Tm_clock.switches c
  | None -> ());
  let at_one, mean_len = Txlen.stats t.txlen in
  Obs.Sites.set_line_resolver t.sites (line_resolver t);
  {
    wall_cycles = wall;
    total_insns = t.total_insns;
    output = Rvm.Vm.output vm;
    main_value = main.V.result;
    htm_stats = Htm.stats vm.Rvm.Vm.htm;
    stm_stats =
      (match t.stm with Some s -> Stm.stats s | None -> Stm.stats_create ());
    breakdown = t.breakdown;
    gil_acquisitions = t.gil.acquisitions;
    gc_runs = vm.Rvm.Vm.heap.Rvm.Heap.gc_runs;
    allocs = vm.Rvm.Vm.heap.Rvm.Heap.allocs;
    txlen_at_one = at_one;
    txlen_mean = mean_len;
    requests_completed = (match t.io with Some io -> Netsim.completed io | None -> 0);
    request_throughput = (match t.io with Some io -> Netsim.throughput io | None -> 0.0);
    metrics = vm.Rvm.Vm.metrics;
    abort_sites = t.sites;
    trace = t.tracer;
  }

(* Run events up to the virtual-time horizon [until]: every step whose
   start clock is <= [until] executes (a step is atomic, so the clock may
   overshoot by one step's cost — callers that compare state across shards
   at a horizon must read virtual-time-stamped accessors, not raw
   counters). Pausing and resuming never changes the executed instruction
   sequence — every step goes to the runnable thread with the smallest
   clock, ties to the larger tid — so a horizon-stepped run is
   bit-identical to an unbounded one. *)
let advance ?(stop = fun () -> false) t ~until =
  (* several sessions may interleave on this domain (N shards on one
     worker): make this session's interning/uid state the active one *)
  Rvm.Session.activate t.session;
  t.horizon <- until;
  drain_spawned t;
  let vm = t.vm in
  let main = t.session.Rvm.Session.main in
  let paused = ref false in
  let continue_run = ref true in
  (try
     while !continue_run do
       if finished main || stop () || t.total_insns >= t.cfg.max_insns then
         continue_run := false
       else
         match pick t with
         | th when th.V.clock > until ->
             (* runnable, but its next step starts beyond the horizon: put
                it back and pause *)
             Sched.push t.sched ~key:th.V.clock th;
             paused := true;
             continue_run := false
         | th -> run_slice t ~stop main th
         | exception Idle ->
             if not (advance_time t ~until) then begin
               paused := true;
               continue_run := false
             end
     done
   with Rvm.Value.Guest_error msg ->
     raise (Guest_failure (msg ^ "\n--- guest output ---\n" ^ Rvm.Vm.output vm)));
  if !paused then `Paused
  else begin
    if t.total_insns >= t.cfg.max_insns then
      raise
        (Stuck (Printf.sprintf "instruction budget exhausted (%d)" t.total_insns));
    `Done (snapshot t)
  end

let run ?(stop = fun () -> false) t =
  match advance ~stop t ~until:max_int with
  | `Done r -> r
  | `Paused ->
      (* unreachable: with an unbounded horizon nothing pauses *)
      assert false

(* Convenience one-shot entry point. *)
let run_source ?io ?stop ?setup cfg ~source =
  let t = create ?io cfg ~source in
  (match setup with Some f -> f t.vm | None -> ());
  run ?stop t
