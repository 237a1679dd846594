(** The discrete-event multicore runner: it schedules guest threads over
    hardware contexts (smallest virtual clock first, one bytecode at a
    time), drives the yield-point protocol of the chosen scheme (the GIL's
    timer yields, or Figures 1-3 transactional lock elision), and accounts
    the cycle breakdowns of Figure 8.

    Contexts belong to threads only while they can run: parking releases
    the context, waking re-acquires one, so the simulated machine behaves
    like an OS scheduler when there are more guest threads than cores. *)

type sched_kind =
  | Sched_heap
      (** indexed min-heap with run-ahead slices: O(1) scheduling work per
          instruction (the default) *)
  | Sched_ref
      (** per-instruction linear scan, retained as the executable
          specification the heap scheduler is differentially tested against *)

val default_sched_kind : unit -> sched_kind
(** [BENCH_SCHED], case-insensitive: unset, blank or ["heap"] gives
    [Sched_heap]; ["ref"] or ["scan"] gives [Sched_ref].
    @raise Invalid_argument on any other value. *)

type config = {
  machine : Htm_sim.Machine.t;
  scheme : Scheme.kind;
  yield_points : Yield_points.set;
  opts : Rvm.Options.t;
  txlen_params : Txlen.params option;
  max_insns : int;
  tracer : Obs.Trace.t option;
      (** event-trace sink shared by the runner, the GIL and the heap; [None]
          (the default) keeps every instrumentation site at one branch *)
  sched : sched_kind;
  clock : Tm_clock.scheme;
      (** global commit-clock scheme the STM publishes under; defaults to
          [Tm_clock.Gv1]. Irrelevant for schemes without a software
          fallback. *)
  subscription : Htm_sim.Subscription.t;
      (** how hardware windows subscribe to the GIL word and the STM
          commit-clock cell; defaults to [Subscription.Eager]. [Lazy]
          defers both reads to the window's commit point, reproducing the
          unsafety Alistarh et al. describe; [Lazy_safe] additionally
          aborts all hardware windows when GC starts and requires
          [Machine.lazy_sub_safe = true] ({!create} rejects it
          otherwise). *)
}

val config :
  ?scheme:Scheme.kind ->
  ?yield_points:Yield_points.set ->
  ?opts:Rvm.Options.t ->
  ?txlen_params:Txlen.params ->
  ?max_insns:int ->
  ?tracer:Obs.Trace.t ->
  ?sched:sched_kind ->
  ?clock:Tm_clock.scheme ->
  ?subscription:Htm_sim.Subscription.t ->
  Htm_sim.Machine.t ->
  config

type breakdown = {
  mutable bd_txn_overhead : int;  (** TBEGIN/TEND instructions *)
  mutable bd_committed : int;  (** cycles in committed transactions *)
  mutable bd_aborted : int;  (** cycles wasted in aborted transactions *)
  mutable bd_gil_held : int;
  mutable bd_gil_wait : int;
  mutable bd_other : int;
}

type result = {
  wall_cycles : int;  (** max virtual clock over all threads *)
  total_insns : int;
  output : string;
  main_value : Rvm.Value.t;
  htm_stats : Htm_sim.Stats.t;
  stm_stats : Stm.stats;  (** all-zero unless the scheme uses the STM *)
  breakdown : breakdown;
  gil_acquisitions : int;
  gc_runs : int;
  allocs : int;
  txlen_at_one : float;
  txlen_mean : float;
  requests_completed : int;
  request_throughput : float;
  metrics : Obs.Metrics.t;
      (** the VM's registry: interpreter counters, GC pause / txn / GIL-wait
          histograms added by the runner *)
  abort_sites : Obs.Sites.t;  (** abort-site attribution for this run *)
  trace : Obs.Trace.t option;  (** the sink passed in the config, if any *)
}

exception Stuck of string
(** Deadlock or instruction-budget exhaustion. *)

exception Guest_failure of string
(** A guest-level error, with the guest's output appended. *)

type t = {
  cfg : config;
  vm : Rvm.Vm.t;
  gil : Gil.t;
  stm : Rvm.Value.t Stm.t option;
      (** the software fallback engine; [Some] exactly for schemes with
          [Scheme.uses_stm] *)
  stm_budget : Stm.Budget.t;
  txlen : Txlen.t;
  session : Rvm.Session.t;
  io : Netsim.t option;
  sched : Sched.t;  (** runnable-with-context threads, keyed by clock *)
  mutable running_tid : int;
      (** thread currently holding a run-ahead slice, [-1] between slices *)
  mutable free_ctx : int list;
  ctx_waiters : Rvm.Vmthread.t Queue.t;
  mutable ctx_queued : bool array;
  mutable outside : bool array;
  mutable resume_gil : bool array;
  mutable skip_yield : bool array;
  mutable stm_mode : bool array;
      (** (Hybrid) this thread's next windows run as software transactions *)
  mutable tle : tle_state array;
  mutable hw_rollback : (Htm_sim.Txn.abort_reason -> unit) array;
  mutable sw_rollback : (Htm_sim.Txn.abort_reason -> unit) array;
      (** per tid: rollback closures built once per thread *)
  mutable park_clock : int array;
  cost_tbl : int array;
      (** base cycles per [Rvm.Compiler.Dcode] cost class on this machine
          ([Rvm.Compiler.cost_table]) *)
  mutex_waiters : (int, Rvm.Vmthread.t Queue.t) Hashtbl.t;
  cond_waiters : (int, (Rvm.Vmthread.t * int) Queue.t) Hashtbl.t;
  join_waiters : (int, Rvm.Vmthread.t list) Hashtbl.t;
  sleepq : Sched.t;  (** sleeping / io-waiting threads, keyed by wake cycle *)
  accept_waiters : Rvm.Vmthread.t Queue.t;
  mutable total_insns : int;
  prng : Htm_sim.Prng.t;
  breakdown : breakdown;
  mutable horizon : int;
      (** virtual-time horizon for {!advance}: no step whose start clock
          exceeds it begins; [max_int] for a plain {!run} *)
  tracer : Obs.Trace.t option;
  sites : Obs.Sites.t;
  mutable last_tid : int;
  m_txn_committed : Obs.Metrics.histogram;
  m_txn_aborted : Obs.Metrics.histogram;
  m_txn_retries : Obs.Metrics.histogram;
  m_txn_rs : Obs.Metrics.histogram;
  m_txn_ws : Obs.Metrics.histogram;
  m_gil_wait : Obs.Metrics.histogram;
  m_stm_committed : Obs.Metrics.histogram;
      (** cycles per committed software transaction *)
  m_fb_gil : Obs.Metrics.counter;  (** windows that fell back to the GIL *)
  m_fb_stm : Obs.Metrics.counter;  (** windows that fell back to the STM *)
  m_kill_gil : Obs.Metrics.counter;
      (** hardware aborts attributed to the GIL word's line *)
  m_kill_clock : Obs.Metrics.counter;
      (** hardware aborts attributed to the STM commit-clock cell's line *)
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
      (** high-watermark of the netsim accept-queue depth (a gauge:
          merges as the maximum) *)
  g_in_flight_peak : Obs.Metrics.gauge;
      (** high-watermark of accepted-but-unfinished requests *)
}

and tle_state = {
  mutable transient_retry_counter : int;  (** TRANSIENT_RETRY_MAX = 3 *)
  mutable gil_retry_counter : int;  (** GIL_RETRY_MAX = 16 *)
  mutable first_retry : bool;
  mutable acq_at_begin : int;
  mutable stm_retry_counter : int;
      (** software retries left for the current window; -1 = none open *)
  mutable stm_retry_init : int;
  mutable stm_site_uid : int;  (** the site the software window opened at *)
  mutable stm_site_pc : int;
  mutable clock_at_begin : Rvm.Value.t;
      (** (lazy subscription) commit-clock cell value at window begin,
          re-checked at the commit point *)
}

val create : ?io:Netsim.t -> config -> source:string -> t
(** Compile the program and boot the VM; call [setup]-style extension
    installers on [vm] before {!run} if the workload needs them. *)

val run : ?stop:(unit -> bool) -> t -> result
(** Run until the guest main thread finishes, [stop ()] turns true, or the
    instruction budget trips. @raise Stuck, @raise Guest_failure. *)

val advance : ?stop:(unit -> bool) -> t -> until:int -> [ `Done of result | `Paused ]
(** Horizon-bounded {!run}: execute every step whose start clock is
    [<= until], then answer [`Paused] (the clock may overshoot by one
    step's cost — compare shard state at a horizon through virtual-time
    stamps, never raw counters). Activates the session's interning/uid
    context on entry, so N paused runners can interleave on one domain and
    resume on any other. Pausing and resuming never changes the executed
    instruction sequence. [`Done] carries the same result {!run} would
    return; a runner whose netsim feed is still open ({!Netsim.feed} mode)
    pauses when idle instead of raising [Stuck], since the balancer may
    push more arrivals. [run t] = [advance t ~until:max_int]. *)

val snapshot : t -> result
(** The result record as of now (a pure read of runner state). *)

val run_source :
  ?io:Netsim.t ->
  ?stop:(unit -> bool) ->
  ?setup:(Rvm.Vm.t -> unit) ->
  config ->
  source:string ->
  result
(** One-shot convenience wrapper. *)
