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
      (** per-instruction linear scan: the executable specification of the
          pick rule, which the test suite runs differentially against
          [Sched_heap] *)

type config

val config :
  ?scheme:Scheme.kind ->
  ?yield_points:Yield_points.set ->
  ?opts:Rvm.Options.t ->
  ?max_insns:int ->
  ?tracer:Obs.Trace.t ->
  ?sched:sched_kind ->
  ?clock:Tm_clock.scheme ->
  ?subscription:Htm_sim.Subscription.t ->
  Htm_sim.Machine.t ->
  config
(** A run's inputs. [scheme] defaults to [Htm_dynamic], [yield_points] to
    [Extended], [max_insns] (the safety stop) to 400M and [sched] to
    [Sched_heap]; the transaction-length parameters are the machine's.
    [tracer] is the event-trace sink shared by the runner, the GIL and the
    heap; without one every instrumentation site stays at one branch.
    [clock] is the global commit-clock scheme the STM publishes under
    ([Tm_clock.Gv1]; irrelevant for schemes without a software fallback).
    [subscription] is how hardware windows subscribe to the GIL word and
    the commit-clock cell ([Subscription.Eager]): [Lazy] defers both reads
    to the window's commit point, reproducing the unsafety Alistarh et al.
    describe; [Lazy_safe] additionally aborts all hardware windows when GC
    starts (Dice et al.'s hardware fix: choosing it states that the
    machine has it). *)

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

type state
(** Scheduling, lock-elision and accounting state: internal to the runner. *)

type t = private { vm : Rvm.Vm.t; st : state }
(** A record rather than an abstract type only because the benchmark ledger
    (bench/ledger/) reads [t.vm], and that directory changes only together
    with the benchmark. *)

val create : ?io:Netsim.t -> config -> source:string -> t
(** Compile the program and boot the VM; call [setup]-style extension
    installers on [vm] before {!run} if the workload needs them. *)

val stm : t -> Rvm.Value.t Stm.t option
(** The software fallback engine; [Some] exactly for schemes with
    [Scheme.uses_stm]. *)

val run : ?stop:(unit -> bool) -> t -> result
(** Run until the guest main thread finishes, [stop ()] turns true, or the
    instruction budget trips. Activates the session's interning/uid context
    on entry, so a runner created on one domain may run on another.
    @raise Stuck, @raise Guest_failure. *)

val run_source :
  ?io:Netsim.t ->
  ?stop:(unit -> bool) ->
  ?setup:(Rvm.Vm.t -> unit) ->
  config ->
  source:string ->
  result
(** One-shot convenience wrapper. *)
