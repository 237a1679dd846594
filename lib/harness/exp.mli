(** Running one experiment point: a (workload, machine, scheme, threads,
    size) tuple, returning normalised metrics. *)

type point = {
  workload : Workloads.Workload.t;
  machine : Htm_sim.Machine.t;
  scheme : Core.Scheme.kind;
  threads : int;
  size : Workloads.Size.t;
  yield_points : Core.Yield_points.set;
  opts : Rvm.Options.t;
  arrivals : Netsim.arrivals;
      (** [Closed] (default) = the paper's closed loop; [Poisson]/[Burst]
          = open-loop offered load (server workloads only) *)
  mix : Netsim.mix;
      (** weighted request classes for open-loop server runs; [[]]
          (default) keeps the workload's single default request *)
  clock : Tm_clock.scheme;
      (** commit-clock scheme for the STM fallback; defaults to
          [Tm_clock.Gv1] *)
  subscription : Htm_sim.Subscription.t;
      (** hardware-window subscription policy; defaults to
          [Subscription.Eager] *)
}

val point :
  ?yield_points:Core.Yield_points.set ->
  ?opts:Rvm.Options.t ->
  ?arrivals:Netsim.arrivals ->
  ?mix:Netsim.mix ->
  ?clock:Tm_clock.scheme ->
  ?subscription:Htm_sim.Subscription.t ->
  workload:Workloads.Workload.t ->
  machine:Htm_sim.Machine.t ->
  scheme:Core.Scheme.kind ->
  threads:int ->
  size:Workloads.Size.t ->
  unit ->
  point

(** The request-latency summary of one server run: offered vs achieved
    load, the loss accounting, and latency quantiles estimated from the
    runner's log-linear [req.latency_cycles] histogram (each within one
    sub-bucket, i.e. ~6%, of exact). *)
type load = {
  offered_rps : float;  (** configured open-loop rate; 0 for closed loop *)
  achieved_rps : float;
  completed : int;
  dropped : int;  (** refused at the bounded accept queue *)
  timed_out : int;  (** expired in the queue un-accepted *)
  churned : int;  (** keep-alive client identities recycled *)
  p50_cycles : int;
  p95_cycles : int;
  p99_cycles : int;
  mean_cycles : float;
  queue_peak : int;
  in_flight_peak : int;
}

type outcome = {
  p : point;
  wall_cycles : int;
  throughput : float;  (** work units per virtual second *)
  abort_ratio : float;
  result : Core.Runner.result;
  output : string;
  load : load option;  (** [Some] exactly for server runs *)
}

val run : ?tracer:Obs.Trace.t -> point -> outcome
(** [tracer] is threaded into the runner config: the run's txn / GIL / GC /
    scheduler events land in it (see {!Core.Runner.config}). *)

val verify_line : outcome -> string option
