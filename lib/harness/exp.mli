(** Running one experiment point: a (workload, machine, scheme, threads,
    size) tuple, returning normalised metrics. A point is the one
    description of a run: {!boot} is the one place in the harness where it
    becomes a {!Core.Runner.t}, for a single VM and for every shard of
    {!Shard.run} alike. *)

type point = private {
  workload : Workloads.Workload.t;
  machine : Htm_sim.Machine.t;  (** as in [cfg], which is abstract *)
  scheme : Core.Scheme.kind;  (** as in [cfg], which is abstract *)
  threads : int;  (** worker threads, or concurrent clients for servers *)
  size : Workloads.Size.t;
  arrivals : Netsim.arrivals;
      (** [Closed] (default) = the paper's closed loop; [Poisson]/[Burst]
          = open-loop offered load (server workloads only) *)
  mix : Netsim.mix;
      (** weighted request classes for open-loop server runs; [[]]
          (default) keeps the workload's single default request *)
  cfg : Core.Runner.config;
      (** every run-level knob: scheme, machine, yield points, options,
          commit clock, subscription and tracer *)
}

val point :
  ?yield_points:Core.Yield_points.set ->
  ?opts:Rvm.Options.t ->
  ?clock:Tm_clock.scheme ->
  ?subscription:Htm_sim.Subscription.t ->
  ?tracer:Obs.Trace.t ->
  ?arrivals:Netsim.arrivals ->
  ?mix:Netsim.mix ->
  workload:Workloads.Workload.t ->
  machine:Htm_sim.Machine.t ->
  scheme:Core.Scheme.kind ->
  threads:int ->
  size:Workloads.Size.t ->
  unit ->
  point
(** The knobs go to {!Core.Runner.config} unchanged, defaults included;
    [tracer] receives the run's txn / GIL / GC / scheduler events. *)

val boot : point -> io:Netsim.t option -> Core.Runner.t
(** Create the point's runner over [io] (a server workload's socket) and
    run the workload's [setup] on its VM. *)

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

val run : point -> outcome
(** Boot the point (over a closed-loop or open-loop socket for server
    workloads), run it to completion and release its VM. *)

val verify_line : outcome -> string option

val load_json : load -> Obs.Json.t
(** The request-latency summary as JSON, fields in declaration order: the
    CLI's [--latency-json] document and, behind a scheme name, each point
    of the results file's [load] member. *)

val breakdown_json : Core.Runner.breakdown -> Obs.Json.t
(** The cycle breakdown as JSON, shared by [--metrics-json] and the
    results file. *)
