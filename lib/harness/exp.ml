(* Running one experiment point: a (workload, machine, scheme, threads,
   size) tuple, returning normalised metrics. *)

open Htm_sim

type point = {
  workload : Workloads.Workload.t;
  machine : Machine.t;
  scheme : Core.Scheme.kind;
  threads : int;  (** worker threads, or concurrent clients for servers *)
  size : Workloads.Size.t;
  yield_points : Core.Yield_points.set;
  opts : Rvm.Options.t;
  arrivals : Netsim.arrivals;
      (** [Closed] (default) = the paper's closed loop; [Poisson]/[Burst]
          = open-loop offered load for server workloads *)
  mix : Netsim.mix;
      (** weighted request classes for open-loop server runs; [[]]
          (default) keeps the workload's single default request *)
  clock : Tm_clock.scheme;
      (** commit-clock scheme for the STM fallback (GV1 by default) *)
  subscription : Subscription.t;
      (** hardware-window subscription policy (eager by default) *)
}

let point ?(yield_points = Core.Yield_points.Extended)
    ?(opts = Rvm.Options.default) ?(arrivals = Netsim.Closed) ?(mix = [])
    ?(clock = Tm_clock.Gv1) ?(subscription = Subscription.Eager) ~workload
    ~machine ~scheme ~threads ~size () =
  { workload; machine; scheme; threads; size; yield_points; opts; arrivals;
    mix; clock; subscription }

(* The request-latency summary of one server run: offered vs achieved load,
   the loss accounting, and the latency quantiles from the runner's
   log-linear [req.latency_cycles] histogram. *)
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
  throughput : float;  (** work per second: 1e9/wall or requests/sec *)
  abort_ratio : float;
  result : Core.Runner.result;
  output : string;
  load : load option;  (** server runs only *)
}

let run ?tracer (p : point) : outcome =
  let cfg =
    Core.Runner.config ?tracer ~scheme:p.scheme ~yield_points:p.yield_points
      ~opts:p.opts ~clock:p.clock ~subscription:p.subscription p.machine
  in
  let source = p.workload.source ~threads:p.threads ~size:p.size in
  match p.workload.kind with
  | Workloads.Workload.Compute ->
      let t = Core.Runner.create cfg ~source in
      p.workload.setup None t.Core.Runner.vm;
      let r = Core.Runner.run t in
      let work =
        if p.workload.parallel_work then float_of_int p.threads else 1.0
      in
      let o =
        {
          p;
          wall_cycles = r.wall_cycles;
          throughput = work *. 1e9 /. float_of_int (max 1 r.wall_cycles);
          abort_ratio = Stats.abort_ratio r.htm_stats;
          result = r;
          output = r.output;
          load = None;
        }
      in
      (* the outcome keeps no reference into the simulated store, so its
         backing array can be recycled for the next point on this domain *)
      Rvm.Vm.release t.Core.Runner.vm;
      o
  | Workloads.Workload.Server ->
      let requests = p.workload.server_requests p.size in
      let io =
        match p.arrivals with
        | Netsim.Closed -> (
            match p.workload.make_io with
            | Some f -> f ~clients:p.threads ~requests
            | None -> invalid_arg "server workload without io")
        | arrivals -> (
            match p.workload.make_io_open with
            | Some f -> f ~clients:p.threads ~requests ~arrivals ~mix:p.mix
            | None -> invalid_arg "server workload without open-loop io")
      in
      let t = Core.Runner.create ~io cfg ~source in
      p.workload.setup (Some io) t.Core.Runner.vm;
      let r = Core.Runner.run ~stop:(fun () -> Netsim.done_all io) t in
      let lat =
        Obs.Metrics.histogram r.Core.Runner.metrics "req.latency_cycles"
      in
      (* closed loop keeps the paper's middle-half peak measure; open loop
         reports the full-span sustained rate (see Netsim.achieved_load) *)
      let achieved =
        match p.arrivals with
        | Netsim.Closed -> Netsim.throughput io
        | _ -> Netsim.achieved_load io
      in
      let load =
        {
          offered_rps = Netsim.offered_load io;
          achieved_rps = achieved;
          completed = Netsim.completed io;
          dropped = Netsim.dropped io;
          timed_out = Netsim.timed_out io;
          churned = Netsim.churned io;
          p50_cycles = Obs.Metrics.quantile lat 0.50;
          p95_cycles = Obs.Metrics.quantile lat 0.95;
          p99_cycles = Obs.Metrics.quantile lat 0.99;
          mean_cycles = Netsim.mean_latency io;
          queue_peak = Netsim.queue_peak io;
          in_flight_peak = Netsim.in_flight_peak io;
        }
      in
      let o =
        {
          p;
          wall_cycles = r.wall_cycles;
          throughput = achieved;
          abort_ratio = Stats.abort_ratio r.htm_stats;
          result = r;
          output = r.output;
          load = Some load;
        }
      in
      Rvm.Vm.release t.Core.Runner.vm;
      o

(* The verification line a compute workload printed ("XX verify NNN"). *)
let verify_line outcome =
  String.split_on_char '\n' outcome.output
  |> List.find_opt (fun l ->
         match String.index_opt l 'v' with
         | Some i ->
             i + 6 <= String.length l && String.sub l i 6 = "verify"
         | None -> false)

(* ---- JSON writers: the one serialisation of each result type, shared by
   the results file and the CLI's --latency-json / --metrics-json ---- *)

let load_json l =
  let module J = Obs.Json in
  J.Obj
    [
      ("offered_rps", J.Float l.offered_rps);
      ("achieved_rps", J.Float l.achieved_rps);
      ("completed", J.Int l.completed);
      ("dropped", J.Int l.dropped);
      ("timed_out", J.Int l.timed_out);
      ("churned", J.Int l.churned);
      ("p50_cycles", J.Int l.p50_cycles);
      ("p95_cycles", J.Int l.p95_cycles);
      ("p99_cycles", J.Int l.p99_cycles);
      ("mean_cycles", J.Float l.mean_cycles);
      ("queue_peak", J.Int l.queue_peak);
      ("in_flight_peak", J.Int l.in_flight_peak);
    ]

let breakdown_json (b : Core.Runner.breakdown) =
  let module J = Obs.Json in
  J.Obj
    [
      ("txn_overhead", J.Int b.bd_txn_overhead);
      ("committed", J.Int b.bd_committed);
      ("aborted", J.Int b.bd_aborted);
      ("gil_held", J.Int b.bd_gil_held);
      ("gil_wait", J.Int b.bd_gil_wait);
      ("other", J.Int b.bd_other);
    ]
