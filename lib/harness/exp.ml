(* Running one experiment point: a (workload, machine, scheme, threads,
   size) tuple, returning normalised metrics. The point carries the runner
   config, and [boot] is the one place a point becomes a runner. *)

open Htm_sim

type point = {
  workload : Workloads.Workload.t;
  machine : Machine.t;
  scheme : Core.Scheme.kind;
  threads : int;
  size : Workloads.Size.t;
  arrivals : Netsim.arrivals;
  mix : Netsim.mix;
  cfg : Core.Runner.config;
}

let point ?yield_points ?opts ?clock ?subscription ?tracer
    ?(arrivals = Netsim.Closed) ?(mix = []) ~workload ~machine ~scheme
    ~threads ~size () =
  let cfg =
    Core.Runner.config ~scheme ?yield_points ?opts ?clock ?subscription
      ?tracer machine
  in
  { workload; machine; scheme; threads; size; arrivals; mix; cfg }

let boot p ~io =
  let t =
    Core.Runner.create ?io p.cfg
      ~source:(p.workload.source ~threads:p.threads ~size:p.size)
  in
  p.workload.setup io t.Core.Runner.vm;
  t

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

(* A server point's socket: the paper's closed loop, or an open-loop
   arrival process. *)
let make_io p =
  let requests = p.workload.server_requests p.size in
  match (p.arrivals, p.workload.make_io, p.workload.make_io_open) with
  | Netsim.Closed, Some f, _ -> f ~clients:p.threads ~requests
  | Netsim.Closed, None, _ -> invalid_arg "server workload without io"
  | arrivals, _, Some f ->
      f ~clients:p.threads ~requests ~arrivals ~mix:p.mix
  | _, _, None -> invalid_arg "server workload without open-loop io"

let load_of p io r =
  let lat = Obs.Metrics.histogram r.Core.Runner.metrics "req.latency_cycles" in
  {
    offered_rps = Netsim.offered_load io;
    (* closed loop keeps the paper's middle-half peak measure; open loop
       reports the full-span sustained rate (see Netsim.achieved_load) *)
    achieved_rps =
      (match p.arrivals with
      | Netsim.Closed -> Netsim.throughput io
      | _ -> Netsim.achieved_load io);
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

let run (p : point) : outcome =
  let io =
    match p.workload.kind with
    | Workloads.Workload.Compute -> None
    | Workloads.Workload.Server -> Some (make_io p)
  in
  let t = boot p ~io in
  let r =
    Core.Runner.run
      ?stop:(Option.map (fun io () -> Netsim.done_all io) io)
      t
  in
  let load = Option.map (fun io -> load_of p io r) io in
  let throughput =
    match load with
    | Some l -> l.achieved_rps
    | None ->
        let work =
          if p.workload.parallel_work then float_of_int p.threads else 1.0
        in
        work *. 1e9 /. float_of_int (max 1 r.wall_cycles)
  in
  let o =
    {
      p;
      wall_cycles = r.wall_cycles;
      throughput;
      abort_ratio = Stats.abort_ratio r.htm_stats;
      result = r;
      output = r.output;
      load;
    }
  in
  (* the outcome keeps no reference into the simulated store, so its
     backing array can be recycled for the next point on this domain *)
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
