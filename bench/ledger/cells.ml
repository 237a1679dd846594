(* The benchmark's workloads as closed lists of simulator cells, how one
   cell runs, and the correctness gate each cell passes.

   A cell replicates [Harness.Exp.run]'s steps so that [Runner.create] plus
   the workload's setup (the set-up time) is timed apart from [Runner.run].
   Every config comes from [Core.Runner.config]'s defaults plus a scheme
   and options: no interpreter, scheduler or fast-path knob is passed, so
   the benchmark measures whatever the library's defaults are. *)

open Htm_sim

type spec =
  | Compute of {
      w : Workloads.Workload.t;
      machine : Machine.t;
      scheme : Core.Scheme.kind;
      threads : int;
    }
  | Open_loop of {
      w : Workloads.Workload.t;
      machine : Machine.t;
      scheme : Core.Scheme.kind;
      clients : int;
      rate : float;
      seed : int;  (** Poisson arrival seed *)
    }
  | Closed_loop of {
      w : Workloads.Workload.t;
      machine : Machine.t;
      scheme : Core.Scheme.kind;
      clients : int;
    }
  | Sharded of Harness.Shard.config

type cell = {
  id : string;
  spec : spec;
  baseline : string option;
      (** the cell whose simulated throughput this one's is divided by in
          [sim_speedup]; [None] for baselines and unpaired cells *)
  paper : float option;  (** the paper's speedup for this cell, if any *)
  expect : string option;  (** pinned verify line of a compute cell *)
  p95 : bool;  (** one of the cells whose p95s' median is [sim_p95_ms] *)
}

(* What a cell simulated. Every field is a pure function of the cell and
   the seed; [digest_text] serialises them for the workload's digest. *)
type sim = {
  wall_cycles : int;
  throughput : float;  (** compute: 1e9 / wall; servers: requests/s *)
  insns : int;  (** 0 for the sharded cell, whose runners are internal *)
  issued : int;
  completed : int;
  dropped : int;
  timed_out : int;
  htm : Stats.t;
  stm : Stm.stats;
  breakdown : Core.Runner.breakdown option;
  gil_acquisitions : int;
  gc_runs : int;
  allocs : int;
  metrics : Obs.Metrics.t;
  digest_text : string;
}

type outcome = {
  cell : cell;
  setup_s : float;  (** host seconds in create + setup; 0 for sharded *)
  run_s : float;  (** host seconds in [Runner.run] / [Shard.run] *)
  total_s : float;  (** host seconds of the whole cell, release included *)
  result : (sim, string) result;
}

let wl name =
  match Workloads.Workload.find name with
  | Some w -> w
  | None -> invalid_arg ("unknown workload " ^ name)

(* ---- workloads ---- *)

(* Why each exists is recorded in BENCHMARK.json and README.md. *)
let workloads = [ "npb-htm"; "npb-gil"; "hybrid-capacity"; "serve-open" ]

(* Figure 5, zEC12, 12 threads: HTM-dynamic over 1-thread GIL. *)
let fig5_zec12 = function
  | "bt" -> Some 3.3
  | "cg" -> Some 1.9
  | "ft" -> Some 4.4
  | "is" -> Some 1.9
  | "lu" -> Some 1.9
  | "mg" -> Some 2.8
  | "sp" -> Some 2.2
  | _ -> None

let cell ?baseline ?paper ?expect ?(p95 = false) id spec =
  { id; spec; baseline; paper; expect; p95 }

(* One 1-thread GIL baseline plus one measured 12-thread cell per kernel. *)
let npb_pairs ~size ~machine ~scheme ~paper =
  List.concat_map
    (fun k ->
      let w = wl k in
      let expect = Pins.verify k size in
      let base = Printf.sprintf "%s/GIL/1t" k in
      [
        cell ?expect base
          (Compute { w; machine; scheme = Core.Scheme.Gil_only; threads = 1 });
        cell ?expect ~baseline:base ?paper:(paper k)
          (Printf.sprintf "%s/%s/12t" k (Core.Scheme.to_string scheme))
          (Compute { w; machine; scheme; threads = 12 });
      ])
    Workloads.Workload.npb_names

(* Arrival schedules behind the p95 latency. One schedule's 400 requests
   leave 20 samples beyond the p95, which then moves ~13% (interquartile
   range over seeds); the median of eight schedules' p95s moves ~6%. *)
let p95_schedules = 8

let serve_cells ~size ~seed =
  let webrick = wl "webrick" and rails = wl "rails" in
  let gil = Core.Scheme.Gil_only and htm = Core.Scheme.Htm_dynamic in
  let open_ ?(p95 = false) ?(schedule = 0) w machine scheme rate =
    cell ~p95
      (Printf.sprintf "%s/%s/open-%.0f%s" w.Workloads.Workload.name
         (Core.Scheme.to_string scheme) rate
         (if schedule = 0 then "" else Printf.sprintf "#%d" schedule))
      (Open_loop
         {
           w;
           machine;
           scheme;
           clients = 6;
           rate;
           seed = (seed * p95_schedules) + schedule;
         })
  in
  let closed ?baseline ?paper scheme =
    cell ?baseline ?paper
      (Printf.sprintf "webrick/%s/closed-6c" (Core.Scheme.to_string scheme))
      (Closed_loop { w = webrick; machine = Machine.zec12; scheme; clients = 6 })
  in
  let base_closed = closed gil in
  [ open_ webrick Machine.zec12 gil 4_000.0 ]
  (* the latency cells: HTM-dynamic at 4k req/s, below its knee (at 9k its
     backlog grows, and its p95 with the length of the run) *)
  @ List.init p95_schedules (fun schedule ->
        open_ ~p95:true ~schedule webrick Machine.zec12 htm 4_000.0)
  @ [
      (* at 9k req/s the GIL saturates and drops requests *)
      open_ webrick Machine.zec12 gil 9_000.0;
      open_ webrick Machine.zec12 htm 9_000.0;
      open_ rails Machine.xeon_e3 htm 4_500.0;
      (* Figure 7's own setup (closed loop, 6 clients): the workload's
         speed-up and paper reference (WEBrick on zEC12 gains 14%); unlike
         the open-loop cells it does not depend on the arrival seed *)
      base_closed;
      closed ~baseline:base_closed.id ~paper:1.14 htm;
      cell "webrick/HTM-dynamic/shard2-rr"
        (Sharded
           (Harness.Shard.config ~policy:Harness.Shard.Round_robin
              ~workload:webrick ~machine:Machine.zec12 ~scheme:htm ~shards:2
              ~clients:8 ~size
              ~arrivals:(Netsim.Poisson { rate = 400_000.0; seed })
              ~requests:480 ()));
    ]

let cells ~size ~seed = function
  | "npb-htm" ->
      npb_pairs ~size ~machine:Machine.zec12 ~scheme:Core.Scheme.Htm_dynamic
        ~paper:fig5_zec12
  | "npb-gil" ->
      npb_pairs ~size ~machine:Machine.zec12 ~scheme:Core.Scheme.Gil_only
        ~paper:(fun _ -> Some 1.0)
  | "hybrid-capacity" ->
      (* the paper has no hybrid scheme: its full-capacity HTM speedups are
         the reference the capacity-starved hybrid is measured against *)
      npb_pairs ~size ~machine:Harness.Figures.hybrid_machine
        ~scheme:Core.Scheme.Hybrid ~paper:fig5_zec12
  | "serve-open" -> serve_cells ~size ~seed
  | name -> invalid_arg ("unknown workload " ^ name)

(* The one cell per workload the tier-1 smoke runs at size [Test]. *)
let smoke_ids =
  [
    ("npb-htm", "is/HTM-dynamic/12t");
    ("npb-gil", "cg/GIL/12t");
    ("hybrid-capacity", "ft/hybrid/12t");
    ("serve-open", "webrick/HTM-dynamic/open-9000");
  ]

(* ---- running one cell ---- *)

let now = Unix.gettimeofday

let verify_line output =
  List.find_opt
    (fun l ->
      let n = String.length l in
      let rec has i = i + 6 <= n && (String.sub l i 6 = "verify" || has (i + 1)) in
      has 0)
    (String.split_on_char '\n' output)

let assoc_text l =
  String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) l)

(* The correctness gate: a compute cell must print its pinned verify line;
   a server cell must account for every request it issued. *)
let check cell (s : sim) ~output =
  match cell.spec with
  | Compute _ -> (
      let got = Option.value (verify_line output) ~default:"(no verify line)" in
      match cell.expect with
      | Some want when got = want -> Ok ()
      | Some want ->
          Error (Printf.sprintf "verify mismatch: want %S, got %S" want got)
      | None ->
          Error (Printf.sprintf "no verify line pinned for this size (got %S)" got))
  | Open_loop _ | Closed_loop _ | Sharded _ ->
      if s.issued <> s.completed + s.dropped + s.timed_out then
        Error
          (Printf.sprintf
             "request accounting: issued %d <> completed %d + dropped %d + \
              timed out %d"
             s.issued s.completed s.dropped s.timed_out)
      else if s.completed = 0 then Error "no request completed"
      else Ok ()

let runner_sim ~(r : Core.Runner.result) ~io ~throughput ~id =
  let issued, completed, dropped, timed_out, p95 =
    match io with
    | None -> (0, 0, 0, 0, 0)
    | Some io ->
        ( Netsim.issued io,
          Netsim.completed io,
          Netsim.dropped io,
          Netsim.timed_out io,
          Obs.Metrics.quantile
            (Obs.Metrics.histogram r.metrics "req.latency_cycles")
            0.95 )
  in
  let b = r.breakdown in
  {
    wall_cycles = r.wall_cycles;
    throughput;
    insns = r.total_insns;
    issued;
    completed;
    dropped;
    timed_out;
    htm = r.htm_stats;
    stm = r.stm_stats;
    breakdown = Some b;
    gil_acquisitions = r.gil_acquisitions;
    gc_runs = r.gc_runs;
    allocs = r.allocs;
    metrics = r.metrics;
    digest_text =
      Printf.sprintf
        "%s wall=%d insns=%d verify=%s req=%d/%d/%d/%d p95=%d gil=%d gc=%d \
         allocs=%d bd=%d/%d/%d/%d/%d/%d htm[%s] stm[%s]"
        id r.wall_cycles r.total_insns
        (Option.value (verify_line r.output) ~default:"-")
        issued completed dropped timed_out p95 r.gil_acquisitions r.gc_runs
        r.allocs b.bd_txn_overhead b.bd_committed b.bd_aborted b.bd_gil_held
        b.bd_gil_wait b.bd_other (assoc_text (Stats.to_assoc r.htm_stats))
        (assoc_text (Stm.stats_to_assoc r.stm_stats));
  }

(* Runner.create + setup, then Runner.run, then release: the steps of
   [Harness.Exp.run], each timed and wrapped in a span. *)
let run_runner cell ~opts ~machine ~scheme ~source ~io ~setup ~throughput =
  let cfg = Core.Runner.config ~scheme ~opts machine in
  let id = cell.id in
  let t0 = now () in
  let t =
    Spans.record ~cell:id "Runner.create" (fun () ->
        Core.Runner.create ?io cfg ~source)
  in
  Spans.record ~cell:id "workload.setup" (fun () -> setup io t.Core.Runner.vm);
  let t1 = now () in
  let stop =
    match io with
    | Some io -> fun () -> Netsim.done_all io
    | None -> fun () -> false
  in
  let r =
    Spans.record ~cell:id "Runner.run" (fun () -> Core.Runner.run ~stop t)
  in
  let t2 = now () in
  Spans.record ~cell:id "Vm.release" (fun () -> Rvm.Vm.release t.Core.Runner.vm);
  let s = runner_sim ~r ~io ~throughput:(throughput r) ~id in
  (t1 -. t0, t2 -. t1, s, r.output)

let run_spec cell ~size ~seed =
  let opts = { Rvm.Options.default with Rvm.Options.seed } in
  match cell.spec with
  | Compute { w; machine; scheme; threads } ->
      run_runner cell ~opts ~machine ~scheme
        ~source:(w.source ~threads ~size) ~io:None ~setup:w.setup
        ~throughput:(fun r ->
          1e9 /. float_of_int (max 1 r.Core.Runner.wall_cycles))
  | Open_loop { w; machine; scheme; clients; rate; seed = arrival_seed } ->
      let make =
        match w.make_io_open with
        | Some f -> f
        | None -> invalid_arg "server workload without open-loop io"
      in
      let io =
        make ~clients ~requests:(w.server_requests size)
          ~arrivals:(Netsim.Poisson { rate; seed = arrival_seed })
          ~mix:w.mix
      in
      run_runner cell ~opts ~machine ~scheme
        ~source:(w.source ~threads:clients ~size)
        ~io:(Some io) ~setup:w.setup
        ~throughput:(fun _ -> Netsim.achieved_load io)
  | Closed_loop { w; machine; scheme; clients } ->
      let make =
        match w.make_io with
        | Some f -> f
        | None -> invalid_arg "server workload without io"
      in
      let io = make ~clients ~requests:(w.server_requests size) in
      run_runner cell ~opts ~machine ~scheme
        ~source:(w.source ~threads:clients ~size)
        ~io:(Some io) ~setup:w.setup
        ~throughput:(fun _ -> Netsim.throughput io)
  | Sharded cfg ->
      let t0 = now () in
      let r =
        Spans.record ~cell:cell.id "Shard.run" (fun () ->
            Harness.Shard.run ~jobs:1 cfg)
      in
      let run_s = now () -. t0 in
      let s =
        {
          wall_cycles = r.r_wall_cycles;
          throughput = r.r_aggregate_rps;
          insns = 0;
          issued = r.r_issued;
          completed = r.r_completed;
          dropped = r.r_dropped;
          timed_out = r.r_timed_out;
          htm = r.r_htm;
          stm = r.r_stm;
          breakdown = None;
          gil_acquisitions = 0;
          gc_runs = 0;
          allocs = 0;
          metrics = r.r_metrics;
          digest_text =
            Printf.sprintf "%s wall=%d req=%d/%d/%d/%d p95=%d fb=%d/%d htm[%s]"
              cell.id r.r_wall_cycles r.r_issued r.r_completed r.r_dropped
              r.r_timed_out r.r_p95_cycles r.r_fb_gil r.r_fb_stm
              (assoc_text (Stats.to_assoc r.r_htm));
        }
      in
      (0.0, run_s, s, "")

(* A cell that raises (deadlock, budget exhaustion, guest error, anything
   else) or fails its check is a failed op carrying the message; the
   caller keeps going. *)
let run cell ~size ~seed =
  let t0 = now () in
  let outcome setup_s run_s result =
    { cell; setup_s; run_s; total_s = now () -. t0; result }
  in
  let failed msg = outcome 0.0 0.0 (Error msg) in
  match
    Spans.record ~cell:cell.id "cell" (fun () -> run_spec cell ~size ~seed)
  with
  | setup_s, run_s, s, output ->
      outcome setup_s run_s
        (Result.map (fun () -> s) (check cell s ~output))
  | exception Core.Runner.Stuck msg -> failed ("stuck: " ^ msg)
  | exception Core.Runner.Guest_failure msg ->
      failed ("guest failure: " ^ List.hd (String.split_on_char '\n' msg))
  | exception e -> failed ("exception: " ^ Printexc.to_string e)
