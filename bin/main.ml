(* htm-gil: command-line driver.

     htm-gil run --workload cg --machine zec12 --scheme htm-dynamic -t 12
     htm-gil exec file.rb --scheme gil
     htm-gil fig fig5            (regenerate a figure from the paper)
     htm-gil list                (available workloads)

   All execution is simulated: workloads run on the MiniRuby VM over the
   HTM/multicore model described in DESIGN.md. *)

open Cmdliner

let machine_arg =
  let doc = "Machine model: zec12, xeon, or x5670." in
  Arg.(value & opt string "zec12" & info [ "m"; "machine" ] ~docv:"MACHINE" ~doc)

let scheme_arg =
  let doc =
    "Synchronisation scheme: gil, htm-1, htm-16, htm-256, htm-dynamic, \
     hybrid (HTM with software-transaction fallback), stm, fine-grained, \
     free-parallel."
  in
  Arg.(value & opt string "htm-dynamic" & info [ "s"; "scheme" ] ~docv:"SCHEME" ~doc)

let threads_arg =
  let doc = "Guest threads (clients for server workloads)." in
  Arg.(value & opt int 4 & info [ "t"; "threads" ] ~docv:"N" ~doc)

let size_arg =
  let doc = "Problem size class: test, s, w." in
  Arg.(value & opt string "s" & info [ "size" ] ~docv:"SIZE" ~doc)

let yield_arg =
  let doc = "Yield-point set: original or extended (Section 4.2)." in
  Arg.(value & opt string "extended" & info [ "yield-points" ] ~docv:"SET" ~doc)

let baseline_opts_arg =
  let doc = "Disable the Section 4.4 conflict removals (original CRuby)." in
  Arg.(value & flag & info [ "no-conflict-removal" ] ~doc)

let lazy_sweep_arg =
  let doc =
    "Enable thread-local lazy sweeping (the Section 5.6 future-work \
     optimisation that removes the global free list from allocation)."
  in
  Arg.(value & flag & info [ "lazy-sweep" ] ~doc)

let refcount_arg =
  let doc =
    "Model CPython-style reference counting (INCREF/DECREF on every \
     dispatch) — the Section 7 discussion of why Python needs RETCON-style \
     help."
  in
  Arg.(value & flag & info [ "refcount" ] ~doc)

let quiet_arg =
  let doc = "Suppress guest output." in
  Arg.(value & flag & info [ "q"; "quiet" ] ~doc)

(* ---- TM clock / subscription flags (schemes with a software fallback) ---- *)

let clock_arg =
  let doc =
    "Global commit-clock scheme for the software fallback: gv1 (eager — \
     every writing software commit rewrites the shared clock cell), gv5 \
     (delayed increment — commits stamp clock+1 without touching the \
     cell, so they kill no hardware window), or gv6 (adaptive — switches \
     between the two on the observed validation-failure rate). Defaults \
     to gv1."
  in
  Arg.(value & opt (some string) None & info [ "clock" ] ~docv:"SCHEME" ~doc)

let subscription_arg =
  let doc =
    "How hardware windows subscribe to the GIL word and the commit-clock \
     cell: eager (right after tbegin, the paper's protocol), lazy (defer \
     to the commit point — the published HyTM optimisation whose \
     unsafety the simulator reproduces: expect corrupted runs under GC \
     pressure), or lazy-safe (lazy plus abort-all-hardware at GC start; \
     needs a machine with the lazy_sub_safe capability). Defaults to \
     eager."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "subscription" ] ~docv:"POLICY" ~doc)

let parse_clock = function
  | None -> None
  | Some s -> (
      try Some (Tm_clock.scheme_of_string s)
      with Invalid_argument msg ->
        Format.eprintf "%s@." msg;
        exit 1)

let parse_subscription = function
  | None -> None
  | Some s -> (
      try Some (Htm_sim.Subscription.of_string s)
      with Invalid_argument msg ->
        Format.eprintf "%s@." msg;
        exit 1)

(* ---- open-loop load-generation flags (server workloads) ---- *)

let arrivals_arg =
  let doc =
    "Arrival process for server workloads: closed (the think-time loop, \
     default), poisson, or burst:N (groups of N simultaneous arrivals)."
  in
  Arg.(value & opt string "closed" & info [ "arrivals" ] ~docv:"MODE" ~doc)

let offered_load_arg =
  let doc =
    "Open-loop offered load in requests per second of virtual time (used \
     with --arrivals poisson or burst:N)."
  in
  Arg.(value & opt float 4_000.0 & info [ "offered-load" ] ~docv:"RPS" ~doc)

(* ---- shard-tier flags (server workloads, open-loop arrivals) ---- *)

let shards_arg =
  let doc =
    "Serve the open-loop stream with $(docv) complete VM shards behind the \
     netsim load balancer (0 = the single-VM path). The SHARDS environment \
     variable only places shards onto worker domains; results are \
     bit-identical at any value."
  in
  Arg.(value & opt int 0 & info [ "shards" ] ~docv:"N" ~doc)

let policy_arg =
  let doc = "Shard balancing policy: round-robin or least-in-flight." in
  Arg.(value & opt string "round-robin" & info [ "policy" ] ~docv:"POLICY" ~doc)

let session_arg =
  let doc =
    "Also replay the shards' completions against one shared cross-shard \
     session store mediated by the hybrid TM engine (the \
     contended-vs-shared-nothing ablation)."
  in
  Arg.(value & flag & info [ "shared-session" ] ~doc)

let mix_arg =
  let doc =
    "Draw each open-loop request from the workload's weighted class mix \
     (static/ORM/regex) instead of the single default request."
  in
  Arg.(value & flag & info [ "mix" ] ~doc)

let latency_json_arg =
  let doc =
    "Write the run's request-latency summary (offered vs achieved load, \
     drop/timeout accounting, p50/p95/p99 latency) to $(docv) as JSON."
  in
  Arg.(value & opt (some string) None & info [ "latency-json" ] ~docv:"FILE" ~doc)

let parse_arrivals mode rate =
  match String.lowercase_ascii mode with
  | "closed" -> Netsim.Closed
  | "poisson" -> Netsim.Poisson { rate; seed = Harness.Figures.load_seed }
  | "burst" -> Netsim.Burst { rate; size = 8; seed = Harness.Figures.load_seed }
  | m
    when String.length m > 6 && String.sub m 0 6 = "burst:"
         && int_of_string_opt (String.sub m 6 (String.length m - 6)) <> None ->
      Netsim.Burst
        {
          rate;
          size = int_of_string (String.sub m 6 (String.length m - 6));
          seed = Harness.Figures.load_seed;
        }
  | m ->
      Format.eprintf "unknown arrival mode %s (closed, poisson, burst:N)@." m;
      exit 1

let load_document (l : Harness.Exp.load) =
  Obs.Json.Obj
    [
      ("offered_rps", Obs.Json.Float l.Harness.Exp.offered_rps);
      ("achieved_rps", Obs.Json.Float l.Harness.Exp.achieved_rps);
      ("completed", Obs.Json.Int l.Harness.Exp.completed);
      ("dropped", Obs.Json.Int l.Harness.Exp.dropped);
      ("timed_out", Obs.Json.Int l.Harness.Exp.timed_out);
      ("churned", Obs.Json.Int l.Harness.Exp.churned);
      ("p50_cycles", Obs.Json.Int l.Harness.Exp.p50_cycles);
      ("p95_cycles", Obs.Json.Int l.Harness.Exp.p95_cycles);
      ("p99_cycles", Obs.Json.Int l.Harness.Exp.p99_cycles);
      ("mean_cycles", Obs.Json.Float l.Harness.Exp.mean_cycles);
      ("queue_peak", Obs.Json.Int l.Harness.Exp.queue_peak);
      ("in_flight_peak", Obs.Json.Int l.Harness.Exp.in_flight_peak);
    ]

(* ---- observability flags (shared by run and exec) ---- *)

let trace_arg =
  let doc = "Pretty-print the structured event trace to stderr after the run." in
  Arg.(value & flag & info [ "trace" ] ~doc)

let trace_out_arg =
  let doc =
    "Write the run's event trace to $(docv) as Chrome trace-event JSON \
     (opens directly in Perfetto or chrome://tracing)."
  in
  Arg.(value & opt (some string) None & info [ "trace-out" ] ~docv:"FILE" ~doc)

let metrics_json_arg =
  let doc =
    "Write HTM stats, the metrics registry (counters and histograms) and the \
     abort-site attribution to $(docv) as JSON."
  in
  Arg.(value & opt (some string) None & info [ "metrics-json" ] ~docv:"FILE" ~doc)

let abort_report_arg =
  let doc =
    "Print the abort-site attribution report (the Section 5.6 abort-cause \
     investigation): top aborting bytecode sites and conflicting cache \
     lines."
  in
  Arg.(value & flag & info [ "abort-report" ] ~doc)

(* A sink is allocated only when some trace output was requested, so the
   default run keeps the instrumentation at one branch per site. *)
let make_tracer ~trace ~trace_out =
  if trace || trace_out <> None then Some (Obs.Trace.create ()) else None

let metrics_document (r : Core.Runner.result) =
  Obs.Json.Obj
    [
      ( "htm",
        Obs.Json.Obj
          (List.map
             (fun (k, v) -> (k, Obs.Json.Int v))
             (Htm_sim.Stats.to_assoc r.htm_stats)) );
      ( "stm",
        Obs.Json.Obj
          (List.map
             (fun (k, v) -> (k, Obs.Json.Int v))
             (Stm.stats_to_assoc r.stm_stats)) );
      ("metrics", Obs.Metrics.to_json r.metrics);
      ("abort_sites", Obs.Sites.to_json r.abort_sites);
      ( "breakdown",
        let b = r.breakdown in
        Obs.Json.Obj
          [
            ("txn_overhead", Obs.Json.Int b.bd_txn_overhead);
            ("committed", Obs.Json.Int b.bd_committed);
            ("aborted", Obs.Json.Int b.bd_aborted);
            ("gil_held", Obs.Json.Int b.bd_gil_held);
            ("gil_wait", Obs.Json.Int b.bd_gil_wait);
            ("other", Obs.Json.Int b.bd_other);
          ] );
      ("wall_cycles", Obs.Json.Int r.wall_cycles);
      ("total_insns", Obs.Json.Int r.total_insns);
    ]

let write_json_or_die path doc =
  try Obs.Json.to_file path doc
  with Sys_error msg ->
    Format.eprintf "htm-gil: cannot write %s: %s@." path msg;
    exit 1

let emit_observability ~trace ~trace_out ~metrics_json ~abort_report
    (r : Core.Runner.result) =
  (match (r.trace, trace_out) with
  | Some tr, Some path ->
      write_json_or_die path (Obs.Trace.to_chrome tr);
      Format.eprintf "trace: %d events (%d dropped) -> %s@." (Obs.Trace.total tr)
        (Obs.Trace.dropped tr) path
  | _ -> ());
  (match r.trace with
  | Some tr when trace -> Format.eprintf "%a@?" Obs.Trace.pp tr
  | _ -> ());
  (match metrics_json with
  | Some path ->
      write_json_or_die path (metrics_document r);
      Format.eprintf "metrics -> %s@." path
  | None -> ());
  if abort_report then begin
    Obs.Sites.report Format.std_formatter r.abort_sites;
    (* Lock-word attribution: which of the two fallback-published words
       (the GIL word vs the STM commit-clock cell) killed hardware
       windows, from the runner's per-line abort counters. *)
    let kcount name =
      (Obs.Metrics.counter r.Core.Runner.metrics name).Obs.Metrics.count
    in
    let kg = kcount "abort.gil_word" and kc = kcount "abort.stm_clock" in
    if kg > 0 || kc > 0 then
      Format.printf
        "@.-- lock-word kills: %d on the GIL word, %d on the commit-clock \
         cell --@."
        kg kc
  end

let parse_common machine scheme yield_points no_removal lazy_sweep refcount =
  let machine = Htm_sim.Machine.by_name machine in
  let scheme = Core.Scheme.of_string scheme in
  let yield_points =
    try Core.Yield_points.of_string yield_points
    with Invalid_argument msg ->
      Format.eprintf "%s@." msg;
      exit 1
  in
  let opts = if no_removal then Rvm.Options.cruby_baseline else Rvm.Options.default in
  let opts = { opts with Rvm.Options.lazy_sweep; refcount_writes = refcount } in
  (machine, scheme, yield_points, opts)

let print_outcome ~quiet (o : Harness.Exp.outcome) =
  if not quiet then print_string o.output;
  let r = o.result in
  Format.printf
    "@.-- %s / %s / %s, %d threads --@."
    o.p.workload.Workloads.Workload.name o.p.machine.Htm_sim.Machine.name
    (Core.Scheme.to_string o.p.scheme) o.p.threads;
  Format.printf "  wall clock          %d cycles (%.3f ms at 1 GHz)@." o.wall_cycles
    (float_of_int o.wall_cycles /. 1e6);
  Format.printf "  throughput          %.2f (work/s)@." o.throughput;
  Format.printf "  instructions        %d@." r.total_insns;
  Format.printf "  HTM                 %a@." Htm_sim.Stats.pp r.htm_stats;
  Format.printf "  GIL acquisitions    %d@." r.gil_acquisitions;
  Format.printf "  GC runs             %d (allocations %d)@." r.gc_runs r.allocs;
  if Core.Scheme.uses_stm o.p.scheme then begin
    let s = r.stm_stats in
    Format.printf
      "  STM                 %d begins, %d commits (%d read-only), %d aborts \
       (%d validation)@."
      s.Stm.begins s.Stm.commits s.Stm.read_only_commits (Stm.stats_aborts s)
      s.Stm.aborts_validation
  end;
  if o.p.scheme = Core.Scheme.Htm_dynamic then
    Format.printf "  adjusted lengths    mean %.1f, %.0f%% of points at 1@."
      r.txlen_mean (100.0 *. r.txlen_at_one);
  (match o.p.workload.Workloads.Workload.kind with
  | Workloads.Workload.Server ->
      Format.printf "  requests            %d completed, %.0f req/s@."
        r.requests_completed r.request_throughput
  | Workloads.Workload.Compute -> ());
  (match o.load with
  | Some l ->
      let us c = float_of_int c /. 1_000.0 in
      if l.Harness.Exp.offered_rps > 0.0 then
        Format.printf
          "  offered load        %.0f req/s, achieved %.0f req/s (%d dropped, \
           %d timed out, %d clients churned)@."
          l.Harness.Exp.offered_rps l.Harness.Exp.achieved_rps
          l.Harness.Exp.dropped l.Harness.Exp.timed_out l.Harness.Exp.churned;
      Format.printf
        "  request latency     p50 %.1f us, p95 %.1f us, p99 %.1f us (mean \
         %.1f us; queue peak %d, in-flight peak %d)@."
        (us l.Harness.Exp.p50_cycles) (us l.Harness.Exp.p95_cycles)
        (us l.Harness.Exp.p99_cycles)
        (l.Harness.Exp.mean_cycles /. 1_000.0)
        l.Harness.Exp.queue_peak l.Harness.Exp.in_flight_peak
  | None -> ());
  let b = r.breakdown in
  let total =
    max 1
      (b.bd_txn_overhead + b.bd_committed + b.bd_aborted + b.bd_gil_held
     + b.bd_gil_wait + b.bd_other)
  in
  let pct x = 100.0 *. float_of_int x /. float_of_int total in
  Format.printf
    "  cycles              begin/end %.1f%%, committed %.1f%%, aborted %.1f%%, \
     GIL held %.1f%%, GIL wait %.1f%%, other %.1f%%@."
    (pct b.bd_txn_overhead) (pct b.bd_committed) (pct b.bd_aborted)
    (pct b.bd_gil_held) (pct b.bd_gil_wait) (pct b.bd_other)

let print_shard_result (r : Harness.Shard.result) =
  let us c = float_of_int c /. 1_000.0 in
  Format.printf "@.-- %d shards, %s balancing --@." r.Harness.Shard.r_shards
    (Harness.Shard.policy_to_string r.Harness.Shard.r_policy);
  Format.printf
    "  requests            %d issued: %d completed, %d dropped, %d timed out \
     (%d clients churned)@."
    r.Harness.Shard.r_issued r.Harness.Shard.r_completed
    r.Harness.Shard.r_dropped r.Harness.Shard.r_timed_out
    r.Harness.Shard.r_churned;
  Format.printf "  aggregate served    %.0f req/s over %d cycles@."
    r.Harness.Shard.r_aggregate_rps r.Harness.Shard.r_wall_cycles;
  Format.printf
    "  request latency     p50 %.1f us, p95 %.1f us, p99 %.1f us (mean %.1f us)@."
    (us r.Harness.Shard.r_p50_cycles)
    (us r.Harness.Shard.r_p95_cycles)
    (us r.Harness.Shard.r_p99_cycles)
    (r.Harness.Shard.r_mean_cycles /. 1_000.0);
  Format.printf "  HTM                 %a@." Htm_sim.Stats.pp
    r.Harness.Shard.r_htm;
  if r.Harness.Shard.r_fb_gil > 0 || r.Harness.Shard.r_fb_stm > 0 then
    Format.printf "  fallbacks           %d to the GIL, %d to the STM@."
      r.Harness.Shard.r_fb_gil r.Harness.Shard.r_fb_stm;
  List.iteri
    (fun i (s : Harness.Shard.shard_slice) ->
      Format.printf
        "  shard %-2d            %d assigned, %d completed, %d dropped, %d \
         timed out, wall %d@."
        i s.Harness.Shard.sh_assigned s.Harness.Shard.sh_completed
        s.Harness.Shard.sh_dropped s.Harness.Shard.sh_timed_out
        s.Harness.Shard.sh_wall_cycles)
    r.Harness.Shard.r_per_shard;
  match r.Harness.Shard.r_session with
  | None -> ()
  | Some s ->
      Format.printf
        "  shared sessions     %d updates in %d waves: %d HTM commits, %d \
         aborts, %d STM retries committed, %d waves to the GIL@."
        s.Harness.Shard.sn_updates s.Harness.Shard.sn_waves
        s.Harness.Shard.sn_htm_commits s.Harness.Shard.sn_htm_aborts
        s.Harness.Shard.sn_stm_commits s.Harness.Shard.sn_gil_falls

let run_cmd =
  let workload_arg =
    let doc = "Workload name (see list)." in
    Arg.(value & opt string "cg" & info [ "w"; "workload" ] ~docv:"NAME" ~doc)
  in
  let run workload machine scheme threads size yield_points no_removal lazy_sweep refcount quiet
      clock subscription arrivals offered_load shards policy shared_session
      mix latency_json trace trace_out metrics_json abort_report =
    match Workloads.Workload.find workload with
    | None ->
        Format.eprintf "unknown workload %s@." workload;
        exit 1
    | Some w ->
        let machine, scheme, yield_points, opts =
          parse_common machine scheme yield_points no_removal lazy_sweep refcount
        in
        let size = Workloads.Size.of_string size in
        let clock = parse_clock clock in
        let subscription = parse_subscription subscription in
        let arrivals = parse_arrivals arrivals offered_load in
        (match (arrivals, w.Workloads.Workload.kind) with
        | Netsim.Closed, _ | _, Workloads.Workload.Server -> ()
        | _ ->
            Format.eprintf "--arrivals only applies to server workloads@.";
            exit 1);
        let mix = if mix then w.Workloads.Workload.mix else [] in
        (match (mix, arrivals) with
        | _ :: _, Netsim.Closed ->
            Format.eprintf
              "--mix needs open-loop arrivals (--arrivals poisson/burst:N)@.";
            exit 1
        | _ :: _, _ when w.Workloads.Workload.mix = [] ->
            Format.eprintf "workload %s has no request mix@." workload;
            exit 1
        | _ -> ());
        if shards > 0 then begin
          (match arrivals with
          | Netsim.Poisson _ | Netsim.Burst _ -> ()
          | _ ->
              Format.eprintf
                "--shards needs open-loop arrivals (--arrivals poisson or \
                 burst:N)@.";
              exit 1);
          let policy =
            try Harness.Shard.policy_of_string policy
            with Invalid_argument msg ->
              Format.eprintf "%s@." msg;
              exit 1
          in
          let r =
            Harness.Shard.run
              (Harness.Shard.config ~policy ~mix ~shared_session ~workload:w
                 ~machine ~scheme ~shards ~clients:threads ~size ~arrivals
                 ~requests:(w.Workloads.Workload.server_requests size)
                 ())
          in
          print_shard_result r
        end
        else begin
          let tracer = make_tracer ~trace ~trace_out in
          let o =
            Harness.Exp.run ?tracer
              (Harness.Exp.point ?clock ?subscription ~yield_points ~opts
                 ~arrivals ~mix ~workload:w ~machine ~scheme ~threads ~size ())
          in
          print_outcome ~quiet o;
          (match (latency_json, o.Harness.Exp.load) with
          | Some path, Some l ->
              write_json_or_die path (load_document l);
              Format.eprintf "latency -> %s@." path
          | Some _, None ->
              Format.eprintf "--latency-json only applies to server workloads@."
          | None, _ -> ());
          emit_observability ~trace ~trace_out ~metrics_json ~abort_report
            o.Harness.Exp.result
        end
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one workload under one scheme")
    Term.(
      const run $ workload_arg $ machine_arg $ scheme_arg $ threads_arg
      $ size_arg $ yield_arg $ baseline_opts_arg $ lazy_sweep_arg
      $ refcount_arg $ quiet_arg $ clock_arg $ subscription_arg
      $ arrivals_arg $ offered_load_arg $ shards_arg $ policy_arg
      $ session_arg $ mix_arg $ latency_json_arg $ trace_arg $ trace_out_arg
      $ metrics_json_arg $ abort_report_arg)

let exec_cmd =
  let file_arg =
    let doc = "MiniRuby source file." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run file machine scheme yield_points no_removal lazy_sweep refcount quiet
      clock subscription trace trace_out metrics_json abort_report =
    let machine, scheme, yield_points, opts =
      parse_common machine scheme yield_points no_removal lazy_sweep refcount
    in
    let clock = parse_clock clock in
    let subscription = parse_subscription subscription in
    let ic = open_in file in
    let n = in_channel_length ic in
    let source = really_input_string ic n in
    close_in ic;
    let tracer = make_tracer ~trace ~trace_out in
    let cfg =
      Core.Runner.config ?tracer ?clock ?subscription ~scheme
        ~yield_points ~opts machine
    in
    let r = Core.Runner.run_source cfg ~source in
    if not quiet then print_string r.Core.Runner.output;
    Format.printf "@.wall=%d cycles, %d instructions, %a@." r.wall_cycles
      r.total_insns Htm_sim.Stats.pp r.htm_stats;
    emit_observability ~trace ~trace_out ~metrics_json ~abort_report r
  in
  Cmd.v (Cmd.info "exec" ~doc:"Execute a MiniRuby file on the simulated VM")
    Term.(
      const run $ file_arg $ machine_arg $ scheme_arg $ yield_arg
      $ baseline_opts_arg $ lazy_sweep_arg $ refcount_arg $ quiet_arg
      $ clock_arg $ subscription_arg $ trace_arg $ trace_out_arg
      $ metrics_json_arg $ abort_report_arg)

let fig_cmd =
  let which_arg =
    let doc =
      "Figure: fig4 fig5 fig6a fig6b fig7 fig8 fig9 hybrid load shard \
       clock ablation overhead future-work refcount all."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE" ~doc)
  in
  let size_arg =
    let doc = "Problem size class for the sweep (test, s, w)." in
    Arg.(value & opt string "s" & info [ "size" ] ~docv:"SIZE" ~doc)
  in
  let run which size =
    let size = Workloads.Size.of_string size in
    let fmt = Format.std_formatter in
    let doit = function
      | "fig4" -> ignore (Harness.Figures.fig4 ~size fmt)
      | "fig5" -> ignore (Harness.Figures.fig5 ~size fmt)
      | "fig6a" -> ignore (Harness.Figures.fig6a fmt)
      | "fig6b" -> ignore (Harness.Figures.fig6b fmt)
      | "fig7" -> ignore (Harness.Figures.fig7 ~size fmt)
      | "fig8" -> ignore (Harness.Figures.fig8 ~size fmt)
      | "fig9" -> ignore (Harness.Figures.fig9 ~size fmt)
      | "hybrid" -> ignore (Harness.Figures.fig_hybrid ~size fmt)
      | "load" -> ignore (Harness.Figures.fig_load ~size fmt)
      | "shard" -> ignore (Harness.Figures.fig_shard ~size fmt)
      | "clock" -> ignore (Harness.Figures.fig_clock ~size fmt)
      | "ablation" -> ignore (Harness.Figures.ablation ~size fmt)
      | "overhead" -> ignore (Harness.Figures.overhead ~size fmt)
      | "future-work" -> ignore (Harness.Figures.future_work ~size fmt)
      | "refcount" -> ignore (Harness.Figures.refcount ~size fmt)
      | f ->
          Format.eprintf "unknown figure %s@." f;
          exit 1
    in
    if which = "all" then
      List.iter doit
        [
          "fig4"; "fig5"; "fig6a"; "fig6b"; "fig7"; "fig8"; "fig9"; "hybrid";
          "load"; "shard"; "clock"; "ablation"; "overhead"; "future-work";
          "refcount";
        ]
    else doit which
  in
  Cmd.v (Cmd.info "fig" ~doc:"Regenerate a figure from the paper")
    Term.(const run $ which_arg $ size_arg)

let list_cmd =
  let run () =
    List.iter
      (fun (w : Workloads.Workload.t) ->
        Format.printf "%-10s %s@." w.name w.describe)
      Workloads.Workload.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List workloads") Term.(const run $ const ())

let () =
  let info =
    Cmd.info "htm-gil" ~version:"1.0.0"
      ~doc:
        "Simulated reproduction of GIL elimination in Ruby via hardware \
         transactional memory (PPoPP'14)"
  in
  exit (Cmd.eval (Cmd.group info [ run_cmd; exec_cmd; fig_cmd; list_cmd ]))
