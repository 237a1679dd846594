(* htm-gil: command-line driver.

     htm-gil run --workload cg --machine zec12 --scheme htm-dynamic -t 12
     htm-gil exec file.rb --scheme gil
     htm-gil fig fig5            (regenerate a figure from the paper)
     htm-gil fig all --json r.json && htm-gil digests r.json
     htm-gil list                (available workloads)

   All execution is simulated: workloads run on the MiniRuby VM over the
   HTM/multicore model described in DESIGN.md. *)

open Cmdliner

(* Every flag value goes through its parser here: a bad value prints the
   parser's [Invalid_argument] message and exits 1. *)
let parse f v =
  try f v
  with Invalid_argument msg ->
    Format.eprintf "%s@." msg;
    exit 1

(* A count flag's parser: [n] unless it is below [lo]. *)
let at_least flag lo n =
  if n < lo then
    invalid_arg (Printf.sprintf "%s %d: must be at least %d" flag n lo)
  else n

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
     pressure), or lazy-safe (lazy plus abort-all-hardware at GC start, \
     the Dice et al. hardware fix; runs on any machine). Defaults to \
     eager."
  in
  Arg.(
    value
    & opt (some string) None
    & info [ "subscription" ] ~docv:"POLICY" ~doc)

(* ---- open-loop load-generation flags (server workloads) ---- *)

let arrivals_arg =
  let doc =
    "Arrival process for server workloads: closed (the think-time loop, \
     default), poisson, or burst:N (groups of N simultaneous arrivals)."
  in
  Arg.(value & opt string "closed" & info [ "arrivals" ] ~docv:"MODE" ~doc)

let offered_load_arg =
  let doc =
    "Open-loop offered load in requests per second of virtual time (needs \
     --arrivals poisson or burst:N). Defaults to 4000."
  in
  Arg.(
    value & opt (some float) None & info [ "offered-load" ] ~docv:"RPS" ~doc)

(* ---- shard-tier flags (server workloads, open-loop arrivals) ---- *)

let shards_arg =
  let doc =
    "Serve the open-loop stream with $(docv) complete VM shards, arrival i \
     going to shard i mod $(docv) (0 = the single-VM path). Every shard \
     honours every simulation flag; --trace, --trace-out, --metrics-json, \
     --latency-json and --abort-report are refused with it. BENCH_JOBS sets \
     how many worker domains run them; results are bit-identical at any \
     value."
  in
  Arg.(value & opt int 0 & info [ "shards" ] ~docv:"N" ~doc)

let session_arg =
  let doc =
    "Also replay the shards' completions against one shared cross-shard \
     session store mediated by the hybrid TM engine (the \
     contended-vs-shared-nothing ablation). Needs --shards."
  in
  Arg.(value & flag & info [ "shared-session" ] ~doc)

let mix_arg =
  let doc =
    "Draw each open-loop request from the workload's weighted class mix \
     (static/ORM/regex) instead of the single default request (server \
     workloads, open-loop arrivals)."
  in
  Arg.(value & flag & info [ "mix" ] ~doc)

let latency_json_arg =
  let doc =
    "Write the run's request-latency summary (offered vs achieved load, \
     drop/timeout accounting, p50/p95/p99 latency) to $(docv) as JSON \
     (server workloads, without --shards)."
  in
  Arg.(value & opt (some string) None & info [ "latency-json" ] ~docv:"FILE" ~doc)

let parse_arrivals rate mode =
  let seed = Harness.Figures.load_seed in
  let open_loop arrivals =
    if rate > 0.0 then arrivals
    else invalid_arg (Printf.sprintf "--offered-load %g: must be > 0" rate)
  in
  match String.lowercase_ascii mode with
  | "closed" -> Netsim.Closed
  | "poisson" -> open_loop (Netsim.Poisson { rate; seed })
  | "burst" -> open_loop (Netsim.Burst { rate; size = 8; seed })
  | m -> (
      match
        if String.starts_with ~prefix:"burst:" m then
          int_of_string_opt (String.sub m 6 (String.length m - 6))
        else None
      with
      | Some size when size > 0 -> open_loop (Netsim.Burst { rate; size; seed })
      | Some _ -> invalid_arg ("--arrivals " ^ m ^ ": burst size must be > 0")
      | None ->
          invalid_arg
            ("unknown arrival mode " ^ m ^ " (closed, poisson, burst:N)"))

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
      ("breakdown", Harness.Exp.breakdown_json r.breakdown);
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

(* Guest input that fails ends the command with a message naming [origin]
   (the source file, or the workload) and an exit code per cause. *)
let exits =
  Cmd.Exit.info 1
    ~doc:"on a bad flag value, or a combination of flags that cannot apply."
  :: Cmd.Exit.info 2 ~doc:"when the guest source does not lex, parse or compile."
  :: Cmd.Exit.info 3 ~doc:"on a guest error, such as an undefined method."
  :: Cmd.Exit.info 4
       ~doc:"when the guest is stuck: deadlock, or the instruction budget ran out."
  :: Cmd.Exit.defaults

let guarded origin f =
  let fail code =
    Format.kfprintf (fun _ -> exit code) Format.err_formatter
  in
  try f () with
  | Rvm.Lexer.Error (msg, line) | Rvm.Parser.Error (msg, line) ->
      fail 2 "%s:%d: %s@." origin line msg
  | Rvm.Compiler.Error msg -> fail 2 "%s: %s@." origin msg
  | Core.Runner.Guest_failure msg -> fail 3 "%s: guest error: %s@." origin msg
  | Core.Runner.Stuck msg -> fail 4 "%s: %s@." origin msg

let parse_common machine scheme yield_points no_removal lazy_sweep refcount =
  let machine = parse Htm_sim.Machine.by_name machine in
  let scheme = parse Core.Scheme.of_string scheme in
  let yield_points = parse Core.Yield_points.of_string yield_points in
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
  Format.printf "@.-- %d shards, round-robin balancing --@."
    r.Harness.Shard.r_shards;
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
      clock subscription arrivals offered_load shards shared_session mix
      latency_json trace trace_out metrics_json abort_report =
    let w =
      match Workloads.Workload.find workload with
      | Some w -> w
      | None ->
          Format.eprintf "unknown workload %s@." workload;
          exit 1
    in
    let machine, scheme, yield_points, opts =
      parse_common machine scheme yield_points no_removal lazy_sweep refcount
    in
    let size = parse Workloads.Size.of_string size in
    let threads = parse (at_least "-t" 1) threads in
    let shards = parse (at_least "--shards" 0) shards in
    let clock = Option.map (parse Tm_clock.scheme_of_string) clock in
    let subscription =
      Option.map (parse Htm_sim.Subscription.of_string) subscription
    in
    let arrivals =
      parse
        (parse_arrivals (Option.value offered_load ~default:4_000.0))
        arrivals
    in
    let server = w.Workloads.Workload.kind = Workloads.Workload.Server in
    let open_loop =
      match arrivals with Netsim.Poisson _ | Netsim.Burst _ -> true | _ -> false
    in
    let sharded = shards > 0 in
    (* every combination that cannot apply is refused, never dropped *)
    List.iter
      (fun (refused, msg) ->
        if refused then begin
          Format.eprintf "%s@." msg;
          exit 1
        end)
      [
        (open_loop && not server, "--arrivals only applies to server workloads");
        ( offered_load <> None && not open_loop,
          "--offered-load needs open-loop arrivals (--arrivals poisson or \
           burst:N)" );
        ( mix && w.Workloads.Workload.mix = [],
          "--mix: workload " ^ workload ^ " has no request mix" );
        ( mix && not open_loop,
          "--mix needs open-loop arrivals (--arrivals poisson/burst:N)" );
        ( latency_json <> None && not server,
          "--latency-json only applies to server workloads" );
        ( sharded && not open_loop,
          "--shards needs open-loop arrivals (--arrivals poisson or burst:N)" );
        (shared_session && not sharded, "--shared-session needs --shards");
        (sharded && trace, "--trace does not apply with --shards");
        (sharded && trace_out <> None, "--trace-out does not apply with --shards");
        ( sharded && metrics_json <> None,
          "--metrics-json does not apply with --shards" );
        ( sharded && latency_json <> None,
          "--latency-json does not apply with --shards" );
        (sharded && abort_report, "--abort-report does not apply with --shards");
      ];
    let p =
      Harness.Exp.point ?clock ?subscription
        ?tracer:(make_tracer ~trace ~trace_out)
        ~yield_points ~opts ~arrivals
        ~mix:(if mix then w.Workloads.Workload.mix else [])
        ~workload:w ~machine ~scheme ~threads ~size ()
    in
    guarded workload @@ fun () ->
    if sharded then
      print_shard_result
        (Harness.Shard.run
           (Harness.Shard.of_point ~shared_session ~shards
              ~requests:(w.Workloads.Workload.server_requests size)
              p))
    else begin
      let o = Harness.Exp.run p in
      print_outcome ~quiet o;
      (match (latency_json, o.Harness.Exp.load) with
      | Some path, Some l ->
          write_json_or_die path (Harness.Exp.load_json l);
          Format.eprintf "latency -> %s@." path
      | _ -> ());
      emit_observability ~trace ~trace_out ~metrics_json ~abort_report
        o.Harness.Exp.result
    end
  in
  Cmd.v (Cmd.info "run" ~exits ~doc:"Run one workload under one scheme")
    Term.(
      const run $ workload_arg $ machine_arg $ scheme_arg $ threads_arg
      $ size_arg $ yield_arg $ baseline_opts_arg $ lazy_sweep_arg
      $ refcount_arg $ quiet_arg $ clock_arg $ subscription_arg
      $ arrivals_arg $ offered_load_arg $ shards_arg $ session_arg $ mix_arg
      $ latency_json_arg $ trace_arg $ trace_out_arg $ metrics_json_arg
      $ abort_report_arg)

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
    let clock = Option.map (parse Tm_clock.scheme_of_string) clock in
    let subscription =
      Option.map (parse Htm_sim.Subscription.of_string) subscription
    in
    let source = In_channel.with_open_bin file In_channel.input_all in
    let tracer = make_tracer ~trace ~trace_out in
    let cfg =
      Core.Runner.config ?tracer ?clock ?subscription ~scheme
        ~yield_points ~opts machine
    in
    let r = guarded file (fun () -> Core.Runner.run_source cfg ~source) in
    if not quiet then print_string r.Core.Runner.output;
    Format.printf "@.wall=%d cycles, %d instructions, %a@." r.wall_cycles
      r.total_insns Htm_sim.Stats.pp r.htm_stats;
    emit_observability ~trace ~trace_out ~metrics_json ~abort_report r
  in
  Cmd.v
    (Cmd.info "exec" ~exits ~doc:"Execute a MiniRuby file on the simulated VM")
    Term.(
      const run $ file_arg $ machine_arg $ scheme_arg $ yield_arg
      $ baseline_opts_arg $ lazy_sweep_arg $ refcount_arg $ quiet_arg
      $ clock_arg $ subscription_arg $ trace_arg $ trace_out_arg
      $ metrics_json_arg $ abort_report_arg)

(* Process peak RSS in MB ([VmHWM] from /proc/self/status), or [None] where
   that file is missing. *)
let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | l when String.starts_with ~prefix:"VmHWM:" l ->
            Scanf.sscanf_opt (String.sub l 6 (String.length l - 6)) " %d"
              (fun kb -> kb / 1024)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let fig_cmd =
  let module F = Harness.Figures in
  let which_arg =
    let doc =
      "Figure family: "
      ^ String.concat " " (List.map (fun f -> f.F.name) F.families)
      ^ ", or all."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FIGURE" ~doc)
  in
  let size_arg =
    let doc = "Problem size class for the sweep (test, s, w)." in
    Arg.(value & opt string "s" & info [ "size" ] ~docv:"SIZE" ~doc)
  in
  let json_arg =
    let doc =
      "Also write the results file to $(docv): every family's series, with \
       host seconds and peak RSS per family under $(b,host). $(b,digests) \
       checks and digests it."
    in
    Arg.(value & opt (some string) None & info [ "json" ] ~docv:"FILE" ~doc)
  in
  let run which size json =
    let size = parse Workloads.Size.of_string size in
    let families =
      if which = "all" then F.families
      else
        match List.find_opt (fun f -> f.F.name = which) F.families with
        | Some f -> [ f ]
        | None ->
            Format.eprintf "unknown figure %s@." which;
            exit 1
    in
    let timed f =
      let t0 = Unix.gettimeofday () in
      let j = f.F.run size Format.std_formatter in
      let secs = Unix.gettimeofday () -. t0 and rss = peak_rss_mb () in
      Format.printf "@.[%s took %.1fs, peak RSS %s]@." f.F.name secs
        (match rss with Some mb -> Printf.sprintf "%d MB" mb | None -> "n/a");
      (f, j, secs, rss)
    in
    let runs = List.map timed families in
    Option.iter
      (fun path ->
        write_json_or_die path (F.results ~size runs);
        Format.eprintf "results -> %s@." path)
      json
  in
  Cmd.v (Cmd.info "fig" ~doc:"Regenerate a figure from the paper")
    Term.(const run $ which_arg $ size_arg $ json_arg)

let digests_cmd =
  let file_arg =
    let doc = "Results file written by $(b,fig all --json)." in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let run path =
    let fail msg =
      Format.eprintf "%s: %s@." path msg;
      exit 1
    in
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg ->
        Format.eprintf "%s@." msg;
        exit 1
    | text -> (
        match Obs.Json.of_string text with
        | exception Obs.Json.Parse_error msg -> fail ("malformed JSON: " ^ msg)
        | doc -> (
            match Harness.Figures.digests doc with
            | Ok line -> print_endline ("digests: " ^ line)
            | Error problems -> fail (String.concat "; " problems)))
  in
  let exits =
    Cmd.Exit.info 1
      ~doc:"when the file is unreadable, is not JSON, or lacks a member or series."
    :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "digests" ~exits
       ~doc:
         "Check that a results file holds every member and figure series, \
          and print one FNV-1a digest per simulated-data member")
    Term.(const run $ file_arg)

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
  exit
    (Cmd.eval
       (Cmd.group info [ run_cmd; exec_cmd; fig_cmd; digests_cmd; list_cmd ]))
