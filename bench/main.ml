(* The benchmark harness.

   Part 1 regenerates every table and figure of the paper's evaluation
   (Figures 4-9 plus the Section 5.4/5.6 ablations) on the simulator, prints
   the same series the paper plots, dumps them all to BENCH_results.json and
   prints one digest per simulated-data member.

   Part 2 runs Bechamel micro-benchmarks of the simulator itself (host-side
   performance), one Test.make per experiment family, and asserts that the
   observability layer costs nothing when tracing is disabled (the default).

     dune exec bench/main.exe                      # everything
     dune exec bench/main.exe -- figures           # figures + BENCH_results.json
     dune exec bench/main.exe -- micro             # only the Bechamel suite
     dune exec bench/main.exe -- gates             # allocation gates only
     dune exec bench/main.exe -- validate [FILE]   # parse-check a results file
     BENCH_SIZE=test dune exec bench/main.exe      # quick pass *)

module J = Obs.Json

let fmt = Format.std_formatter
let results_file = "BENCH_results.json"

let size () =
  match Sys.getenv_opt "BENCH_SIZE" with
  | Some s -> Workloads.Size.of_string s
  | None -> Workloads.Size.S

(* Host wall time and process peak RSS per figure, collected into the
   results file's "host" object. Host measurements (and the "jobs" count)
   live OUTSIDE the "figures" member: "figures" is byte-identical across
   BENCH_JOBS settings, the host section is what legitimately varies. *)
let host_times : (string * J.t) list ref = ref []
let host_rss : (string * J.t) list ref = ref []

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

let time key name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  let dt = Unix.gettimeofday () -. t0 in
  let rss = peak_rss_mb () in
  Format.fprintf fmt "@.[%s took %.1fs, peak RSS %s]@." name dt
    (match rss with Some mb -> Printf.sprintf "%d MB" mb | None -> "n/a");
  host_times := (key, J.Float dt) :: !host_times;
  host_rss :=
    (key, match rss with Some mb -> J.Int mb | None -> J.Null) :: !host_rss;
  r

(* ---- JSON series for BENCH_results.json ---- *)

let breakdown_json (b : Core.Runner.breakdown) =
  J.Obj
    [
      ("txn_overhead", J.Int b.bd_txn_overhead);
      ("committed", J.Int b.bd_committed);
      ("aborted", J.Int b.bd_aborted);
      ("gil_held", J.Int b.bd_gil_held);
      ("gil_wait", J.Int b.bd_gil_wait);
      ("other", J.Int b.bd_other);
    ]

let outcome_json (o : Harness.Exp.outcome) =
  let r = o.Harness.Exp.result in
  J.Obj
    [
      ("wall_cycles", J.Int o.Harness.Exp.wall_cycles);
      ("throughput", J.Float o.Harness.Exp.throughput);
      ("abort_ratio", J.Float o.Harness.Exp.abort_ratio);
      ("gil_acquisitions", J.Int r.Core.Runner.gil_acquisitions);
      ("gc_runs", J.Int r.Core.Runner.gc_runs);
      ("breakdown", breakdown_json r.Core.Runner.breakdown);
    ]

(* A panel's sweep as a flat point list, deterministically ordered. *)
let panel_json (p : Harness.Figures.panel) =
  let points =
    Hashtbl.fold (fun key v acc -> (key, v) :: acc) p.Harness.Figures.cells []
    |> List.sort compare
    |> List.map (fun ((scheme, threads), speedup) ->
           let abort =
             Option.value
               (Hashtbl.find_opt p.Harness.Figures.aborts (scheme, threads))
               ~default:0.0
           in
           J.Obj
             [
               ("scheme", J.Str scheme);
               ("threads", J.Int threads);
               ("speedup", J.Float speedup);
               ("abort_ratio", J.Float abort);
             ])
  in
  J.Obj
    [
      ("workload", J.Str p.Harness.Figures.workload);
      ("machine", J.Str p.Harness.Figures.machine);
      ("baseline_wall", J.Int p.Harness.Figures.baseline_wall);
      ("points", J.List points);
    ]

let pair_series_json ~variant pairs =
  J.List
    (List.map
       (fun (name, baseline, changed) ->
         J.Obj
           [
             ("bench", J.Str name);
             ("baseline", outcome_json baseline);
             (variant, outcome_json changed);
           ])
       pairs)

(* FNV-1a over a serialized results member. The smoke script runs the
   sweep under several host settings and oracles and compares these
   digests: equality is the determinism acceptance check. *)
let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h :=
        Int64.mul
          (Int64.logxor !h (Int64.of_int (Char.code c)))
          0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

(* The five simulated-data digests on one line, "digests: figures=<hex>
   hybrid=<hex> …", so a smoke leg compares a single string and a mismatch
   names its member. Host times and the jobs count sit outside these
   members and may legitimately differ. *)
let digests_line doc =
  String.concat " "
    ("digests:"
    :: List.filter_map
         (fun m ->
           Option.map
             (fun j -> Printf.sprintf "%s=%s" m (fnv64 (J.to_string j)))
             (J.member m doc))
         [ "figures"; "hybrid"; "load"; "shard"; "clock" ])

(* The in-transaction read+write pair micro (the transactional counterpart
   of the non-transactional 16.8 -> 10.2 ns fast-flag micro), on the two
   paths an in-transaction access can take: every pair on the line the
   window already owns (a membership check, plus one undo entry per cell),
   or every pair on a fresh line (the full conflict, capacity and
   footprint bookkeeping). The machine has room for a window's worth of
   fresh lines, so neither shape ever aborts. Interleaved best-of-6 —
   alternating owned/fresh rounds and keeping each shape's minimum cancels
   host noise the way EXPERIMENTS.md's interleaved best-of-six protocol
   does. Returns (owned_ns, fresh_ns) per pair. *)
let intxn_pair_measure () =
  let txns = 200 and pairs = 512 in
  let machine =
    {
      Htm_sim.Machine.zec12 with
      Htm_sim.Machine.rs_lines = pairs;
      ws_lines = pairs;
    }
  in
  let lc = machine.Htm_sim.Machine.line_cells in
  let store = Htm_sim.Store.create ~dummy:0 ~line_cells:lc 4096 in
  let htm = Htm_sim.Htm.create machine store in
  Htm_sim.Htm.set_occupied htm 0 true;
  let region = Htm_sim.Store.reserve_aligned store (pairs * lc) in
  let loop addr_of =
    for _ = 1 to txns do
      Htm_sim.Htm.tbegin htm ~ctx:0 ~rollback:(fun _ -> ());
      for i = 0 to pairs - 1 do
        let addr = addr_of i in
        ignore (Htm_sim.Htm.read htm ~ctx:0 addr);
        Htm_sim.Htm.write htm ~ctx:0 addr i
      done;
      Htm_sim.Htm.tend htm ~ctx:0
    done
  in
  let owned i = region + (i land (lc - 1)) and fresh i = region + (i * lc) in
  let measure addr_of =
    loop addr_of;
    (* warm: scratch arrays grown, branch state settled *)
    let reps = 20 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      loop addr_of
    done;
    let dt = Unix.gettimeofday () -. t0 in
    dt *. 1e9 /. float_of_int (reps * txns * pairs)
  in
  (* one throwaway round per shape: the first timed windows otherwise
     absorb cold caches and whatever GC debt the caller left behind *)
  ignore (measure owned);
  ignore (measure fresh);
  let best_owned = ref infinity and best_fresh = ref infinity in
  for _ = 1 to 6 do
    best_owned := min !best_owned (measure owned);
    best_fresh := min !best_fresh (measure fresh)
  done;
  (!best_owned, !best_fresh)

let figures () =
  let size = size () in
  let figs = ref [] in
  let add name j = figs := (name, j) :: !figs in
  add "fig4"
    (time "fig4" "Figure 4" (fun () ->
         J.List (List.map panel_json (Harness.Figures.fig4 ~size fmt))));
  add "fig5"
    (time "fig5" "Figure 5" (fun () ->
         J.List (List.map panel_json (Harness.Figures.fig5 ~size fmt))));
  add "fig6a"
    (time "fig6a" "Figure 6a" (fun () ->
         J.List
           (List.map
              (fun (pt : Harness.Figures.fig6a_point) ->
                J.Obj
                  [
                    ("iteration", J.Int pt.iteration);
                    ("written_kb", J.Int pt.written_kb);
                    ("success_pct", J.Float pt.success_pct);
                  ])
              (Harness.Figures.fig6a fmt))));
  add "fig6b" (time "fig6b" "Figure 6b" (fun () -> panel_json (Harness.Figures.fig6b fmt)));
  add "fig7"
    (time "fig7" "Figure 7" (fun () ->
         J.List (List.map panel_json (Harness.Figures.fig7 ~size fmt))));
  add "fig8"
    (time "fig8" "Figure 8" (fun () ->
         J.List
           (List.map
              (fun ((workload, machine), series) ->
                J.Obj
                  [
                    ("workload", J.Str workload);
                    ("machine", J.Str machine);
                    ( "series",
                      J.List
                        (List.map
                           (fun (threads, o) ->
                             match outcome_json o with
                             | J.Obj fields ->
                                 J.Obj (("threads", J.Int threads) :: fields)
                             | j -> j)
                           series) );
                  ])
              (Harness.Figures.fig8 ~size fmt))));
  add "fig9"
    (time "fig9" "Figure 9" (fun () ->
         J.List
           (List.map
              (fun (bench, series) ->
                J.Obj
                  [
                    ("bench", J.Str bench);
                    ( "series",
                      J.List
                        (List.map
                           (fun (name, pts) ->
                             J.Obj
                               [
                                 ("name", J.Str name);
                                 ( "points",
                                   J.List
                                     (List.map
                                        (fun (threads, v) ->
                                          J.Obj
                                            [
                                              ("threads", J.Int threads);
                                              ("speedup", J.Float v);
                                            ])
                                        pts) );
                               ])
                           series) );
                  ])
              (Harness.Figures.fig9 ~size fmt))));
  add "ablation"
    (time "ablation" "Section 5.4 ablations" (fun () ->
         J.List
           (List.map
              (fun (bench, gil, dyn, orig_yield, no_removal) ->
                J.Obj
                  [
                    ("bench", J.Str bench);
                    ("gil", J.Float gil);
                    ("htm_dynamic", J.Float dyn);
                    ("original_yield_points", J.Float orig_yield);
                    ("no_conflict_removal", J.Float no_removal);
                  ])
              (Harness.Figures.ablation ~size fmt))));
  add "overhead"
    (time "overhead" "Section 5.6 overhead" (fun () ->
         J.List
           (List.map
              (fun (bench, pct) ->
                J.Obj [ ("bench", J.Str bench); ("overhead_pct", J.Float pct) ])
              (Harness.Figures.overhead ~size fmt))));
  add "future_work"
    (time "future_work" "Section 5.6 future work (lazy sweep)" (fun () ->
         pair_series_json ~variant:"lazy_sweep"
           (Harness.Figures.future_work ~size fmt)));
  add "refcount"
    (time "refcount" "Section 7 (CPython-style refcounting)" (fun () ->
         pair_series_json ~variant:"refcounted"
           (Harness.Figures.refcount ~size fmt)));
  (* The hybrid-TM panel lives OUTSIDE "figures" with its own digest: the
     "figures" member (and its digest) stays byte-identical to runs that
     predate the STM subsystem. *)
  let hybrid =
    time "hybrid" "Hybrid TM (STM fallback)" (fun () ->
        J.List
          (List.map
             (fun (p : Harness.Figures.panel) ->
               let fb name =
                 (Obs.Metrics.counter p.Harness.Figures.metrics name)
                   .Obs.Metrics.count
               in
               match panel_json p with
               | J.Obj fields ->
                   J.Obj
                     (fields
                     @ [
                         ("fallback_gil", J.Int (fb "fallback.gil"));
                         ("fallback_stm", J.Int (fb "fallback.stm"));
                       ])
               | j -> j)
             (Harness.Figures.fig_hybrid ~size fmt)))
  in
  (* The open-loop load panels also live OUTSIDE "figures", with their own
     digest, for the same reason as the hybrid member. *)
  let load =
    time "load" "Load figure (open loop)" (fun () ->
        J.List
          (List.map Harness.Figures.load_json
             (Harness.Figures.fig_load ~size fmt)))
  in
  (* The shard panels get their own member and digest for the same reason:
     the pre-existing members stay byte-identical to runs that predate the
     shard tier. The digest must also be identical at any SHARDS value —
     the CI placement legs compare it across SHARDS=1 and SHARDS=4. *)
  let shard_panels =
    time "shard" "Shard figure (sharded serving)" (fun () ->
        Harness.Figures.fig_shard ~size fmt)
  in
  let shard = J.List (List.map Harness.Figures.shard_json shard_panels) in
  (* The commit-clock/subscription ablation: its own member and digest,
     like hybrid/load/shard, so the pre-existing members stay byte-identical
     to runs that predate the clock subsystem. *)
  let clock_panels =
    time "clock" "Clock figure (commit clocks + subscription)" (fun () ->
        Harness.Figures.fig_clock ~size fmt)
  in
  let clock = J.List (List.map Harness.Figures.clock_json clock_panels) in
  let doc =
    J.Obj
      [
        ("producer", J.Str "bench/main.exe");
        ("size", J.Str (Workloads.Size.to_string size));
        ("jobs", J.Int (Harness.Pool.default_jobs ()));
        ("figures", J.Obj (List.rev !figs));
        ("hybrid", hybrid);
        ("load", load);
        ("shard", shard);
        ("clock", clock);
        ( "host",
          J.Obj
            (List.rev !host_times
            @ [ ("peak_rss_mb", J.Obj (List.rev !host_rss)) ]) );
      ]
  in
  J.to_file results_file doc;
  Format.fprintf fmt "@.%s@." (digests_line doc);
  Format.fprintf fmt "@.results -> %s@." results_file

(* ---- validate: parse-check a results file (used by the smoke script) ---- *)

let validate path =
  let text =
    try
      let ic = open_in path in
      let n = in_channel_length ic in
      let text = really_input_string ic n in
      close_in ic;
      text
    with Sys_error msg ->
      Format.eprintf "%s: cannot read: %s@." path msg;
      exit 1
  in
  match J.of_string text with
  | exception J.Parse_error msg ->
      Format.eprintf "%s: JSON parse error: %s@." path msg;
      exit 1
  | doc -> (
      match J.member "figures" doc with
      | Some (J.Obj figs) when figs <> [] ->
          Format.fprintf fmt "%s: ok (%d figure series)@.%s@." path
            (List.length figs) (digests_line doc)
      | _ ->
          Format.eprintf "%s: parsed, but no \"figures\" object@." path;
          exit 1)

(* ---- Bechamel micro-benchmarks of the simulator ---- *)

open Bechamel
open Toolkit

let run_guest ?tracer ?sched scheme source () =
  let cfg = Core.Runner.config ?tracer ?sched ~scheme Htm_sim.Machine.zec12 in
  ignore (Core.Runner.run_source cfg ~source)

let micro_source =
  "x = 0\ni = 0\nwhile i < 2000\n  x += i\n  i += 1\nend\nputs x"

let mt_source =
  {|total = Array.new(2, 0)
ths = []
t = 0
while t < 2
  ths << Thread.new(t) do |tid|
    s = 0
    i = 0
    while i < 1000
      s += i
      i += 1
    end
    total[tid] = s
  end
  t += 1
end
ths.each { |th| th.join }
puts total.sum|}

(* One Test.make per experiment family: how fast the simulator reproduces
   each kind of measurement. *)
let micro_tests =
  [
    (* Figure 4 family: single-threaded interpreter + GIL *)
    Test.make ~name:"fig4:interp-gil"
      (Staged.stage (run_guest Core.Scheme.Gil_only micro_source));
    (* Figure 5 family: transactional execution *)
    Test.make ~name:"fig5:interp-htm-dynamic"
      (Staged.stage (run_guest Core.Scheme.Htm_dynamic mt_source));
    (* Figure 6 family: raw HTM engine begin/write/commit *)
    Test.make ~name:"fig6:htm-engine"
      (Staged.stage (fun () ->
           let machine = Htm_sim.Machine.xeon_e3 in
           let store =
             Htm_sim.Store.create ~dummy:0 ~line_cells:machine.line_cells 4096
           in
           let htm = Htm_sim.Htm.create machine store in
           Htm_sim.Htm.set_occupied htm 0 true;
           let region = Htm_sim.Store.reserve_aligned store 1024 in
           for _ = 1 to 100 do
             Htm_sim.Htm.tbegin htm ~ctx:0 ~rollback:(fun _ -> ());
             for i = 0 to 63 do
               Htm_sim.Htm.write htm ~ctx:0 (region + (i * 8)) i
             done;
             Htm_sim.Htm.tend htm ~ctx:0
           done));
    (* Figure 7 family: the server stack's regex routing *)
    Test.make ~name:"fig7:regex-route"
      (Staged.stage (fun () ->
           let re = Regexsim.compile "^/books/([0-9]+)$" in
           for i = 0 to 99 do
             ignore (Regexsim.search re (Printf.sprintf "/books/%d" i))
           done));
    (* Figure 8 family: compilation pipeline feeding the abort studies *)
    Test.make ~name:"fig8:compile-npb"
      (Staged.stage (fun () ->
           ignore
             (Rvm.Compiler.compile_string
                (Workloads.Npb_cg.source ~threads:4 ~size:Workloads.Size.Test))));
    (* Figure 9 family: coherent (lock-based) execution mode *)
    Test.make ~name:"fig9:interp-fine-grained"
      (Staged.stage (run_guest Core.Scheme.Fine_grained mt_source));
    (* Scheduler tentpole: the same multithreaded guest under the min-heap
       run-ahead scheduler and under the reference linear scan *)
    Test.make ~name:"sched:heap-runahead"
      (Staged.stage
         (run_guest ~sched:Core.Runner.Sched_heap Core.Scheme.Htm_dynamic
            mt_source));
    Test.make ~name:"sched:ref-scan"
      (Staged.stage
         (run_guest ~sched:Core.Runner.Sched_ref Core.Scheme.Htm_dynamic
            mt_source));
  ]

let estimate test =
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances test in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Hashtbl.fold
    (fun name res acc ->
      match Analyze.OLS.estimates res with
      | Some (est :: _) ->
          Format.fprintf fmt "%-28s %12.0f ns/run@." name est;
          est :: acc
      | _ -> acc)
    results []
  |> function
  | est :: _ -> est
  | [] -> nan

(* Acceptance gate: the observability instrumentation must be free when
   tracing is off. A config carrying a disabled sink exercises every
   [match tracer with Some ...] site plus the sink's own enabled check; it
   must stay within 5% of the tracer-less Figure 4 micro path. Re-measured
   once before failing, since single Bechamel estimates carry noise. *)
let tracing_overhead_check () =
  Format.fprintf fmt "@.=== disabled-tracing overhead (Figure 4 micro path) ===@.";
  let measure () =
    let base =
      estimate
        (Test.make ~name:"fig4:trace-absent"
           (Staged.stage (run_guest Core.Scheme.Gil_only micro_source)))
    in
    let disabled_sink = Obs.Trace.create ~enabled:false () in
    let disabled =
      estimate
        (Test.make ~name:"fig4:trace-disabled"
           (Staged.stage
              (run_guest ~tracer:disabled_sink Core.Scheme.Gil_only micro_source)))
    in
    100.0 *. (disabled -. base) /. base
  in
  let rec go attempts =
    let overhead = measure () in
    Format.fprintf fmt "disabled-tracing overhead: %+.1f%% (budget 5%%)@."
      overhead;
    if overhead > 5.0 then
      if attempts > 1 then go (attempts - 1)
      else begin
        Format.eprintf "FAIL: disabled tracing costs more than 5%%@.";
        exit 1
      end
  in
  go 3

(* A faithful replica of the line-table representation the engine used
   before the flat-array rewrite: one heap record per line in an
   [(int, line) Hashtbl.t], plus per-transaction undo/touched association
   lists. It does the same bookkeeping per access as the old write path —
   lookup-or-insert, mark, record the touched line, log the old value. *)
module Hashtbl_replica = struct
  type line = { mutable writer : int; mutable last_writer : int }

  type t = {
    lines : (int, line) Hashtbl.t;
    cells : int array;
    line_cells : int;
    mutable undo : (int * int) list;
    mutable touched : int list;
  }

  let create ~line_cells n =
    {
      lines = Hashtbl.create 256;
      cells = Array.make n 0;
      line_cells;
      undo = [];
      touched = [];
    }

  let tbegin t =
    t.undo <- [];
    t.touched <- []

  let write t addr v =
    let id = addr / t.line_cells in
    let l =
      match Hashtbl.find_opt t.lines id with
      | Some l -> l
      | None ->
          let l = { writer = -1; last_writer = -1 } in
          Hashtbl.add t.lines id l;
          l
    in
    if l.writer <> 0 then begin
      l.writer <- 0;
      t.touched <- id :: t.touched
    end;
    t.undo <- (addr, t.cells.(addr)) :: t.undo;
    t.cells.(addr) <- v

  let tend t =
    List.iter
      (fun id ->
        let l = Hashtbl.find t.lines id in
        l.writer <- -1;
        l.last_writer <- 0)
      t.touched;
    t.undo <- [];
    t.touched <- []
end

(* The same begin / 64 sparse writes / commit loop against the real engine
   and against the replica, engines hoisted out so both measure steady
   state. *)
let engine_loops () =
  let machine = Htm_sim.Machine.xeon_e3 in
  let store =
    Htm_sim.Store.create ~dummy:0 ~line_cells:machine.line_cells 4096
  in
  let htm = Htm_sim.Htm.create machine store in
  Htm_sim.Htm.set_occupied htm 0 true;
  let region = Htm_sim.Store.reserve_aligned store 1024 in
  let flat () =
    for _ = 1 to 100 do
      Htm_sim.Htm.tbegin htm ~ctx:0 ~rollback:(fun _ -> ());
      for i = 0 to 63 do
        Htm_sim.Htm.write htm ~ctx:0 (region + (i * 8)) i
      done;
      Htm_sim.Htm.tend htm ~ctx:0
    done
  in
  let replica_t = Hashtbl_replica.create ~line_cells:machine.line_cells 4096 in
  let replica () =
    for _ = 1 to 100 do
      Hashtbl_replica.tbegin replica_t;
      for i = 0 to 63 do
        Hashtbl_replica.write replica_t (region + (i * 8)) i
      done;
      Hashtbl_replica.tend replica_t
    done
  in
  (flat, replica)

(* Acceptance gate for the flat-array line tables: the real engine must
   beat the Hashtbl replica on the same loop, even though the replica does
   none of the engine's conflict detection, capacity or stats work.
   Re-measured before failing, like the tracing check. *)
let flat_vs_hashtbl_check () =
  Format.fprintf fmt
    "@.=== flat line tables vs the previous Hashtbl representation ===@.";
  let flat_loop, replica_loop = engine_loops () in
  let rec go attempts =
    let flat =
      estimate (Test.make ~name:"htm:flat-engine" (Staged.stage flat_loop))
    in
    let replica =
      estimate
        (Test.make ~name:"htm:hashtbl-replica" (Staged.stage replica_loop))
    in
    Format.fprintf fmt "flat/hashtbl ratio: %.2fx faster@." (replica /. flat);
    if flat >= replica then
      if attempts > 1 then go (attempts - 1)
      else begin
        Format.eprintf "FAIL: flat line tables no faster than the Hashtbl replica@.";
        exit 1
      end
  in
  go 3

(* Acceptance gate for the in-transaction access path: a read+write pair
   on a line the window already owns must cost at most 0.8x a pair on a
   fresh line, measured interleaved best-of-six. Re-measured before
   failing, like the flat-vs-hashtbl check. *)
let intxn_pair_check () =
  Format.fprintf fmt
    "@.=== in-transaction read+write pair: owned vs fresh line ===@.";
  let rec go attempts =
    let owned_ns, fresh_ns = intxn_pair_measure () in
    Format.fprintf fmt
      "in-txn pair: %.1f ns on an owned line, %.1f ns on a fresh line \
       (%.2fx)@."
      owned_ns fresh_ns (fresh_ns /. owned_ns);
    if owned_ns > 0.8 *. fresh_ns then
      if attempts > 1 then go (attempts - 1)
      else begin
        Format.eprintf
          "FAIL: owned-line in-transaction pair under 1.25x ahead of a \
           fresh-line pair@.";
        exit 1
      end
  in
  go 3

(* Acceptance gate for the scratch-array transaction state: once the line
   tables and scratch arrays are warm, a transactional access must not
   allocate. The budget absorbs the boxed floats [Gc.minor_words] itself
   returns. *)
let zero_alloc_check () =
  Format.fprintf fmt
    "@.=== steady-state allocation per transactional access ===@.";
  let machine = Htm_sim.Machine.zec12 in
  let store =
    Htm_sim.Store.create ~dummy:0 ~line_cells:machine.line_cells 4096
  in
  let htm = Htm_sim.Htm.create machine store in
  Htm_sim.Htm.set_occupied htm 0 true;
  let region = Htm_sim.Store.reserve_aligned store 1024 in
  let txns = 2_000 and writes = 64 in
  let loop () =
    for _ = 1 to txns do
      Htm_sim.Htm.tbegin htm ~ctx:0 ~rollback:(fun _ -> ());
      for i = 0 to writes - 1 do
        Htm_sim.Htm.write htm ~ctx:0 (region + (i * 8)) i
      done;
      for i = 0 to writes - 1 do
        ignore (Htm_sim.Htm.read htm ~ctx:0 (region + (i * 8)))
      done;
      Htm_sim.Htm.tend htm ~ctx:0
    done
  in
  loop ();
  (* warm: scratch arrays grown *)
  let w0 = Gc.minor_words () in
  loop ();
  let w1 = Gc.minor_words () in
  let accesses = float_of_int (txns * writes * 2) in
  let per_access = (w1 -. w0) /. accesses in
  Format.fprintf fmt "%.5f minor words per access (budget 0.01)@." per_access;
  if per_access > 0.01 then begin
    Format.eprintf "FAIL: transactional accesses allocate in steady state@.";
    exit 1
  end

(* Acceptance gate for the interpreter fast paths + run-ahead scheduler:
   the marginal cost of one more interpreted instruction must be nearly
   allocation-free. Comparing a long and a short run of the same int loop
   cancels the fixed compile/boot allocations; what remains is the step
   loop itself (small-int results are interned, step costs drain without
   tupling, scheduling is a heap-root comparison). *)
let step_alloc_check () =
  Format.fprintf fmt "@.=== steady-state allocation per interpreted instruction ===@.";
  let loop_source n =
    Printf.sprintf "x = 0\ni = 0\nwhile i < %d\n  x += i\n  i += 1\nend\nputs x" n
  in
  let measure n =
    let cfg =
      Core.Runner.config ~scheme:Core.Scheme.Gil_only Htm_sim.Machine.zec12
    in
    let w0 = Gc.minor_words () in
    let r = Core.Runner.run_source cfg ~source:(loop_source n) in
    (Gc.minor_words () -. w0, float_of_int r.Core.Runner.total_insns)
  in
  ignore (measure 1_000);
  (* warm: intern table, code caches *)
  let w_short, i_short = measure 1_000 in
  let w_long, i_long = measure 200_000 in
  let per_insn = (w_long -. w_short) /. (i_long -. i_short) in
  Format.fprintf fmt "%.4f minor words per instruction (budget 0.5)@." per_insn;
  if per_insn > 0.5 then begin
    Format.eprintf "FAIL: interpreter step loop allocates in steady state@.";
    exit 1
  end

(* Exact acceptance gate for the interpreter: [Interp.step] matches the
   tagged bytecode without building anything, sends dispatch straight off
   their cache slot, and the step executor charges costs from a table, so
   the marginal interpreted instruction must be exactly allocation-free in
   steady state. The guest keeps every value inside the small-int intern
   range — boxing a large [VInt] is a guest allocation, not a
   dispatch-loop one — and the tiny budget only absorbs the boxed floats
   [Gc.minor_words] itself returns. *)
let intern_step_alloc_check () =
  Format.fprintf fmt
    "@.=== steady-state allocation per instruction, intern range ===@.";
  let loop_source n =
    Printf.sprintf
      "x = 0\ni = 0\nwhile i < %d\n  x = (x + i) %% 256\n  i += 1\nend\nputs x"
      n
  in
  let measure n =
    let cfg =
      Core.Runner.config ~scheme:Core.Scheme.Gil_only Htm_sim.Machine.zec12
    in
    let w0 = Gc.minor_words () in
    let r = Core.Runner.run_source cfg ~source:(loop_source n) in
    (Gc.minor_words () -. w0, float_of_int r.Core.Runner.total_insns)
  in
  ignore (measure 1_000);
  (* warm: intern table, dcode cache *)
  let w_short, i_short = measure 1_000 in
  let w_long, i_long = measure 50_000 in
  let per_insn = (w_long -. w_short) /. (i_long -. i_short) in
  Format.fprintf fmt "%.5f minor words per instruction (budget 0.01)@."
    per_insn;
  if per_insn > 0.01 then begin
    Format.eprintf "FAIL: interpreter loop allocates in steady state@.";
    exit 1
  end

(* Acceptance gate for the scheduler round trip at one instruction per
   slice: twelve threads of the same int loop under HTM-dynamic on zEC12
   keep every context's clock within an instruction of the others, so the
   runner re-picks after nearly every instruction. The pick
   ([Sched.take_min], no option), the context-switch trace site (disabled)
   and the per-window begin/commit path must all be allocation-free; the
   difference method cancels boot, spawn and compile allocation. *)
let slice_alloc_check () =
  Format.fprintf fmt
    "@.=== steady-state allocation per instruction at 12 threads (HTM) ===@.";
  let loop_source n =
    Printf.sprintf
      "threads = []\n\
       t = 0\n\
       while t < 12\n\
      \  threads << Thread.new(t) do |tid|\n\
      \    x = 0\n\
      \    i = 0\n\
      \    while i < %d\n\
      \      x = (x + i) %% 256\n\
      \      i += 1\n\
      \    end\n\
      \  end\n\
      \  t += 1\n\
       end\n\
       threads.each { |th| th.join }\n\
       puts 0"
      n
  in
  let measure n =
    let cfg =
      Core.Runner.config ~scheme:Core.Scheme.Htm_dynamic Htm_sim.Machine.zec12
    in
    let w0 = Gc.minor_words () in
    let r = Core.Runner.run_source cfg ~source:(loop_source n) in
    let slices =
      (Obs.Metrics.histogram r.Core.Runner.metrics "sched.slice_insns")
        .Obs.Metrics.n
    in
    ( Gc.minor_words () -. w0,
      float_of_int r.Core.Runner.total_insns,
      float_of_int slices )
  in
  ignore (measure 500);
  (* warm: intern table, dcode cache *)
  let w_short, i_short, s_short = measure 500 in
  let w_long, i_long, s_long = measure 5_000 in
  let per_insn = (w_long -. w_short) /. (i_long -. i_short) in
  Format.fprintf fmt
    "%.5f minor words per instruction at %.2f instructions per slice (budget \
     0.01)@."
    per_insn
    ((i_long -. i_short) /. (s_long -. s_short));
  if per_insn > 0.01 then begin
    Format.eprintf "FAIL: one-instruction slices allocate in steady state@.";
    exit 1
  end

(* Acceptance gate for the STM engine's flat redo/read-set state: once the
   generation-stamped tables are warm, a software-transactional access
   (begin / read / write / validate / commit loop) must not allocate. Uses
   an int store so no values box. *)
let stm_alloc_check () =
  Format.fprintf fmt
    "@.=== steady-state allocation per software-transactional access ===@.";
  let machine = Htm_sim.Machine.zec12 in
  let store =
    Htm_sim.Store.create ~dummy:0 ~line_cells:machine.line_cells 4096
  in
  let htm = Htm_sim.Htm.create machine store in
  Htm_sim.Htm.set_occupied htm 0 true;
  let stm = Stm.create ~mk_clock:(fun n -> n) htm in
  let region = Htm_sim.Store.reserve_aligned store 1024 in
  let txns = 2_000 and writes = 64 in
  let loop () =
    for _ = 1 to txns do
      Stm.begin_ stm ~ctx:0 ~rollback:(fun _ -> ());
      for i = 0 to writes - 1 do
        Htm_sim.Htm.write htm ~ctx:0 (region + (i * 8)) i
      done;
      for i = 0 to writes - 1 do
        ignore (Htm_sim.Htm.read htm ~ctx:0 (region + (i * 8)))
      done;
      assert (Stm.validate stm ~ctx:0 < 0);
      Stm.commit stm ~ctx:0
    done
  in
  loop ();
  (* warm: redo log, write table and read set grown *)
  let w0 = Gc.minor_words () in
  loop ();
  let w1 = Gc.minor_words () in
  let accesses = float_of_int (txns * writes * 2) in
  let per_access = (w1 -. w0) /. accesses in
  Format.fprintf fmt "%.5f minor words per access (budget 0.01)@." per_access;
  if per_access > 0.01 then begin
    Format.eprintf "FAIL: software-transactional accesses allocate in steady state@.";
    exit 1
  end

(* The Gc-based gates alone, without the Bechamel suite: cheap enough for
   the smoke script and CI to run on every push. *)
let gates () =
  zero_alloc_check ();
  stm_alloc_check ();
  step_alloc_check ();
  intern_step_alloc_check ();
  slice_alloc_check ();
  intxn_pair_check ()

let micro () =
  Format.fprintf fmt "@.=== Bechamel: simulator micro-benchmarks ===@.";
  List.iter (fun test -> ignore (estimate test)) micro_tests;
  tracing_overhead_check ();
  flat_vs_hashtbl_check ();
  zero_alloc_check ();
  stm_alloc_check ();
  step_alloc_check ();
  intern_step_alloc_check ();
  slice_alloc_check ();
  intxn_pair_check ()

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  (match what with
  | "figures" -> figures ()
  | "micro" -> micro ()
  | "gates" -> gates ()
  | "validate" ->
      let path = if Array.length Sys.argv > 2 then Sys.argv.(2) else results_file in
      validate path
  | _ ->
      figures ();
      micro ());
  Format.fprintf fmt "@.bench: done@."
