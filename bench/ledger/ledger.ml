(* The repository's benchmark: four workloads of simulator cells, end-to-end
   host and simulated metrics, per-layer unit costs reconciled against the
   exact event counts the cells report.

     ledger.exe run --workload W --seed N --seconds S --trace 0|1
         [--out FILE] [--trace-file FILE]
     ledger.exe run [...]          every workload, each in its own process
     ledger.exe compare A.json B.json [--bench BENCHMARK.json]
     ledger.exe smoke              one test-size cell per workload, checks only

   A run makes one warm-up pass and N timed passes over the workload's
   cells, N fixed by --seconds (see [passes_for]) so two commits run at the
   same --seconds do identical work. Its last stdout line is one JSON
   object: {"correct", "attempted", "failed", "metrics"}, the metrics being
   the end-to-end ones (--trace 0) or the per-layer ones (--trace 1). *)

module J = Obs.Json

let size = Workloads.Size.S

(* Settings that would change what the benchmark measures. Its results are
   comparable across commits only under the library defaults. *)
let refused_env =
  [ "BENCH_INTERP"; "BENCH_SCHED"; "BENCH_HOT"; "BENCH_CLOCK"; "BENCH_SUB";
    "BENCH_JOBS"; "SHARDS" ]

(* Host seconds of one pass of each workload when the benchmark was written
   (2 vCPUs of an Intel Xeon, x86-64); they fix N, not any result. *)
let nominal_pass_s = function
  | "npb-htm" -> 4.0
  | "npb-gil" -> 1.3
  | "hybrid-capacity" -> 4.0
  | _ -> 5.0

let passes_for workload seconds =
  max 3 (int_of_float (Float.round (float_of_int seconds /. nominal_pass_s workload)))

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("ledger: " ^ s); exit 2) fmt

let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* ---- passes ---- *)

type pass = {
  outs : Cells.outcome list;
  digest : string;
  probes : float list;  (** host-speed loop times, one before each cell *)
}

let ok_sims outs =
  List.filter_map
    (fun (o : Cells.outcome) ->
      match o.result with Ok s -> Some (o.cell, s) | Error _ -> None)
    outs

(* Before each cell, outside its timed part, a full major collection runs
   (one cell's garbage then neither inflates the next cell's time nor piles
   up into the peak RSS of the whole pass) and the host-speed loop is
   timed. *)
let run_pass ?(label = "pass") cells ~seed =
  let runs =
    Spans.record label (fun () ->
        List.map
          (fun c ->
            let probe = Speed.sample () in
            (Cells.run c ~size ~seed, probe))
          cells)
  in
  let outs = List.map fst runs in
  let text (o : Cells.outcome) =
    match o.result with
    | Ok s -> s.digest_text
    | Error msg -> o.cell.id ^ " failed: " ^ msg
  in
  {
    outs;
    digest = fnv64 (String.concat "\n" (List.map text outs));
    probes = List.map snd runs;
  }

(* ---- host timings ---- *)

(* Host noise only ever adds time, and much of it comes in bursts shorter
   than a cell. So a run's estimate of a host time is, per cell, the best
   of its timed passes, summed over the cells, and brought to reference
   speed (see [Speed]) by the factor of the run's fastest pass: the best-of
   picks the quiet passes' times, so it is paired with a quiet pass's
   speed. Over nine ten-run sweeps of one workload each, [pass_s] spread
   2-7% from run to run this way; 2-15% with the median pass's factor,
   2-22% with each pass scaled by its own (the best-of then favours passes
   whose loop happened to run slow), 3-29% unscaled. *)
let scale passes =
  List.fold_left (fun acc p -> Float.max acc (Speed.scale p.probes)) 0.0 passes

let raw_sum f p = List.fold_left (fun acc o -> acc +. f o) 0.0 p.outs

let best_sum passes f =
  match passes with
  | [] -> nan
  | p :: _ ->
      scale passes
      *. List.fold_left ( +. ) 0.0
           (List.mapi
              (fun i _ ->
                Summary.minimum (List.map (fun q -> f (List.nth q.outs i)) passes))
              p.outs)

let runner_run_s (o : Cells.outcome) =
  match o.result with Ok s when s.insns > 0 -> o.run_s | _ -> 0.0

let total_s (o : Cells.outcome) = o.total_s
let setup_s (o : Cells.outcome) = o.setup_s
let run_s (o : Cells.outcome) = o.run_s

(* ---- metrics ---- *)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  samples : float list;  (** per-pass values behind a host timing *)
  spread : float;
      (** how far the estimate computed from the odd passes alone lies from
          the one computed from the even passes, as a share of their mean:
          the run's own noise, 0 for simulated values *)
}

let m ?(samples = []) ?(spread = 0.0) name unit_ value =
  { name; value; unit_; samples; spread }

(* A host timing: [estimate] over all timed passes, its odd/even split
   spread, and the per-pass values [per_pass] for the printed median/IQR. *)
let host name unit_ passes ~estimate ~per_pass =
  let odd = List.filteri (fun i _ -> i mod 2 = 0) passes
  and even = List.filteri (fun i _ -> i mod 2 = 1) passes in
  let spread =
    match even with
    | [] -> 0.0
    | _ ->
        let a = estimate odd and b = estimate even in
        Float.abs (a -. b) /. ((a +. b) /. 2.0)
  in
  m ~samples:(List.map per_pass passes) ~spread name unit_ (estimate passes)

let peak_rss_mb () =
  match open_in "/proc/self/status" with
  | exception Sys_error _ ->
      (* no procfs: the OCaml heap's high-water mark is the closest proxy *)
      float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
      /. 1048576.0
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> nan
        | l when String.length l > 6 && String.sub l 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d" (fun kb ->
                float_of_int kb /. 1024.0)
        | _ -> scan ()
      in
      Fun.protect ~finally:(fun () -> close_in ic) scan

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* The [q]-quantile of a log-linear histogram, interpolated linearly within
   the bucket that holds it: [Obs.Metrics.quantile] answers the bucket's
   upper bound, which moves in steps of up to 6%. *)
let interpolated_quantile (h : Obs.Metrics.histogram) q =
  let rank = q *. float_of_int h.n in
  let rec go i below =
    if i >= Array.length h.buckets then float_of_int h.max_v
    else
      let c = h.buckets.(i) in
      if c > 0 && float_of_int (below + c) >= rank then
        let lo = if i = 0 then 0 else Obs.Metrics.bucket_le (i - 1) + 1 in
        let hi = Obs.Metrics.bucket_le i in
        let v =
          float_of_int lo
          +. ((rank -. float_of_int below) /. float_of_int c *. float_of_int (hi - lo))
        in
        Float.min (float_of_int h.max_v) (Float.max (float_of_int h.min_v) v)
      else go (i + 1) (below + c)
  in
  if h.n = 0 then 0.0 else go 0 0

(* Simulated end-to-end metrics of one pass's successful cells. *)
let sim_metrics sims =
  let thr id =
    List.find_map
      (fun ((c : Cells.cell), (s : Cells.sim)) ->
        if c.id = id then Some s.throughput else None)
      sims
  in
  let speedup ((c : Cells.cell), (s : Cells.sim)) =
    Option.bind c.baseline (fun b ->
        Option.map (fun base -> s.throughput /. base) (thr b))
  in
  let speedups = List.filter_map speedup sims in
  let errs =
    List.filter_map
      (fun ((c : Cells.cell), _ as cs) ->
        match (c.paper, speedup cs) with
        | Some p, Some x -> Some (100.0 *. Float.abs ((x /. p) -. 1.0))
        | _ -> None)
      sims
  in
  let p95_ms =
    match List.filter (fun ((c : Cells.cell), _) -> c.p95) sims with
    | _ :: _ as cells ->
        Summary.median
          (List.map
             (fun (_, (s : Cells.sim)) ->
               interpolated_quantile
                 (Obs.Metrics.histogram s.metrics "req.latency_cycles")
                 0.95
               /. 1e6)
             cells)
    | [] ->
        (* compute workloads: the measured cells' completion times *)
        Summary.percentile 0.95
          (List.filter_map
             (fun ((c : Cells.cell), (s : Cells.sim)) ->
               if c.baseline <> None then Some (float_of_int s.wall_cycles /. 1e6)
               else None)
             sims)
  in
  let issued, completed =
    List.fold_left
      (fun (i, c) (_, (s : Cells.sim)) -> (i + s.issued, c + s.completed))
      (0, 0) sims
  in
  [
    m "sim_speedup" "x" (Summary.geomean speedups);
    m "paper_err_pct" "%" (mean errs);
    m "sim_p95_ms" "virtual-ms" p95_ms;
    m "sim_served_pct" "%"
      (if issued = 0 then 100.0
       else 100.0 *. float_of_int completed /. float_of_int issued);
  ]

let end_to_end ~timed ~first ~attempted ~failed =
  let sims = ok_sims first.outs in
  let insns =
    float_of_int (List.fold_left (fun acc (_, s) -> acc + s.Cells.insns) 0 sims)
  in
  (* requests completed on servers, one item per compute cell *)
  let items =
    float_of_int
      (List.fold_left
         (fun acc ((c : Cells.cell), (s : Cells.sim)) ->
           acc + match c.spec with Cells.Compute _ -> 1 | _ -> s.completed)
         0 sims)
  in
  let k = scale timed in
  [
    (* set-up time is the median pass's, so work moved into set-up shows *)
    host "setup_s" "s" timed
      ~estimate:(fun ps -> scale ps *. Summary.median (List.map (raw_sum setup_s) ps))
      ~per_pass:(fun p -> k *. raw_sum setup_s p);
    host "pass_s" "s" timed
      ~estimate:(fun ps -> best_sum ps total_s)
      ~per_pass:(fun p -> k *. raw_sum total_s p);
    host "guest_minsn_per_s" "Minsn/s" timed
      ~estimate:(fun ps -> insns /. best_sum ps runner_run_s /. 1e6)
      ~per_pass:(fun p -> insns /. (k *. raw_sum runner_run_s p) /. 1e6);
    host "host_req_per_s" "req/s" timed
      ~estimate:(fun ps -> items /. best_sum ps run_s)
      ~per_pass:(fun p -> items /. (k *. raw_sum run_s p));
    m "peak_rss_mb" "MB" (peak_rss_mb ());
    m "ok_pct" "%"
      (100.0 *. float_of_int (attempted - failed) /. float_of_int attempted);
  ]
  @ sim_metrics sims

(* ---- per-layer: exact counts, cycle attribution, ledger ---- *)

let runner_sims pass =
  List.filter (fun (_, (s : Cells.sim)) -> s.insns > 0) (ok_sims pass.outs)

let counter_of metrics name =
  match List.assoc_opt name (Obs.Metrics.sorted metrics) with
  | Some (Obs.Metrics.Counter c) -> c.Obs.Metrics.count
  | _ -> 0

let counts pass =
  let sims = runner_sims pass in
  let sum f = List.fold_left (fun acc (_, s) -> acc + f s) 0 sims in
  let ctr name = sum (fun s -> counter_of s.Cells.metrics name) in
  let hist_n name =
    sum (fun s ->
        match List.assoc_opt name (Obs.Metrics.sorted s.Cells.metrics) with
        | Some (Obs.Metrics.Histogram h) -> h.Obs.Metrics.n
        | _ -> 0)
  in
  let htm f = sum (fun s -> f s.Cells.htm) in
  let stm f = sum (fun s -> f s.Cells.stm) in
  let pct a b = if b = 0 then 0.0 else 100.0 *. float_of_int a /. float_of_int b in
  let hits = ctr "interp.method_cache_hits"
  and misses = ctr "interp.method_cache_misses" in
  let htm_begins = htm (fun h -> h.Htm_sim.Stats.begins) in
  let bd f =
    sum (fun s ->
        match s.Cells.breakdown with Some b -> f b | None -> 0)
  in
  let bd_total =
    bd (fun b ->
        b.Core.Runner.bd_txn_overhead + b.bd_committed + b.bd_aborted
        + b.bd_gil_held + b.bd_gil_wait + b.bd_other)
  in
  let c name v = m name "count" (float_of_int v) in
  let p name v = m name "%" v in
  [
    c "runner.insns" (sum (fun s -> s.Cells.insns));
    c "runner.slices" (hist_n "sched.slice_insns");
    c "htm.txn_accesses" (htm (fun h -> h.txn_accesses));
    c "htm.nontxn_accesses" (htm (fun h -> h.non_txn_accesses));
    c "htm.begins" htm_begins;
    p "htm.abort_pct" (pct (htm Htm_sim.Stats.aborts) htm_begins);
    c "htm.capacity_aborts"
      (htm (fun h -> h.aborts_overflow_read + h.aborts_overflow_write));
    c "stm.accesses" (stm (fun s -> s.Stm.accesses));
    c "stm.commits" (stm (fun s -> s.Stm.commits));
    p "stm.abort_pct" (pct (stm Stm.stats_aborts) (stm (fun s -> s.Stm.begins)));
    c "fallback.gil" (ctr "fallback.gil");
    c "fallback.stm" (ctr "fallback.stm");
    c "gil.acquisitions" (sum (fun s -> s.Cells.gil_acquisitions));
    c "heap.allocs" (sum (fun s -> s.Cells.allocs));
    c "heap.gc_runs" (sum (fun s -> s.Cells.gc_runs));
    c "interp.sends" (hits + misses);
    p "interp.cache_hit_pct" (pct hits (hits + misses));
    c "jit.blocks" (ctr "compile.blocks");
    c "jit.deopts" (ctr "deopt.guard" + ctr "deopt.invalidate" + ctr "deopt.rollback");
    c "net.completed" (sum (fun s -> s.Cells.completed));
    c "net.dropped" (sum (fun s -> s.Cells.dropped + s.Cells.timed_out));
    p "sim.committed_pct" (pct (bd (fun b -> b.bd_committed)) bd_total);
    p "sim.aborted_pct" (pct (bd (fun b -> b.bd_aborted)) bd_total);
    p "sim.gil_wait_pct" (pct (bd (fun b -> b.bd_gil_wait)) bd_total);
    p "sim.gil_held_pct" (pct (bd (fun b -> b.bd_gil_held)) bd_total);
    p "sim.txn_overhead_pct" (pct (bd (fun b -> b.bd_txn_overhead)) bd_total);
    p "sim.other_pct" (pct (bd (fun b -> b.bd_other)) bd_total);
  ]

let is_rails ((c : Cells.cell), _) =
  match c.spec with
  | Cells.Open_loop { w; _ } | Cells.Closed_loop { w; _ } ->
      w.Workloads.Workload.name = "rails"
  | _ -> false

(* Each layer's predicted share of the runner cells' run time: event count
   x unit cost. [counts] are the exact counts of [pass] (the warm-up pass);
   [run_s] is the cells' [Runner.run] time, estimated like every host time.
   See README.md for the formula. *)
let ledger ~pass ~counts ~run_s ~costs =
  let sims = runner_sims pass in
  let cost name = List.assoc name costs in
  let get name = (List.find (fun x -> x.name = name) counts).value in
  let sum f = List.fold_left (fun acc (_, s) -> acc +. float_of_int (f s)) 0.0 sims in
  let txn = get "htm.txn_accesses" in
  let cold =
    Float.min txn
      (sum (fun s -> s.Cells.htm.Htm_sim.Stats.rs_total + s.Cells.htm.ws_total))
  in
  let histogram_obs =
    sum (fun s ->
        List.fold_left
          (fun acc (_, mt) ->
            match mt with Obs.Metrics.Histogram h -> acc + h.Obs.Metrics.n | _ -> acc)
          0 (Obs.Metrics.sorted s.Cells.metrics))
  in
  let rails_completed =
    List.fold_left
      (fun acc cs -> if is_rails cs then acc +. float_of_int (snd cs).Cells.completed else acc)
      0.0 sims
  in
  let heap_kslots = float_of_int Rvm.Options.default.heap_slots /. 1000.0 in
  let layers =
    [
      ("runner", get "runner.insns" *. cost "runner.calib_insn_ns");
      ( "htm",
        (get "htm.nontxn_accesses" *. cost "htm.nontxn_pair_ns" /. 2.0)
        +. (cold *. cost "htm.intxn_cold_pair_ns" /. 2.0)
        +. ((txn -. cold) *. cost "htm.intxn_memo_pair_ns" /. 2.0)
        +. (get "htm.begins" *. cost "htm.tbegin_tend_ns") );
      ( "stm",
        (get "stm.accesses" *. (cost "stm.read_ns" +. cost "stm.write_ns") /. 2.0)
        +. (sum (fun s -> s.Cells.stm.Stm.ws_total) *. cost "stm.commit_ns_per_word")
      );
      ("sched", get "runner.slices" *. cost "sched.pick_ns");
      ("txlen", get "htm.begins" *. cost "txlen.set_length_ns");
      ( "heap",
        (get "heap.allocs" *. cost "heap.alloc_slot_ns")
        +. (get "heap.gc_runs" *. heap_kslots *. cost "heap.gc_us_per_kslot" *. 1e3)
      );
      ("netsim", sum (fun s -> s.Cells.issued) *. cost "netsim.request_ns");
      ("regexsim", get "net.completed" *. cost "regexsim.route_ns");
      ("minidb", rails_completed *. cost "minidb.select_us" *. 1e3);
      ("obs", histogram_obs *. cost "obs.hist_observe_ns");
    ]
  in
  let run_ns = run_s *. 1e9 in
  let shares =
    List.map (fun (l, ns) -> m ("ledger." ^ l ^ "_pct") "%" (100.0 *. ns /. run_ns)) layers
  in
  shares
  @ [
      m "ledger.residue_pct" "%"
        (100.0 -. List.fold_left (fun acc x -> acc +. x.value) 0.0 shares);
    ]

(* ---- output ---- *)

let number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_line ~correct ~attempted ~failed metrics =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.name
              (number x.value) x.unit_)
          metrics))

let print_metric x =
  match x.samples with
  | [] -> Printf.printf "  %-28s %14.6g %s\n" x.name x.value x.unit_
  | s ->
      let q1, med, q3 = Summary.quartiles s in
      Printf.printf
        "  %-28s %14.6g %-10s per pass: median %.6g IQR [%.6g, %.6g] n %d; \
         odd/even spread %.1f%%\n"
        x.name x.value x.unit_ med q1 q3 (List.length s) (100.0 *. x.spread)

let metric_json x =
  J.Obj
    ([
       ("value", J.Float x.value);
       ("unit", J.Str x.unit_);
       ("spread", J.Float x.spread);
     ]
    @
    match x.samples with
    | [] -> []
    | s -> [ ("per_pass", J.List (List.map (fun v -> J.Float v) s)) ])

(* ---- run one workload ---- *)

let sources_of cells =
  List.sort_uniq compare
    (List.filter_map
       (fun (c : Cells.cell) ->
         match c.spec with
         | Cells.Compute { w; threads; _ } -> Some (w.source ~threads ~size)
         | Cells.Open_loop { w; clients; _ } | Cells.Closed_loop { w; clients; _ } ->
             Some (w.source ~threads:clients ~size)
         | Cells.Sharded _ -> None)
       cells)

(* The traced run: the unit-cost kernels and one more pass, with spans on;
   then the Chrome trace file and the per-layer metrics. *)
let traced_run ~workload ~cells ~seed ~first ~timed ~counts ~trace_file =
  Spans.on := true;
  let costs = Kernels.unit_costs ~seed ~sources:(sources_of cells) in
  let traced = run_pass ~label:"traced pass" cells ~seed in
  Spans.on := false;
  let file =
    Option.value trace_file
      ~default:(Filename.concat "_ledger" ("trace-" ^ workload ^ ".json"))
  in
  mkdir_p (Filename.dirname file);
  J.to_file file (Spans.to_chrome ());
  Printf.printf "trace: %d spans -> %s\nself time by span (s):\n"
    (List.length !Spans.spans) file;
  List.iter
    (fun (n, s) -> Printf.printf "  %-28s %10.4f\n" n s)
    (Spans.self_times ());
  let untraced = scale timed *. Summary.median (List.map (raw_sum total_s) timed) in
  let metrics =
    List.map (fun (n, v, u) -> m n u v) costs
    @ counts
    @ ledger ~pass:first ~counts ~run_s:(best_sum timed runner_run_s)
        ~costs:(List.map (fun (n, v, _) -> (n, v)) costs)
    @ [
        m "trace_overhead_pct" "%"
          (100.0 *. ((scale [ traced ] *. raw_sum total_s traced /. untraced) -. 1.0));
      ]
  in
  (traced, metrics)

let run_workload ~workload ~seed ~seconds ~trace ~out ~trace_file =
  let cells = Cells.cells ~size ~seed workload in
  let passes = passes_for workload seconds in
  Printf.printf "ledger: workload %s, seed %d, size %s, %d cells, 1 warm-up + %d timed passes\n%!"
    workload seed (Workloads.Size.to_string size) (List.length cells) passes;
  let first = run_pass ~label:"warm-up" cells ~seed in
  let timed = List.init passes (fun _ -> run_pass cells ~seed) in
  List.iteri
    (fun i p ->
      Printf.printf
        "  pass %d: %.3f s (setup %.3f s, run %.3f s) as measured, host \
         slowdown %.3f, digest %s\n"
        (i + 1) (raw_sum total_s p) (raw_sum setup_s p) (raw_sum run_s p)
        (1.0 /. scale [ p ]) p.digest)
    timed;
  let counts = counts first in
  let traced, per_layer =
    if trace then
      let t, metrics =
        traced_run ~workload ~cells ~seed ~first ~timed ~counts ~trace_file
      in
      ([ t ], metrics)
    else ([], [])
  in
  let later = timed @ traced in
  let attempted = List.length cells * (1 + List.length later) in
  let failures =
    List.concat_map
      (fun p ->
        List.filter_map
          (fun (o : Cells.outcome) ->
            match o.result with
            | Error msg -> Some (o.cell.id ^ ": " ^ msg)
            | Ok _ -> None)
          p.outs)
      (first :: later)
  in
  let failed = List.length failures in
  List.iter (fun f -> Printf.printf "  FAILED %s\n" f) failures;
  let deterministic = List.for_all (fun p -> p.digest = first.digest) later in
  if not deterministic then
    Printf.printf "  FAILED simulated results differ between passes\n";
  let sim_digest = first.digest in
  let jit = (List.find (fun x -> x.name = "jit.blocks") counts).value in
  Printf.printf
    "ledger: interpreter tier %s; scheduler and fast paths: library defaults\n"
    (if jit > 0.0 then
       Printf.sprintf "compiled (%.0f superblocks compiled per pass)" jit
     else "threaded or ref (no superblock compiled)");
  let e2e = end_to_end ~timed ~first ~attempted ~failed in
  Printf.printf "end-to-end (%s):\n" workload;
  List.iter print_metric e2e;
  Printf.printf "sim_digest %s %s\n" workload sim_digest;
  if trace then begin
    Printf.printf "per-layer (%s):\n" workload;
    List.iter print_metric per_layer
  end;
  let correct =
    failed = 0 && deterministic
    && List.for_all (fun x -> Float.is_finite x.value) (e2e @ per_layer)
  in
  (match out with
  | None -> ()
  | Some file ->
      mkdir_p (Filename.dirname file);
      J.to_file file
        (J.Obj
           [
             ("workload", J.Str workload);
             ("seed", J.Int seed);
             ("size", J.Str (Workloads.Size.to_string size));
             ("passes", J.Int passes);
             ("sim_digest", J.Str sim_digest);
             ("correct", J.Bool correct);
             ("attempted", J.Int attempted);
             ("failed", J.Int failed);
             ("failures", J.List (List.map (fun f -> J.Str f) failures));
             ( "host_slowdown",
               J.List (List.map (fun p -> J.Float (1.0 /. scale [ p ])) timed) );
             ( "cell_seconds",
               J.Obj
                 (List.mapi
                    (fun i (c : Cells.cell) ->
                      ( c.id,
                        J.List
                          (List.map
                             (fun p -> J.Float (List.nth p.outs i).Cells.total_s)
                             timed) ))
                    cells) );
             ("metrics", J.Obj (List.map (fun x -> (x.name, metric_json x)) e2e));
             ( "per_layer",
               J.Obj (List.map (fun x -> (x.name, metric_json x)) per_layer) );
           ]));
  result_line ~correct ~attempted ~failed (if trace then per_layer else e2e)

(* ---- run every workload, each in its own process ---- *)

let run_all ~seed ~seconds ~trace ~out =
  let out = Option.value out ~default:(Filename.concat "_ledger" "run.json") in
  mkdir_p (Filename.dirname out);
  let docs =
    List.map
      (fun w ->
        let part = Filename.concat (Filename.dirname out) ("part-" ^ w ^ ".json") in
        let args =
          [ "run"; "--workload"; w; "--seed"; string_of_int seed; "--seconds";
            string_of_int seconds; "--trace"; (if trace then "1" else "0");
            "--out"; part ]
        in
        let pid =
          Unix.create_process Sys.executable_name
            (Array.of_list (Sys.executable_name :: args))
            Unix.stdin Unix.stdout Unix.stderr
        in
        (match Unix.waitpid [] pid with
        | _, Unix.WEXITED 0 -> ()
        | _ -> fail "workload %s: child process failed" w);
        let ic = open_in part in
        let doc = J.of_string (really_input_string ic (in_channel_length ic)) in
        close_in ic;
        Sys.remove part;
        doc)
      Cells.workloads
  in
  J.to_file out (J.Obj [ ("runs", J.List docs) ]);
  Printf.printf "ledger: results -> %s\n" out

(* ---- compare ---- *)

let load file =
  match open_in file with
  | exception Sys_error e -> fail "%s" e
  | ic ->
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      (try J.of_string text with J.Parse_error e -> fail "%s: %s" file e)

let runs_of doc =
  match J.member "runs" doc with Some (J.List l) -> l | _ -> [ doc ]

let num = function J.Float f -> f | J.Int i -> float_of_int i | _ -> nan
let str = function Some (J.Str s) -> s | _ -> ""

(* Each (metric, workload) pair of two result sets, judged by the metric's
   bound: worse / better when the change exceeds the bound in that
   direction, unresolved when either side's own pass-to-pass spread
   exceeds the bound, agree otherwise. *)
let compare_files a b ~bench =
  let spec = load bench in
  let metrics =
    match J.member "end_to_end" spec with
    | Some (J.List l) ->
        List.map
          (fun x ->
            ( str (J.member "name" x),
              str (J.member "better" x) = "higher",
              num (Option.value (J.member "bound" x) ~default:J.Null) ))
          l
    | _ -> fail "%s: no end_to_end list" bench
  in
  let by_workload doc =
    List.map (fun r -> (str (J.member "workload" r), r)) (runs_of doc)
  in
  let ra = by_workload (load a) and rb = by_workload (load b) in
  let value r name =
    match J.member "metrics" r with
    | Some ms -> (
        match J.member name ms with
        | Some x ->
            let v = num (Option.value (J.member "value" x) ~default:J.Null) in
            let spread = num (Option.value (J.member "spread" x) ~default:(J.Int 0)) in
            Some (v, spread)
        | None -> None)
    | None -> None
  in
  let rank = function "worse" -> 3 | "unresolved" -> 2 | "better" -> 1 | _ -> 0 in
  Printf.printf
    "per workload: verdict, sim_digest, then per metric the change of %s \
     against %s (positive = better) and its verdict\n"
    b a;
  let verdicts = ref [] in
  List.iter
    (fun (w, r1) ->
      match List.assoc_opt w rb with
      | None -> Printf.printf "%-16s only in %s\n" w a
      | Some r2 ->
          let cells =
            List.map
              (fun (name, higher, bound) ->
                match (value r1 name, value r2 name) with
                | Some (v1, s1), Some (v2, s2) ->
                    let worse_by =
                      if v1 = 0.0 then if v2 = v1 then 0.0 else infinity
                      else (if higher then v1 -. v2 else v2 -. v1) /. Float.abs v1
                    in
                    let v =
                      if Float.max s1 s2 > bound then "unresolved"
                      else if worse_by > bound then "worse"
                      else if worse_by < -.bound then "better"
                      else "agree"
                    in
                    (name, v, Printf.sprintf "%+.1f%%" ((-100.0 *. worse_by) +. 0.0))
                | _ -> (name, "unresolved", "missing"))
              metrics
          in
          let row =
            List.fold_left
              (fun acc (_, v, _) -> if rank v > rank acc then v else acc)
              "agree" cells
          in
          let same = str (J.member "sim_digest" r1) = str (J.member "sim_digest" r2) in
          verdicts := row :: !verdicts;
          Printf.printf "%-16s %-10s sim_digest %s  %s\n" w row
            (if same then "equal" else "DIFFERENT")
            (String.concat "  "
               (List.map (fun (n, v, d) -> Printf.sprintf "%s %s(%s)" n d v) cells)))
    ra;
  if List.exists (fun v -> v = "worse") !verdicts then exit 1

(* ---- smoke: one test-size cell per workload, correctness only ---- *)

let smoke () =
  let size = Workloads.Size.Test and seed = 1 in
  let find w id =
    match List.find_opt (fun (c : Cells.cell) -> c.id = id) (Cells.cells ~size ~seed w) with
    | Some c -> c
    | None -> fail "smoke: no cell %s in %s" id w
  in
  let bad = ref 0 in
  List.iter
    (fun (w, id) ->
      match (Cells.run (find w id) ~size ~seed).result with
      | Ok _ -> Printf.printf "smoke %-16s %-32s ok\n" w id
      | Error msg ->
          incr bad;
          Printf.printf "smoke %-16s %-32s FAILED %s\n" w id msg)
    Cells.smoke_ids;
  (* the gate itself: a wrong pinned verify line must fail the cell *)
  let c = find "npb-htm" "is/HTM-dynamic/12t" in
  (match (Cells.run { c with expect = Some "IS verify 0 0" } ~size ~seed).result with
  | Error _ -> Printf.printf "smoke wrong verify line rejected: ok\n"
  | Ok _ ->
      incr bad;
      Printf.printf "smoke wrong verify line accepted: FAILED\n");
  if !bad > 0 then exit 1

(* ---- command line ---- *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opts acc = function
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        opts ((String.sub key 2 (String.length key - 2), v) :: acc) rest
    | [] -> acc
    | x :: _ -> fail "unexpected argument %S" x
  in
  let int_opt o k =
    Option.map
      (fun v -> match int_of_string_opt v with Some n -> n | None -> fail "--%s: not an integer: %s" k v)
      (List.assoc_opt k o)
  in
  match args with
  | "run" :: rest -> (
      (match List.filter (fun v -> Sys.getenv_opt v <> None) refused_env with
      | [] -> ()
      | set ->
          fail "refusing to run with %s set: the benchmark measures library defaults"
            (String.concat ", " set));
      let o = opts [] rest in
      List.iter
        (fun (k, _) ->
          if not (List.mem k [ "workload"; "seed"; "seconds"; "trace"; "out"; "trace-file" ])
          then fail "unknown option --%s" k)
        o;
      let seed = Option.value (int_opt o "seed") ~default:1 in
      let seconds = Option.value (int_opt o "seconds") ~default:10 in
      let trace =
        match List.assoc_opt "trace" o with
        | None | Some "0" -> false
        | Some "1" -> true
        | Some v -> fail "--trace takes 0 or 1, not %s" v
      in
      if seconds < 1 then fail "--seconds must be positive";
      match List.assoc_opt "workload" o with
      | Some workload ->
          if not (List.mem workload Cells.workloads) then
            fail "unknown workload %s (known: %s)" workload
              (String.concat ", " Cells.workloads);
          run_workload ~workload ~seed ~seconds ~trace ~out:(List.assoc_opt "out" o)
            ~trace_file:(List.assoc_opt "trace-file" o)
      | None -> run_all ~seed ~seconds ~trace ~out:(List.assoc_opt "out" o))
  | "compare" :: a :: b :: rest ->
      let o = opts [] rest in
      compare_files a b ~bench:(Option.value (List.assoc_opt "bench" o) ~default:"BENCHMARK.json")
  | [ "smoke" ] -> smoke ()
  | _ ->
      prerr_endline
        "usage: ledger.exe run [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
         [--out FILE] [--trace-file FILE]\n\
        \       ledger.exe compare A.json B.json [--bench BENCHMARK.json]\n\
        \       ledger.exe smoke";
      exit 2
