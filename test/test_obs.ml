(* The observability layer: ring buffers, the metrics registry, Chrome
   trace-event export, Stats merge/export, and abort-site attribution on a
   genuinely contended guest workload. *)

module J = Obs.Json
module Ring = Obs.Ring

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = affix || go (i + 1)) in
  n = 0 || go 0

(* ---- ring buffer ---- *)

let test_ring_wraparound () =
  let r = Ring.create 4 in
  for i = 1 to 10 do
    Ring.push r i
  done;
  Alcotest.(check int) "capacity" 4 (Ring.capacity r);
  Alcotest.(check int) "length caps at capacity" 4 (Ring.length r);
  Alcotest.(check int) "total counts every push" 10 (Ring.total r);
  Alcotest.(check int) "dropped = total - capacity" 6 (Ring.dropped r);
  Alcotest.(check (list int)) "retains newest window, oldest first"
    [ 7; 8; 9; 10 ] (Ring.to_list r)

let test_ring_partial () =
  let r = Ring.create 8 in
  List.iter (Ring.push r) [ 1; 2; 3 ];
  Alcotest.(check int) "length before wrap" 3 (Ring.length r);
  Alcotest.(check int) "nothing dropped" 0 (Ring.dropped r);
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3 ] (Ring.to_list r);
  Alcotest.check_raises "zero capacity rejected"
    (Invalid_argument "Ring.create: capacity must be positive") (fun () ->
      ignore (Ring.create 0))

(* ---- metrics registry ---- *)

let test_histogram_bucketing () =
  (* log-linear: values below sub_count land in their own unit bucket, above
     that each power-of-two range splits into sub_count linear sub-buckets *)
  Alcotest.(check int) "sub_count" 16 Obs.Metrics.sub_count;
  List.iter
    (fun (v, want) ->
      Alcotest.(check int) (Printf.sprintf "bucket_of %d" v) want
        (Obs.Metrics.bucket_of v))
    [
      (0, 0);
      (1, 1);
      (15, 15);
      (16, 16);
      (31, 31);
      (32, 32);
      (33, 32);
      (1024, 112);
    ];
  (* bucket_le is the inclusive upper bound of its bucket... *)
  List.iter
    (fun (i, want) ->
      Alcotest.(check int) (Printf.sprintf "bucket_le %d" i) want
        (Obs.Metrics.bucket_le i))
    [ (0, 0); (15, 15); (16, 16); (31, 31); (32, 33); (112, 1087) ];
  Alcotest.(check int) "last bucket is unbounded" max_int
    (Obs.Metrics.bucket_le (Obs.Metrics.n_buckets - 1));
  (* ...and the two stay consistent with bounded relative error across the
     whole range: v <= bucket_le (bucket_of v) <= v + v/sub_count *)
  let v = ref 1 in
  while !v > 0 && !v < max_int / 4 do
    let le = Obs.Metrics.bucket_le (Obs.Metrics.bucket_of !v) in
    if le < !v || le > !v + (!v / Obs.Metrics.sub_count) + 1 then
      Alcotest.failf "bucket bound for %d out of tolerance: %d" !v le;
    v := !v + 1 + (!v / 3)
  done

let test_histogram_quantiles () =
  (* uniform 1..1000: every quantile estimate must land within one
     sub-bucket (<= 1/16 relative error) of the exact sample quantile *)
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "lat" in
  for i = 1 to 1000 do
    Obs.Metrics.observe h i
  done;
  List.iter
    (fun q ->
      let exact =
        max 1 (min 1000 (int_of_float (ceil (q *. 1000.)))) in
      let est = Obs.Metrics.quantile h q in
      let tol = (exact / Obs.Metrics.sub_count) + 1 in
      if est < exact - tol || est > exact + tol then
        Alcotest.failf "q=%.2f: estimate %d not within %d of exact %d" q est
          tol exact)
    [ 0.01; 0.25; 0.50; 0.90; 0.95; 0.99; 1.0 ];
  Alcotest.(check int) "q=0 clamps to min" 1 (Obs.Metrics.quantile h 0.0);
  Alcotest.(check int) "q=1 clamps to max" 1000 (Obs.Metrics.quantile h 1.0);
  (* a two-point distribution: the median is the low mode, p99 the high *)
  let h2 = Obs.Metrics.histogram m "bimodal" in
  for _ = 1 to 90 do
    Obs.Metrics.observe h2 10
  done;
  for _ = 1 to 10 do
    Obs.Metrics.observe h2 5000
  done;
  Alcotest.(check int) "bimodal p50 = low mode" 10
    (Obs.Metrics.quantile h2 0.50);
  let p99 = Obs.Metrics.quantile h2 0.99 in
  Alcotest.(check bool) "bimodal p99 in the high mode's bucket" true
    (p99 >= 5000 - (5000 / Obs.Metrics.sub_count) && p99 <= 5000);
  Alcotest.(check int) "empty histogram quantile" 0
    (Obs.Metrics.quantile (Obs.Metrics.histogram m "empty") 0.5);
  (* exported JSON carries the quantile fields *)
  match Obs.Metrics.to_json m with
  | J.Obj kvs -> (
      match List.assoc "lat" kvs with
      | J.Obj fields ->
          List.iter
            (fun k ->
              if not (List.mem_assoc k fields) then
                Alcotest.failf "histogram JSON missing %S" k)
            [ "p50"; "p95"; "p99"; "mean" ]
      | _ -> Alcotest.fail "lat not an object")
  | j -> Alcotest.failf "unexpected metrics JSON %s" (J.to_string j)

let test_histogram_observe () =
  let m = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram m "h" in
  List.iter (Obs.Metrics.observe h) [ 1; 2; 3; 100; -5 ];
  Alcotest.(check int) "count" 5 h.Obs.Metrics.n;
  (* -5 clamps to 0 *)
  Alcotest.(check int) "sum" 106 h.Obs.Metrics.sum;
  Alcotest.(check int) "max" 100 h.Obs.Metrics.max_v;
  Alcotest.(check int) "min (clamped)" 0 h.Obs.Metrics.min_v;
  Alcotest.(check (float 0.001)) "mean" 21.2 (Obs.Metrics.mean h)

(* The shard tier's merge path: K disjoint per-shard registries, merged in
   shard order, must report the same quantiles as one registry that saw
   every sample — exactly (buckets sum), and both within one sub-bucket
   (1/16 relative error) of the exact sample quantile. *)
let test_merge_quantiles () =
  let k = 4 and n = 4000 in
  let whole = Obs.Metrics.create () in
  let hw = Obs.Metrics.histogram whole "lat" in
  let parts = Array.init k (fun _ -> Obs.Metrics.create ()) in
  let samples = Array.make n 0 in
  let seed = ref 0x5eed in
  let next () =
    seed := ((!seed * 1103515245) + 12345) land 0x3FFFFFFF;
    !seed
  in
  for i = 0 to n - 1 do
    let v = 1 + (next () mod 100_000) in
    samples.(i) <- v;
    Obs.Metrics.observe hw v;
    let p = parts.(i mod k) in
    Obs.Metrics.observe (Obs.Metrics.histogram p "lat") v;
    Obs.Metrics.gauge_max (Obs.Metrics.gauge p "peak") v;
    Obs.Metrics.gauge_max (Obs.Metrics.gauge whole "peak") v
  done;
  let merged = Obs.Metrics.create () in
  Array.iter (fun p -> Obs.Metrics.merge merged p) parts;
  let hm = Obs.Metrics.histogram merged "lat" in
  Alcotest.(check int) "merged count" n hm.Obs.Metrics.n;
  Alcotest.(check int) "merged sum" hw.Obs.Metrics.sum hm.Obs.Metrics.sum;
  Alcotest.(check int) "merged min" hw.Obs.Metrics.min_v hm.Obs.Metrics.min_v;
  Alcotest.(check int) "merged max" hw.Obs.Metrics.max_v hm.Obs.Metrics.max_v;
  Array.sort compare samples;
  List.iter
    (fun q ->
      let est_whole = Obs.Metrics.quantile hw q in
      let est_merged = Obs.Metrics.quantile hm q in
      Alcotest.(check int)
        (Printf.sprintf "q=%.2f: merged = single-registry" q)
        est_whole est_merged;
      let exact = samples.(max 0 (int_of_float (ceil (q *. float_of_int n)) - 1)) in
      let tol = (exact / Obs.Metrics.sub_count) + 1 in
      if est_merged < exact - tol || est_merged > exact + tol then
        Alcotest.failf "q=%.2f: merged estimate %d not within %d of exact %d" q
          est_merged tol exact)
    [ 0.25; 0.50; 0.90; 0.95; 0.99 ];
  (* gauges are high watermarks: the merge takes the max across shards *)
  Alcotest.(check int) "merged gauge = global high watermark"
    (Obs.Metrics.gauge whole "peak").Obs.Metrics.value
    (Obs.Metrics.gauge merged "peak").Obs.Metrics.value;
  (* merging copies: the merged handles never alias a shard's *)
  Alcotest.(check bool) "merged histogram does not alias a shard's" true
    (Array.for_all
       (fun p -> Obs.Metrics.histogram p "lat" != hm)
       parts)

let test_registry_handles () =
  let m = Obs.Metrics.create () in
  let c = Obs.Metrics.counter m "c" in
  Obs.Metrics.incr c;
  Obs.Metrics.add c 4;
  (* same name -> same handle *)
  Obs.Metrics.incr (Obs.Metrics.counter m "c");
  Alcotest.(check int) "counter accumulates through one handle" 6
    c.Obs.Metrics.count;
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Metrics.histogram: c is a counter") (fun () ->
      ignore (Obs.Metrics.histogram m "c"));
  (* deterministic export: JSON object sorted by name, counters as ints *)
  ignore (Obs.Metrics.histogram m "a");
  match Obs.Metrics.to_json m with
  | J.Obj [ ("a", J.Obj _); ("c", J.Int 6) ] -> ()
  | j -> Alcotest.failf "unexpected metrics JSON %s" (J.to_string j)

(* Gauges: high-watermark readings, merged by maximum. *)
let test_gauges () =
  let m = Obs.Metrics.create () in
  let g = Obs.Metrics.gauge m "g" in
  Obs.Metrics.set g 5;
  Obs.Metrics.gauge_max g 3;
  Alcotest.(check int) "gauge_max keeps high-watermark" 5 g.Obs.Metrics.value;
  Obs.Metrics.gauge_max g 9;
  Alcotest.(check int) "gauge_max raises" 9 g.Obs.Metrics.value;
  (* same name -> same handle; kind clashes rejected *)
  Obs.Metrics.set (Obs.Metrics.gauge m "g") 2;
  Alcotest.(check int) "set through second handle" 2 g.Obs.Metrics.value;
  Alcotest.check_raises "kind clash rejected"
    (Invalid_argument "Metrics.counter: g is a gauge") (fun () ->
      ignore (Obs.Metrics.counter m "g"));
  (* merge takes the maximum across sinks *)
  Obs.Metrics.set g 4;
  let dst = Obs.Metrics.create () in
  Obs.Metrics.set (Obs.Metrics.gauge dst "g") 7;
  Obs.Metrics.merge dst m;
  Alcotest.(check int) "merge keeps max" 7 (Obs.Metrics.gauge dst "g").Obs.Metrics.value;
  Obs.Metrics.set g 11;
  Obs.Metrics.merge dst m;
  Alcotest.(check int) "merge raises to src" 11
    (Obs.Metrics.gauge dst "g").Obs.Metrics.value;
  match Obs.Metrics.to_json m with
  | J.Obj [ ("g", J.Obj [ ("type", J.Str "gauge"); ("value", J.Int 11) ]) ] -> ()
  | j -> Alcotest.failf "unexpected gauge JSON %s" (J.to_string j)

(* ---- JSON printer / parser ---- *)

let test_json_roundtrip () =
  let doc =
    J.Obj
      [
        ("s", J.Str "a\"b\\c\nd");
        ("i", J.Int (-42));
        ("f", J.Float 1.5);
        ("b", J.Bool true);
        ("n", J.Null);
        ("l", J.List [ J.Int 1; J.Obj []; J.List [] ]);
      ]
  in
  Alcotest.(check bool) "pretty-printed text parses back to the same value"
    true
    (J.of_string (J.to_string doc) = doc);
  Alcotest.check_raises "trailing garbage rejected"
    (J.Parse_error "trailing garbage at 5") (fun () -> ignore (J.of_string "null x"))

(* ---- Chrome trace export ---- *)

let test_chrome_trace_wellformed () =
  let tr = Obs.Trace.create ~capacity:16 () in
  let emit tid kind = Obs.Trace.emit tr { Obs.Event.ts = 100; tid; ctx = 0; kind } in
  emit 0 Obs.Event.Txn_begin;
  emit 0 (Obs.Event.Txn_commit { cycles = 40; rs = 3; ws = 2; retries = 1 });
  emit 1
    (Obs.Event.Txn_abort
       {
         reason = "conflict";
         cycles = 25;
         rs = 2;
         ws = 1;
         line = 7;
         code = "block";
         pc = 3;
         op = "opt_plus";
       });
  emit 1 Obs.Event.Gil_acquire;
  emit 1 (Obs.Event.Gil_wait { cycles = 10 });
  emit 0 Obs.Event.Gc_start;
  emit 0 (Obs.Event.Gc_end { cycles = 500 });
  emit 1 (Obs.Event.Ctx_switch { prev_tid = 0 });
  (* the whole document must parse back *)
  let doc = J.of_string (J.to_string (Obs.Trace.to_chrome tr)) in
  let events =
    match J.member "traceEvents" doc with
    | Some (J.List l) -> l
    | _ -> Alcotest.fail "missing traceEvents"
  in
  Alcotest.(check int) "every emitted event exported" 8 (List.length events);
  List.iter
    (fun e ->
      List.iter
        (fun k ->
          if J.member k e = None then
            Alcotest.failf "event missing %S: %s" k (J.to_string e))
        [ "name"; "cat"; "ph"; "ts"; "pid"; "tid" ];
      match J.member "ph" e with
      | Some (J.Str "X") ->
          if J.member "dur" e = None then
            Alcotest.failf "interval event without dur: %s" (J.to_string e)
      | Some (J.Str "i") -> ()
      | _ -> Alcotest.failf "unexpected phase: %s" (J.to_string e))
    events;
  (* interval start = ts - dur: the commit at ts=100 with 40 cycles opens
     at 60 ns = 0.06 us *)
  let commit =
    List.find
      (fun e -> J.member "name" e = Some (J.Str "txn"))
      events
  in
  Alcotest.(check bool) "commit interval rewound to its begin" true
    (J.member "ts" commit = Some (J.Float 0.06))

let test_trace_disabled_and_wrap () =
  let tr = Obs.Trace.create ~capacity:2 ~enabled:false () in
  Obs.Trace.emit tr { Obs.Event.ts = 1; tid = 0; ctx = 0; kind = Obs.Event.Txn_begin };
  Alcotest.(check int) "disabled sink records nothing" 0 (Obs.Trace.total tr);
  Obs.Trace.set_enabled tr true;
  for ts = 1 to 5 do
    Obs.Trace.emit tr { Obs.Event.ts; tid = 0; ctx = 0; kind = Obs.Event.Txn_begin }
  done;
  Alcotest.(check int) "per-thread ring keeps the newest window" 2
    (List.length (Obs.Trace.events tr));
  Alcotest.(check int) "dropped counted" 3 (Obs.Trace.dropped tr)

(* ---- Stats: merge, export, ratios ---- *)

let test_stats_merge () =
  let open Htm_sim.Stats in
  let a = create () and b = create () in
  a.begins <- 10;
  a.commits <- 8;
  a.aborts_conflict <- 2;
  a.rs_total <- 40;
  a.rs_max <- 9;
  b.begins <- 5;
  b.commits <- 5;
  b.rs_total <- 10;
  b.rs_max <- 4;
  merge a b;
  Alcotest.(check int) "counters sum" 15 a.begins;
  Alcotest.(check int) "rs_total sums" 50 a.rs_total;
  Alcotest.(check int) "rs_max takes max" 9 a.rs_max;
  Alcotest.(check (float 1e-9)) "ratio over merged begins" (2.0 /. 15.0)
    (abort_ratio a);
  Alcotest.(check (float 1e-9)) "mean committed read-set" (50.0 /. 13.0)
    (mean_rs a);
  (* to_assoc carries every counter plus the aborts aggregate *)
  Alcotest.(check (option int)) "to_assoc: begins" (Some 15)
    (List.assoc_opt "begins" (to_assoc a));
  Alcotest.(check (option int)) "to_assoc: aborts aggregate" (Some 2)
    (List.assoc_opt "aborts" (to_assoc a))

let test_stats_edge_cases () =
  let open Htm_sim.Stats in
  let s = create () in
  Alcotest.(check (float 0.0)) "zero begins -> ratio 0" 0.0 (abort_ratio s);
  Alcotest.(check (float 0.0)) "zero commits -> mean rs 0" 0.0 (mean_rs s);
  (* eager-predictor kills count as aborts even with no completed window *)
  s.begins <- 4;
  record_abort s Htm_sim.Txn.Eager;
  record_abort s Htm_sim.Txn.Eager;
  Alcotest.(check int) "eager-only aborts aggregate" 2 (aborts s);
  Alcotest.(check (float 1e-9)) "eager-only ratio" 0.5 (abort_ratio s);
  let shown = Format.asprintf "%a" pp s in
  Alcotest.(check bool) "pp reports mean set sizes" true
    (contains ~affix:"rs-mean" shown)

(* ---- abort-site attribution ---- *)

let test_sites_report () =
  let s = Obs.Sites.create () in
  Obs.Sites.set_line_resolver s (fun line ->
      if line = 7 then Some "global free-list head" else None);
  for _ = 1 to 3 do
    Obs.Sites.record s ~code:"block" ~pc:4 ~op:"opt_plus" ~reason:"conflict"
      ~line:7
  done;
  Obs.Sites.record s ~code:"main" ~pc:9 ~op:"newarray" ~reason:"overflow-write"
    ~line:(-1);
  Alcotest.(check int) "total" 4 (Obs.Sites.total s);
  (match Obs.Sites.top_sites s 1 with
  | [ (site, cell) ] ->
      Alcotest.(check string) "hottest op" "opt_plus" site.Obs.Sites.s_op;
      Alcotest.(check int) "hottest count" 3 cell.Obs.Sites.n
  | _ -> Alcotest.fail "expected one top site");
  let report = Format.asprintf "%a" (fun f -> Obs.Sites.report f) s in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Printf.sprintf "report mentions %S" needle) true
        (contains ~affix:needle report))
    [
      "4 aborts";
      "top aborting bytecode sites:";
      "opt_plus";
      "75.0%";
      "line 7 (global free-list head)";
    ]

(* A contended counter: four threads hammering one Array cell under
   HTM-dynamic must produce conflict aborts, and the attribution must charge
   them to real bytecode sites. This is the golden end-to-end check for the
   Section 5.6-style report. *)
let contended_counter =
  {|counter = Array.new(1, 0)
ths = []
t = 0
while t < 4
  ths << Thread.new do
    i = 0
    while i < 400
      counter[0] += 1
      i += 1
    end
  end
  t += 1
end
ths.each { |th| th.join }
puts 0|}

(* A kept outcome must not keep its VM alive: the abort-site line names
   are snapshotted as plain data, so once the runner is gone the VM's HTM
   engine (line tables, heap scratch, thread list) is collectable while the
   outcome's report still names the same lines. *)
let test_outcome_does_not_pin_vm () =
  let engine = Weak.create 1 in
  let wl = Harness.Figures.wl "while" in
  let workload =
    {
      wl with
      Workloads.Workload.setup =
        (fun io vm ->
          Weak.set engine 0 (Some vm.Rvm.Vm.htm);
          wl.Workloads.Workload.setup io vm);
    }
  in
  let report (o : Harness.Exp.outcome) =
    Format.asprintf "%a"
      (fun f -> Obs.Sites.report f)
      o.Harness.Exp.result.Core.Runner.abort_sites
  in
  let run () =
    let o =
      Harness.Exp.run
        (Harness.Exp.point ~workload ~machine:Htm_sim.Machine.zec12
           ~scheme:Core.Scheme.Htm_dynamic ~threads:4
           ~size:Workloads.Size.Test ())
    in
    (o, report o)
  in
  let o, before = (Sys.opaque_identity run) () in
  Alcotest.(check bool) "run aborted" true
    (Obs.Sites.total o.Harness.Exp.result.Core.Runner.abort_sites > 0);
  Gc.full_major ();
  Alcotest.(check bool) "VM's engine collected" false (Weak.check engine 0);
  Alcotest.(check string) "report unchanged" before (report o)

let test_contended_attribution () =
  let tracer = Obs.Trace.create () in
  let cfg =
    Core.Runner.config ~tracer ~scheme:Core.Scheme.Htm_dynamic
      Htm_sim.Machine.zec12
  in
  let r = Core.Runner.run_source cfg ~source:contended_counter in
  let aborts = Htm_sim.Stats.aborts r.Core.Runner.htm_stats in
  Alcotest.(check bool) "workload aborts" true (aborts > 0);
  Alcotest.(check int) "every abort attributed" aborts
    (Obs.Sites.total r.Core.Runner.abort_sites);
  (match Obs.Sites.top_sites r.Core.Runner.abort_sites 1 with
  | [ (site, cell) ] ->
      Alcotest.(check bool) "top site carries a real opcode" true
        (site.Obs.Sites.s_op <> "?");
      Alcotest.(check bool) "top site dominates" true (cell.Obs.Sites.n > 0)
  | _ -> Alcotest.fail "no attributed sites");
  let report =
    Format.asprintf "%a" (fun f -> Obs.Sites.report f) r.Core.Runner.abort_sites
  in
  Alcotest.(check bool) "report names conflict reasons" true
    (contains ~affix:"conflict=" report);
  (* the trace saw the same story: begins, commits, aborts, GIL traffic *)
  let events = Obs.Trace.events tracer in
  let has name =
    List.exists (fun (e : Obs.Event.t) -> Obs.Event.name e.kind = name) events
  in
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " events present") true (has n))
    [ "tbegin"; "txn"; "txn-abort"; "gil-acquire"; "ctx-switch" ];
  (* and the registry's histograms filled in *)
  (match
     List.assoc_opt "txn.committed_cycles"
       (Obs.Metrics.sorted r.Core.Runner.metrics)
   with
  | Some (Obs.Metrics.Histogram h) ->
      Alcotest.(check bool) "committed-cycles histogram populated" true
        (h.Obs.Metrics.n > 0)
  | _ -> Alcotest.fail "txn.committed_cycles missing");
  (* Chrome export of a real run parses *)
  match J.of_string (J.to_string (Obs.Trace.to_chrome tracer)) with
  | J.Obj _ -> ()
  | _ -> Alcotest.fail "chrome export not an object"

let suite =
  [
    Alcotest.test_case "ring wraparound" `Quick test_ring_wraparound;
    Alcotest.test_case "ring partial fill" `Quick test_ring_partial;
    Alcotest.test_case "histogram bucketing" `Quick test_histogram_bucketing;
    Alcotest.test_case "histogram quantiles" `Quick test_histogram_quantiles;
    Alcotest.test_case "histogram observe" `Quick test_histogram_observe;
    Alcotest.test_case "merge quantiles across registries" `Quick
      test_merge_quantiles;
    Alcotest.test_case "registry handles" `Quick test_registry_handles;
    Alcotest.test_case "gauges" `Quick test_gauges;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "chrome trace wellformed" `Quick
      test_chrome_trace_wellformed;
    Alcotest.test_case "trace disabled + wrap" `Quick
      test_trace_disabled_and_wrap;
    Alcotest.test_case "stats merge + export" `Quick test_stats_merge;
    Alcotest.test_case "stats edge cases" `Quick test_stats_edge_cases;
    Alcotest.test_case "sites report" `Quick test_sites_report;
    Alcotest.test_case "kept outcome does not pin its VM" `Quick
      test_outcome_does_not_pin_vm;
    Alcotest.test_case "contended counter attribution" `Quick
      test_contended_attribution;
  ]
