(* The shard tier: N full VM instances behind the netsim load balancer.
   The merged result must be a pure function of the simulated semantics —
   identical across the SHARDS placement knob and worker counts — and
   sharding must actually scale. *)

(* ---- Runner.advance vs Runner.run: pause/resume is invisible ---------- *)

let load_point () =
  Harness.Exp.point ~arrivals:(Netsim.Poisson { rate = 4000.0; seed = 0x10AD })
    ~workload:Workloads.Workload.webrick ~machine:Htm_sim.Machine.zec12
    ~scheme:Core.Scheme.Htm_dynamic ~threads:4 ~size:Workloads.Size.Test ()

let run_server_via mode =
  let p = load_point () in
  let requests =
    p.Harness.Exp.workload.Workloads.Workload.server_requests p.Harness.Exp.size
  in
  let io =
    match p.Harness.Exp.workload.Workloads.Workload.make_io_open with
    | Some f ->
        f ~clients:4 ~requests ~arrivals:p.Harness.Exp.arrivals ~mix:[]
    | None -> assert false
  in
  let cfg =
    Core.Runner.config ~scheme:p.Harness.Exp.scheme Htm_sim.Machine.zec12
  in
  let t = Core.Runner.create ~io cfg ~source:Workloads.Webrick.guest_source in
  p.Harness.Exp.workload.Workloads.Workload.setup (Some io)
    t.Core.Runner.vm;
  let stop () = Netsim.done_all io in
  let r =
    match mode with
    | `Run -> Core.Runner.run ~stop t
    | `Advance step ->
        let rec go h =
          match Core.Runner.advance ~stop t ~until:h with
          | `Done r -> r
          | `Paused -> go (h + step)
        in
        go step
  in
  let lat = Obs.Metrics.histogram r.Core.Runner.metrics "req.latency_cycles" in
  ( r.Core.Runner.wall_cycles,
    r.Core.Runner.total_insns,
    Netsim.completed io,
    Netsim.dropped io,
    Netsim.timed_out io,
    Obs.Metrics.quantile lat 0.99,
    r.Core.Runner.htm_stats.Htm_sim.Stats.commits,
    Htm_sim.Stats.aborts r.Core.Runner.htm_stats )

(* A 12-thread HTM-dynamic compute cell: the threads' clocks stay within an
   instruction of each other, so slices are one instruction long and a
   horizon of a few hundred cycles pauses between them — a pause must not
   change a single pick. *)
let run_compute_via mode =
  let w = Option.get (Workloads.Workload.find "is") in
  let source = w.Workloads.Workload.source ~threads:12 ~size:Workloads.Size.Test in
  let cfg =
    Core.Runner.config ~scheme:Core.Scheme.Htm_dynamic Htm_sim.Machine.zec12
  in
  let t = Core.Runner.create cfg ~source in
  w.Workloads.Workload.setup None t.Core.Runner.vm;
  match mode with
  | `Run -> Core.Runner.run t
  | `Advance step ->
      let rec go h =
        match Core.Runner.advance t ~until:h with
        | `Done r -> r
        | `Paused -> go (h + step)
      in
      go step

(* Every field of the result, in a comparable form. The slice-length
   histogram is left out: a pause ends the slice in flight, so slice
   boundaries (host scheduling granularity, never a simulated decision)
   legitimately differ. *)
let result_fields (r : Core.Runner.result) =
  let assoc kvs =
    String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ string_of_int v) kvs)
  in
  let metrics =
    Obs.Metrics.sorted r.metrics
    |> List.filter (fun (name, _) -> name <> "sched.slice_insns")
    |> List.map (fun (name, m) ->
           let v =
             match m with
             | Obs.Metrics.Counter c -> string_of_int c.count
             | Obs.Metrics.Gauge g -> string_of_int g.value
             | Obs.Metrics.Histogram h ->
                 Printf.sprintf "%d/%d/%d/%d/[%s]" h.n h.sum h.min_v h.max_v
                   (String.concat ","
                      (Array.to_list (Array.map string_of_int h.buckets)))
           in
           name ^ "=" ^ v)
  in
  [
    ("wall_cycles", string_of_int r.wall_cycles);
    ("total_insns", string_of_int r.total_insns);
    ("output", r.output);
    ("main_value", Rvm.Value.to_string r.main_value);
    ("htm_stats", assoc (Htm_sim.Stats.to_assoc r.htm_stats));
    ("stm_stats", assoc (Stm.stats_to_assoc r.stm_stats));
    ( "breakdown",
      let b = r.breakdown in
      Printf.sprintf "%d/%d/%d/%d/%d/%d" b.bd_txn_overhead b.bd_committed
        b.bd_aborted b.bd_gil_held b.bd_gil_wait b.bd_other );
    ("gil_acquisitions", string_of_int r.gil_acquisitions);
    ("gc_runs", string_of_int r.gc_runs);
    ("allocs", string_of_int r.allocs);
    ("txlen_at_one", Printf.sprintf "%h" r.txlen_at_one);
    ("txlen_mean", Printf.sprintf "%h" r.txlen_mean);
    ("requests_completed", string_of_int r.requests_completed);
    ("request_throughput", Printf.sprintf "%h" r.request_throughput);
    ("metrics", String.concat "\n" metrics);
    ("abort_sites", Obs.Json.to_string (Obs.Sites.to_json r.abort_sites));
    ("trace", string_of_bool (Option.is_some r.trace));
  ]

let test_advance_equals_run () =
  let full = run_server_via `Run in
  let stepped = run_server_via (`Advance 100_000) in
  Alcotest.(check bool)
    "horizon-stepped run is identical to the unbounded one" true
    (full = stepped);
  let fine = run_server_via (`Advance 13_333) in
  Alcotest.(check bool) "step size is invisible" true (full = fine);
  let full = result_fields (run_compute_via `Run) in
  let stepped = result_fields (run_compute_via (`Advance 300)) in
  List.iter2
    (fun (name, a) (_, b) ->
      Alcotest.(check string) ("12-thread compute, horizon 300: " ^ name) a b)
    full stepped

(* ---- the shard fleet ---------------------------------------------------- *)

let shard_cfg ?(shards = 2) ?(policy = Harness.Shard.Round_robin)
    ?(shared_session = false) ?(rate = 6000.0) ?(requests = 60) ?mix () =
  Harness.Shard.config ~policy ~shared_session
    ?mix
    ~workload:Workloads.Workload.webrick ~machine:Htm_sim.Machine.zec12
    ~scheme:Core.Scheme.Htm_dynamic ~shards ~clients:4
    ~size:Workloads.Size.Test
    ~arrivals:(Netsim.Poisson { rate; seed = 0x10AD })
    ~requests ()

(* A canonical text form of everything the shard digest will cover. *)
let fingerprint (r : Harness.Shard.result) =
  let per_shard =
    List.map
      (fun s ->
        Printf.sprintf "%d/%d/%d/%d/%d/%d/%d/%d"
          s.Harness.Shard.sh_assigned s.Harness.Shard.sh_completed
          s.Harness.Shard.sh_dropped s.Harness.Shard.sh_timed_out
          s.Harness.Shard.sh_htm_commits s.Harness.Shard.sh_htm_aborts
          s.Harness.Shard.sh_fb_gil s.Harness.Shard.sh_fb_stm)
      r.Harness.Shard.r_per_shard
  in
  Printf.sprintf "%d %d %d %d %d %d %d %d %.6f %.6f %d %d %d [%s]%s"
    r.Harness.Shard.r_shards r.Harness.Shard.r_issued
    r.Harness.Shard.r_completed r.Harness.Shard.r_dropped
    r.Harness.Shard.r_timed_out r.Harness.Shard.r_p50_cycles
    r.Harness.Shard.r_p95_cycles r.Harness.Shard.r_p99_cycles
    r.Harness.Shard.r_mean_cycles r.Harness.Shard.r_aggregate_rps
    r.Harness.Shard.r_htm.Htm_sim.Stats.commits
    r.Harness.Shard.r_fb_gil r.Harness.Shard.r_fb_stm
    (String.concat ";" per_shard)
    (match r.Harness.Shard.r_session with
    | None -> ""
    | Some s ->
        Printf.sprintf " session:%d/%d/%d/%d/%d/%d/%d" s.Harness.Shard.sn_updates
          s.Harness.Shard.sn_waves s.Harness.Shard.sn_htm_commits
          s.Harness.Shard.sn_htm_aborts s.Harness.Shard.sn_stm_commits
          s.Harness.Shard.sn_stm_aborts s.Harness.Shard.sn_gil_falls)

let test_placement_stability () =
  let cfg = shard_cfg ~shards:3 ~policy:Harness.Shard.Least_in_flight () in
  let one = fingerprint (Harness.Shard.run ~jobs:1 cfg) in
  let four = fingerprint (Harness.Shard.run ~jobs:4 cfg) in
  Alcotest.(check string) "SHARDS placement is invisible" one four

let test_round_robin_split () =
  let cfg = shard_cfg ~shards:3 () in
  let r = Harness.Shard.run ~jobs:1 cfg in
  let assigned =
    List.map (fun s -> s.Harness.Shard.sh_assigned) r.Harness.Shard.r_per_shard
  in
  Alcotest.(check (list int)) "upfront i mod n assignment" [ 20; 20; 20 ]
    assigned;
  Alcotest.(check int) "every request accounted" 60
    (r.Harness.Shard.r_completed + r.Harness.Shard.r_dropped
   + r.Harness.Shard.r_timed_out)

let test_least_in_flight_balances () =
  let cfg =
    shard_cfg ~shards:3 ~policy:Harness.Shard.Least_in_flight ~rate:9000.0 ()
  in
  let r = Harness.Shard.run ~jobs:1 cfg in
  let assigned =
    List.map (fun s -> s.Harness.Shard.sh_assigned) r.Harness.Shard.r_per_shard
  in
  Alcotest.(check int) "all arrivals assigned" 60
    (List.fold_left ( + ) 0 assigned);
  Alcotest.(check bool) "no shard starves" true
    (List.for_all (fun a -> a > 0) assigned);
  Alcotest.(check int) "every request accounted" 60
    (r.Harness.Shard.r_completed + r.Harness.Shard.r_dropped
   + r.Harness.Shard.r_timed_out)

(* Shared-nothing scaling: the acceptance criterion's shape at test size.
   An oversaturating rate caps one shard at its accept-queue capacity
   (half the stream drops at the full queue); four shards spread the same
   stream, drop nothing and drain it in parallel. The request count is
   large enough to amortise the per-shard VM boot cost. *)
let test_scaling () =
  let rps shards =
    (Harness.Shard.run ~jobs:shards
       (shard_cfg ~shards ~rate:400_000.0 ~requests:480 ()))
      .Harness.Shard.r_aggregate_rps
  in
  let one = rps 1 and four = rps 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 shards >= 3x 1 shard (%.0f vs %.0f rps)" four one)
    true
    (four >= 3.0 *. one)

let test_shared_session () =
  let cfg =
    shard_cfg ~shards:4 ~policy:Harness.Shard.Round_robin ~shared_session:true
      ~rate:9000.0 ()
  in
  let r = Harness.Shard.run ~jobs:2 cfg in
  match r.Harness.Shard.r_session with
  | None -> Alcotest.fail "session stats missing"
  | Some s ->
      Alcotest.(check int) "one slot update per completion"
        r.Harness.Shard.r_completed s.Harness.Shard.sn_updates;
      Alcotest.(check bool) "waves ran" true (s.Harness.Shard.sn_waves > 0);
      let resolved =
        s.Harness.Shard.sn_htm_commits + s.Harness.Shard.sn_stm_commits
        + s.Harness.Shard.sn_gil_falls
      in
      Alcotest.(check bool) "every transaction resolved somehow" true
        (resolved > 0 && resolved <= s.Harness.Shard.sn_waves * 4);
      (* replay again from the same logs: bit-identical *)
      let r2 = Harness.Shard.run ~jobs:1 cfg in
      Alcotest.(check string) "replay deterministic" (fingerprint r)
        (fingerprint r2)

(* ---- request mixes ------------------------------------------------------ *)

let test_mix_draw () =
  let mix = Workloads.Webrick.mix in
  let arrivals = Netsim.Poisson { rate = 5000.0; seed = 42 } in
  let sched ~mix =
    Workloads.Webrick.make_schedule ~clients:4 ~requests:40 ~arrivals ~mix
  in
  let entries, _ = sched ~mix in
  let entries2, _ = sched ~mix in
  Alcotest.(check bool) "class draw deterministic" true (entries = entries2);
  let plain, _ = sched ~mix:[] in
  Alcotest.(check bool) "mix leaves the gap stream untouched" true
    (Array.for_all2
       (fun a b -> a.Netsim.se_at = b.Netsim.se_at)
       entries plain);
  let regex =
    Array.to_list entries
    |> List.filter (fun e ->
           String.length e.Netsim.se_request > 11
           && String.sub e.Netsim.se_request 4 7 = "/search")
  in
  Alcotest.(check bool) "both classes drawn" true
    (List.length regex > 0 && List.length regex < 40)

let test_mix_served () =
  (* a mixed open-loop run completes and accounts everything *)
  let o =
    Harness.Exp.run
      (Harness.Exp.point
         ~arrivals:(Netsim.Poisson { rate = 4000.0; seed = 7 })
         ~mix:Workloads.Webrick.mix ~workload:Workloads.Workload.webrick
         ~machine:Htm_sim.Machine.zec12 ~scheme:Core.Scheme.Gil_only
         ~threads:4 ~size:Workloads.Size.Test ())
  in
  match o.Harness.Exp.load with
  | None -> Alcotest.fail "no load summary"
  | Some l ->
      Alcotest.(check int) "every request accounted" 60
        (l.Harness.Exp.completed + l.Harness.Exp.dropped
       + l.Harness.Exp.timed_out)

let suite =
  [
    Alcotest.test_case "advance ≡ run" `Quick test_advance_equals_run;
    Alcotest.test_case "placement stability" `Quick test_placement_stability;
    Alcotest.test_case "round-robin split" `Quick test_round_robin_split;
    Alcotest.test_case "least-in-flight balances" `Quick
      test_least_in_flight_balances;
    Alcotest.test_case "shared-nothing scaling" `Slow test_scaling;
    Alcotest.test_case "shared session store" `Quick test_shared_session;
    Alcotest.test_case "mix: deterministic class draw" `Quick test_mix_draw;
    Alcotest.test_case "mix: served end-to-end" `Quick test_mix_served;
  ]
