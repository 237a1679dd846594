(* The open-loop load tier: the fig_load family's JSON member must be a
   pure function of the simulated semantics — byte-identical across worker
   counts and both schedulers (the digest-stability acceptance check the
   smoke script runs at full scale). *)

module J = Obs.Json

(* A reduced panel (two schemes, test size) keeps each leg to a few server
   runs; [load_json] is the exact serializer bench digests. *)
let panel_text () =
  let p =
    Harness.Figures.run_load_panel
      ~schemes:[ Core.Scheme.Gil_only; Core.Scheme.Htm_dynamic ]
      ~size:Workloads.Size.Test ~machine:Htm_sim.Machine.zec12 "webrick"
  in
  J.to_string (Harness.Figures.load_json p)

let test_jobs_stability () =
  Harness.Pool.set_global_jobs 1;
  let one = panel_text () in
  Harness.Pool.set_global_jobs 4;
  let four = panel_text () in
  Harness.Pool.set_global_jobs 1;
  Alcotest.(check bool) "BENCH_JOBS=1 and 4 serialise identically" true
    (one = four)

let test_tier_stability () =
  let base = panel_text () in
  let ref_sched = Tutil.with_env "BENCH_SCHED" "ref" panel_text in
  Alcotest.(check bool) "reference scheduler serialises identically" true
    (base = ref_sched)

(* The sweep's semantics, not just its stability: saturation must show up
   as achieved load capped below offered, with losses accounted. *)
let test_saturation_shape () =
  let p =
    Harness.Figures.run_load_panel ~schemes:[ Core.Scheme.Gil_only ]
      ~size:Workloads.Size.Test ~machine:Htm_sim.Machine.zec12 "webrick"
  in
  let rates = Harness.Figures.offered_loads "webrick" in
  let low = List.hd rates and high = List.nth rates (List.length rates - 1) in
  let stats r =
    match Harness.Figures.load_cell p "GIL" r with
    | Some lp -> lp.Harness.Figures.lp_stats
    | None -> Alcotest.fail "missing grid cell"
  in
  let l = stats low and h = stats high in
  Alcotest.(check bool) "undersaturated: achieved tracks offered" true
    (l.Harness.Exp.achieved_rps < low *. 1.5
    && l.Harness.Exp.dropped + l.Harness.Exp.timed_out = 0);
  Alcotest.(check bool) "oversaturated: latency tail grows" true
    (h.Harness.Exp.p99_cycles >= l.Harness.Exp.p99_cycles);
  Alcotest.(check bool) "every request accounted" true
    (h.Harness.Exp.completed + h.Harness.Exp.dropped + h.Harness.Exp.timed_out
    = Workloads.Workload.webrick.Workloads.Workload.server_requests
        Workloads.Size.Test)

let suite =
  [
    Alcotest.test_case "fig_load stable across worker counts" `Quick
      test_jobs_stability;
    Alcotest.test_case "fig_load stable across sched/interp tiers" `Quick
      test_tier_stability;
    Alcotest.test_case "saturation shape" `Quick test_saturation_shape;
  ]
