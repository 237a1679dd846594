(* The shard tier: N full VM instances behind the netsim load balancer.
   The merged result must be a pure function of the simulated semantics —
   identical across worker counts — and sharding must actually scale. *)

(* ---- the shard fleet ---------------------------------------------------- *)

let shard_cfg ?(shards = 2) ?(shared_session = false) ?(rate = 6000.0)
    ?(requests = 60) () =
  Harness.Shard.of_point ~shared_session ~shards ~requests
    (Harness.Exp.point
       ~arrivals:(Netsim.Poisson { rate; seed = 0x10AD })
       ~workload:Workloads.Workload.webrick ~machine:Htm_sim.Machine.zec12
       ~scheme:Core.Scheme.Htm_dynamic ~threads:4 ~size:Workloads.Size.Test ())

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
  let cfg = shard_cfg ~shards:3 () in
  let one = fingerprint (Harness.Shard.run ~jobs:1 cfg) in
  let four = fingerprint (Harness.Shard.run ~jobs:4 cfg) in
  Alcotest.(check string) "worker placement is invisible" one four

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

(* Each job boots, runs and releases its shard, so at [jobs:1] every shard
   boots from the store pages and HTM line tables its predecessor handed
   back, and serving one stream with four shards allocates little more
   major heap than with two. *)
let test_shards_reuse_memory () =
  let major_mb shards =
    let w0 = (Gc.quick_stat ()).Gc.major_words in
    ignore (Harness.Shard.run ~jobs:1 (shard_cfg ~shards ~requests:240 ()));
    ((Gc.quick_stat ()).Gc.major_words -. w0) *. 8. /. 1e6
  in
  (* warm: this domain's page and line-table pool holds one VM's worth *)
  ignore (major_mb 2);
  let two = major_mb 2 in
  let four = major_mb 4 in
  Alcotest.(check bool)
    (Printf.sprintf "4 shards' %.1f MB exceed 2 shards' %.1f MB by < half"
       four two)
    true
    (four -. two < two /. 2.)

let test_shared_session () =
  let cfg =
    shard_cfg ~shards:4 ~shared_session:true ~rate:9000.0 ()
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

(* ---- one shard is the single-VM run ------------------------------------ *)

(* Every shard boots its point the way [Exp.run] does, so a one-shard run
   of a point must equal the single-VM run of the same point under every
   knob the point carries. The cell's 60 requests never fill the 64-slot
   accept queue, so no drop can shift client identities between the
   open-loop socket and the fed one. A run that raises (lazy subscription
   may corrupt a run) must raise the same way on both paths. *)
let test_one_shard_is_the_vm () =
  let w = Workloads.Workload.webrick and size = Workloads.Size.Test in
  let point ?yield_points ?opts ?clock ?subscription () =
    Harness.Exp.point ?yield_points ?opts ?clock ?subscription
      ~arrivals:(Netsim.Poisson { rate = 4000.0; seed = 0x10AD })
      ~workload:w ~machine:Htm_sim.Machine.zec12 ~scheme:Core.Scheme.Hybrid
      ~threads:4 ~size ()
  in
  let summary wall htm completed dropped timed_out p95 =
    Printf.sprintf "wall=%d htm=[%s] served=%d/%d/%d p95=%d" wall
      (String.concat ","
         (List.map
            (fun (k, v) -> Printf.sprintf "%s=%d" k v)
            (Htm_sim.Stats.to_assoc htm)))
      completed dropped timed_out p95
  in
  let guarded f =
    try f () with
    | Core.Runner.Stuck _ -> "stuck"
    | Core.Runner.Guest_failure _ -> "guest-failure"
  in
  let single p =
    guarded (fun () ->
        let o = Harness.Exp.run p in
        let l = Option.get o.Harness.Exp.load in
        summary o.Harness.Exp.wall_cycles
          o.Harness.Exp.result.Core.Runner.htm_stats l.Harness.Exp.completed
          l.Harness.Exp.dropped l.Harness.Exp.timed_out
          l.Harness.Exp.p95_cycles)
  in
  let one_shard p =
    guarded (fun () ->
        let r =
          Harness.Shard.run ~jobs:1
            (Harness.Shard.of_point ~shards:1
               ~requests:(w.Workloads.Workload.server_requests size)
               p)
        in
        summary r.Harness.Shard.r_wall_cycles r.Harness.Shard.r_htm
          r.Harness.Shard.r_completed r.Harness.Shard.r_dropped
          r.Harness.Shard.r_timed_out r.Harness.Shard.r_p95_cycles)
  in
  let d = Rvm.Options.default in
  let settings =
    [
      ("defaults", point ());
      ("clock gv5", point ~clock:Tm_clock.Gv5 ());
      ("lazy subscription", point ~subscription:Htm_sim.Subscription.Lazy ());
      ("original yield points", point ~yield_points:Core.Yield_points.Original ());
      ("cruby baseline", point ~opts:Rvm.Options.cruby_baseline ());
      ("lazy sweep", point ~opts:{ d with Rvm.Options.lazy_sweep = true } ());
      ( "refcount writes",
        point ~opts:{ d with Rvm.Options.refcount_writes = true } () );
      ( "gv6, lazy-safe",
        point ~clock:Tm_clock.Gv6 ~subscription:Htm_sim.Subscription.Lazy_safe
          () );
    ]
  in
  let default = single (snd (List.hd settings)) in
  List.iter
    (fun (name, p) ->
      let vm = single p in
      if name <> "defaults" then
        Alcotest.(check bool) (name ^ ": the knob moves the run") true
          (vm <> default);
      Alcotest.(check string) (name ^ ": one shard = one VM") vm (one_shard p))
    settings

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
    Alcotest.test_case "placement stability" `Quick test_placement_stability;
    Alcotest.test_case "round-robin split" `Quick test_round_robin_split;
    Alcotest.test_case "shared-nothing scaling" `Slow test_scaling;
    Alcotest.test_case "shared session store" `Quick test_shared_session;
    Alcotest.test_case "shards reuse one VM's memory" `Quick
      test_shards_reuse_memory;
    Alcotest.test_case "one shard is the single-VM run" `Quick
      test_one_shard_is_the_vm;
    Alcotest.test_case "mix: deterministic class draw" `Quick test_mix_draw;
    Alcotest.test_case "mix: served end-to-end" `Quick test_mix_served;
  ]
