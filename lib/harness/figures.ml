(* One driver per figure family of the paper's evaluation section. Each
   driver runs the sweep, prints the same rows/series the paper plots, and
   returns the family's JSON; [families] tabulates them for the CLI's [fig]
   and [digests] commands. *)

open Htm_sim
module J = Obs.Json

let schemes_fig5 =
  [
    Core.Scheme.Gil_only;
    Core.Scheme.Htm_fixed 1;
    Core.Scheme.Htm_fixed 16;
    Core.Scheme.Htm_fixed 256;
    Core.Scheme.Htm_dynamic;
  ]

let thread_counts (machine : Machine.t) =
  if machine.name = "zEC12" then [ 1; 2; 4; 6; 8; 12 ] else [ 1; 2; 4; 6; 8 ]

let wl name =
  match Workloads.Workload.find name with
  | Some w -> w
  | None -> invalid_arg ("unknown workload " ^ name)

(* Fan independent experiment points over the worker pool (sized by
   BENCH_JOBS, default 1). Results return in submission order and every
   point owns its whole simulator state, so the data is identical to a
   sequential run — printing happens after the join, on the caller. *)
let pmap f xs = Pool.map_list f xs

(* Normalised throughput relative to 1-thread GIL on the same machine and
   workload: the y-axis of Figures 4, 5, 6(b) and 7. *)
type panel = {
  workload : string;
  machine : string;
  baseline_wall : int;  (** 1-thread GIL *)
  cells : (string * int, float) Hashtbl.t;  (** (scheme, threads) -> y *)
  aborts : (string * int, float) Hashtbl.t;
  metrics : Obs.Metrics.t;
      (** the points' registries, merged in (scheme, threads) grid order *)
}

let run_panel ?(schemes = schemes_fig5) ?(size = Workloads.Size.S) ~machine
    ~threads_list workload_name =
  let workload = wl workload_name in
  let base =
    Exp.run
      (Exp.point ~workload ~machine ~scheme:Core.Scheme.Gil_only ~threads:1
         ~size ())
  in
  let base_thr =
    match workload.kind with
    | Workloads.Workload.Compute -> 1e9 /. float_of_int (max 1 base.wall_cycles)
    | Workloads.Workload.Server -> base.throughput
  in
  let panel =
    {
      workload = workload_name;
      machine = machine.Machine.name;
      baseline_wall = base.wall_cycles;
      cells = Hashtbl.create 64;
      aborts = Hashtbl.create 64;
      metrics = Obs.Metrics.create ();
    }
  in
  let combos =
    List.concat_map
      (fun scheme -> List.map (fun threads -> (scheme, threads)) threads_list)
      schemes
  in
  let outs =
    pmap
      (fun (scheme, threads) ->
        if scheme = Core.Scheme.Gil_only && threads = 1 then base
        else Exp.run (Exp.point ~workload ~machine ~scheme ~threads ~size ()))
      combos
  in
  List.iter2
    (fun (scheme, threads) (o : Exp.outcome) ->
      let key = (Core.Scheme.to_string scheme, threads) in
      Hashtbl.replace panel.cells key (o.throughput /. base_thr);
      Hashtbl.replace panel.aborts key o.abort_ratio;
      Obs.Metrics.merge panel.metrics o.result.Core.Runner.metrics)
    combos outs;
  panel

let print_panel fmt panel ~schemes ~threads_list =
  Report.series_table fmt
    ~title:
      (Printf.sprintf "%s on %s (throughput, 1 = 1-thread GIL)" panel.workload
         panel.machine)
    ~xlabel:"scheme \\ threads"
    ~rows:(List.map Core.Scheme.to_string schemes)
    ~xs:(List.map string_of_int threads_list)
    ~cell:(fun row i ->
      Hashtbl.find_opt panel.cells (row, List.nth threads_list i))

(* ---- JSON writers: plain data in a fixed field order, so a member's
   serialisation (and its digest) is a pure function of the simulated
   results ---- *)

(* A panel's sweep as a flat point list, deterministically ordered. *)
let panel_json ?(extra = []) p =
  let points =
    Hashtbl.fold (fun key v acc -> (key, v) :: acc) p.cells []
    |> List.sort compare
    |> List.map (fun ((scheme, threads), speedup) ->
           let abort =
             Option.value (Hashtbl.find_opt p.aborts (scheme, threads))
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
    ([
       ("workload", J.Str p.workload);
       ("machine", J.Str p.machine);
       ("baseline_wall", J.Int p.baseline_wall);
       ("points", J.List points);
     ]
    @ extra)

let panels_json panels = J.List (List.map (fun p -> panel_json p) panels)

let outcome_fields (o : Exp.outcome) =
  let r = o.Exp.result in
  [
    ("wall_cycles", J.Int o.Exp.wall_cycles);
    ("throughput", J.Float o.Exp.throughput);
    ("abort_ratio", J.Float o.Exp.abort_ratio);
    ("gil_acquisitions", J.Int r.Core.Runner.gil_acquisitions);
    ("gc_runs", J.Int r.Core.Runner.gc_runs);
    ("breakdown", Exp.breakdown_json r.Core.Runner.breakdown);
  ]

(* (bench, baseline outcome, changed outcome) rows of a two-arm ablation. *)
let pair_series_json ~variant rows =
  J.List
    (List.map
       (fun (name, baseline, changed) ->
         J.Obj
           [
             ("bench", J.Str name);
             ("baseline", J.Obj (outcome_fields baseline));
             (variant, J.Obj (outcome_fields changed));
           ])
       rows)

(* ---- Figure 4: microbenchmarks ------------------------------------------ *)

let fig4 size fmt =
  Report.header fmt
    "Figure 4: While/Iterator microbenchmarks, zEC12, 12 threads";
  let machine = Machine.zec12 in
  let threads_list = thread_counts machine in
  let panels =
    List.map
      (fun name -> run_panel ~machine ~threads_list ~size name)
      [ "while"; "iterator" ]
  in
  List.iter (fun p -> print_panel fmt p ~schemes:schemes_fig5 ~threads_list) panels;
  (* the headline numbers: best HTM speedup over GIL at 12 threads *)
  List.iter
    (fun p ->
      let gil = Hashtbl.find p.cells ("GIL", 12) in
      let best =
        List.fold_left
          (fun acc s ->
            match Hashtbl.find_opt p.cells (Core.Scheme.to_string s, 12) with
            | Some v -> max acc v
            | None -> acc)
          0.0
          [ Core.Scheme.Htm_fixed 1; Core.Scheme.Htm_fixed 16; Core.Scheme.Htm_dynamic ]
      in
      Format.fprintf fmt "%s: best HTM %.1fx over GIL at 12 threads@." p.workload
        (best /. gil))
    panels;
  panels_json panels

(* ---- Figure 5: NPB throughput ------------------------------------------- *)

let fig5 size fmt =
  panels_json
    (List.concat_map
       (fun machine ->
         let threads_list = thread_counts machine in
         List.map
           (fun name ->
             let p = run_panel ~machine ~threads_list ~size name in
             print_panel fmt p ~schemes:schemes_fig5 ~threads_list;
             p)
           Workloads.Workload.npb_names)
       [ Machine.zec12; Machine.xeon_e3 ])

(* ---- Figure 6(a): Haswell learning-predictor ramp ------------------------ *)

type fig6a_point = { iteration : int; written_kb : int; success_pct : float }

(* The paper's test program: one process transactionally writes a given
   amount of data per iteration; the written size shrinks every 10,000
   iterations (24 KB -> 20 KB -> 16 KB -> 12 KB); success ratio is measured
   per 100 iterations. Runs directly against the HTM engine. *)
let fig6a ?(iters_per_phase = 10_000) fmt =
  let machine = Machine.xeon_e3 in
  let store = Store.create ~dummy:0 ~line_cells:machine.line_cells (1 lsl 16) in
  let htm = Htm.create machine store in
  Htm.set_occupied htm 0 true;
  let region = Store.reserve_aligned store (32 * 1024 / 8) in
  let phases = [ 24; 20; 16; 12 ] in
  let out = ref [] in
  let window_success = ref 0 in
  let iteration = ref 0 in
  List.iter
    (fun kb ->
      for _ = 1 to iters_per_phase do
        incr iteration;
        let cells = kb * 1024 / 8 in
        Htm.tbegin htm ~ctx:0 ~rollback:(fun _ -> ());
        (try
           let i = ref 0 in
           while !i < cells do
             Htm.write htm ~ctx:0 (region + !i) !i;
             i := !i + 1
           done;
           Htm.tend htm ~ctx:0;
           incr window_success
         with Htm.Abort_now _ -> Htm.clear_pending_abort htm 0);
        if !iteration mod 100 = 0 then begin
          out :=
            {
              iteration = !iteration;
              written_kb = kb;
              success_pct = float_of_int !window_success;
            }
            :: !out;
          window_success := 0
        end
      done)
    phases;
  let points = List.rev !out in
  Report.header fmt "Figure 6(a): write-set shrink test on Xeon E3-1275 v3";
  Format.fprintf fmt "%10s %10s %12s@." "iteration" "size(KB)" "success(%)";
  List.iter
    (fun p ->
      if p.iteration mod 1000 = 0 then
        Format.fprintf fmt "%10d %10d %12.1f@." p.iteration p.written_kb
          p.success_pct)
    points;
  points

let fig6a_json points =
  J.List
    (List.map
       (fun pt ->
         J.Obj
           [
             ("iteration", J.Int pt.iteration);
             ("written_kb", J.Int pt.written_kb);
             ("success_pct", J.Float pt.success_pct);
           ])
       points)

(* ---- Figure 6(b): BT with a bigger class on Xeon -------------------------- *)

(* The figure is about the longer run, so it ignores the size class. *)
let fig6b _size fmt =
  Report.header fmt "Figure 6(b): BT class W on Xeon (longer run)";
  let machine = Machine.xeon_e3 in
  let threads_list = thread_counts machine in
  let p = run_panel ~machine ~threads_list ~size:Workloads.Size.W "bt" in
  print_panel fmt p ~schemes:schemes_fig5 ~threads_list;
  panel_json p

(* ---- Figure 7: WEBrick and Rails ------------------------------------------ *)

let fig7 size fmt =
  let clients = [ 1; 2; 3; 4; 6 ] in
  let combos =
    [
      ("webrick", Machine.zec12);
      ("webrick", Machine.xeon_e3);
      ("rails", Machine.xeon_e3);
    ]
  in
  let panel (name, machine) =
    let p = run_panel ~machine ~threads_list:clients ~size name in
    print_panel fmt p ~schemes:schemes_fig5 ~threads_list:clients;
    Report.series_table fmt
      ~title:
        (Printf.sprintf "%s on %s: HTM-dynamic abort ratio (%%)" name
           machine.Machine.name)
      ~xlabel:"clients" ~rows:[ "abort%" ]
      ~xs:(List.map string_of_int clients)
      ~cell:(fun _ i ->
        Option.map
          (fun a -> 100.0 *. a)
          (Hashtbl.find_opt p.aborts ("HTM-dynamic", List.nth clients i)));
    p
  in
  panels_json (List.map panel combos)

(* ---- Figure 8: abort ratios and cycle breakdowns --------------------------- *)

let fig8 size fmt =
  let machines = [ Machine.zec12; Machine.xeon_e3 ] in
  let combos =
    List.concat_map
      (fun machine ->
        List.concat_map
          (fun name ->
            List.map
              (fun threads -> (machine, name, threads))
              (thread_counts machine))
          Workloads.Workload.npb_names)
      machines
  in
  let outs =
    pmap
      (fun (machine, name, threads) ->
        Exp.run
          (Exp.point ~workload:(wl name) ~machine
             ~scheme:Core.Scheme.Htm_dynamic ~threads ~size ()))
      combos
  in
  let flat = List.combine combos outs in
  (* one bench's (threads, outcome) series on one machine *)
  let series machine name =
    List.filter_map
      (fun ((m, n, threads), o) ->
        if m.Machine.name = machine.Machine.name && n = name then
          Some (threads, o)
        else None)
      flat
  in
  List.iter
    (fun machine ->
      Report.header fmt
        (Printf.sprintf "Figure 8: HTM-dynamic abort ratios (%%), %s"
           machine.Machine.name);
      let threads_list = thread_counts machine in
      Format.fprintf fmt "%-16s" "bench \\ threads";
      List.iter (fun t -> Format.fprintf fmt "%10d" t) threads_list;
      Format.fprintf fmt "@.";
      List.iter
        (fun name ->
          let outs = series machine name in
          Format.fprintf fmt "%-16s" name;
          List.iter
            (fun t ->
              match List.assoc_opt t outs with
              | Some o -> Format.fprintf fmt "%10.2f" (100.0 *. o.Exp.abort_ratio)
              | None -> Format.fprintf fmt "%10s" "-")
            threads_list;
          Format.fprintf fmt "@.")
        Workloads.Workload.npb_names)
    machines;
  (* cycle breakdowns at 12 threads on zEC12 *)
  Report.header fmt "Figure 8: cycle breakdowns, HTM-dynamic, 12 threads, zEC12";
  Format.fprintf fmt "%-8s %10s %10s %10s %10s %10s %10s@." "bench" "beg/end%"
    "success%" "aborted%" "gil-held%" "gil-wait%" "other%";
  List.iter
    (fun name ->
      match List.assoc_opt 12 (series Machine.zec12 name) with
      | None -> ()
      | Some o ->
          let b = o.Exp.result.Core.Runner.breakdown in
          let total =
            float_of_int
              (max 1
                 (b.bd_txn_overhead + b.bd_committed + b.bd_aborted
                + b.bd_gil_held + b.bd_gil_wait + b.bd_other))
          in
          let pct x = 100.0 *. float_of_int x /. total in
          Format.fprintf fmt "%-8s %10.1f %10.1f %10.1f %10.1f %10.1f %10.1f@."
            name (pct b.bd_txn_overhead) (pct b.bd_committed)
            (pct b.bd_aborted) (pct b.bd_gil_held) (pct b.bd_gil_wait)
            (pct b.bd_other))
    Workloads.Workload.npb_names;
  J.List
    (List.concat_map
       (fun machine ->
         List.map
           (fun name ->
             J.Obj
               [
                 ("workload", J.Str name);
                 ("machine", J.Str machine.Machine.name);
                 ( "series",
                   J.List
                     (List.map
                        (fun (threads, o) ->
                          J.Obj (("threads", J.Int threads) :: outcome_fields o))
                        (series machine name)) );
               ])
           Workloads.Workload.npb_names)
       machines)

(* ---- Figure 9: scalability comparison -------------------------------------- *)

let fig9 size fmt =
  let threads_list = [ 1; 2; 4; 6; 8; 12 ] in
  let modes =
    [
      ("HTM-dynamic/zEC12", Core.Scheme.Htm_dynamic, Machine.zec12);
      ("JRuby/X5670", Core.Scheme.Fine_grained, Machine.xeon_x5670);
      ("Java/X5670", Core.Scheme.Free_parallel, Machine.xeon_x5670);
    ]
  in
  let combos =
    List.concat_map
      (fun (label, scheme, machine) ->
        List.map
          (fun name -> (label, scheme, machine, name))
          Workloads.Workload.npb_names)
      modes
  in
  let series_rows =
    pmap
      (fun (_, scheme, machine, name) ->
        let base =
          Exp.run
            (Exp.point ~workload:(wl name) ~machine ~scheme ~threads:1 ~size ())
        in
        List.map
          (fun threads ->
            let o =
              if threads = 1 then base
              else
                Exp.run
                  (Exp.point ~workload:(wl name) ~machine ~scheme ~threads
                     ~size ())
            in
            ( threads,
              float_of_int base.Exp.wall_cycles
              /. float_of_int (max 1 o.Exp.wall_cycles) ))
          threads_list)
      combos
  in
  let flat = List.combine combos series_rows in
  let all =
    List.map
      (fun (label, _, _) ->
        let rows =
          List.filter_map
            (fun ((l, _, _, name), series) ->
              if l = label then Some (name, series) else None)
            flat
        in
        Report.series_table fmt
          ~title:(Printf.sprintf "Figure 9: scalability of %s (1 = 1 thread)" label)
          ~xlabel:"bench \\ threads"
          ~rows:Workloads.Workload.npb_names
          ~xs:(List.map string_of_int threads_list)
          ~cell:(fun row i ->
            Option.bind (List.assoc_opt row rows) (fun series ->
                List.assoc_opt (List.nth threads_list i) series));
        (label, rows))
      modes
  in
  (* average 12-thread scalability, as quoted in Section 5.7 *)
  List.iter
    (fun (label, rows) ->
      let vals = List.filter_map (fun (_, s) -> List.assoc_opt 12 s) rows in
      let avg = List.fold_left ( +. ) 0.0 vals /. float_of_int (List.length vals) in
      Format.fprintf fmt "%s: average 12-thread scalability %.1fx@." label avg)
    all;
  J.List
    (List.map
       (fun (label, rows) ->
         J.Obj
           [
             ("mode", J.Str label);
             ( "series",
               J.List
                 (List.map
                    (fun (name, pts) ->
                      J.Obj
                        [
                          ("bench", J.Str name);
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
                    rows) );
           ])
       all)

(* ---- Hybrid TM: lock-only fallback vs software-transaction fallback ---------- *)

let schemes_hybrid =
  [ Core.Scheme.Gil_only; Core.Scheme.Htm_dynamic; Core.Scheme.Hybrid ]

(* zEC12 with a quarter of the store-buffer budget: transactional windows
   overflow routinely, so the runs spend their time on whichever fallback
   path the scheme provides — serialising on the GIL (HTM-dynamic) or
   retrying as a software transaction (Hybrid). The GIL baseline is
   unaffected by the shrunken budget. *)
let hybrid_machine = { Machine.zec12 with Machine.ws_lines = 8 }

(* Each panel's JSON carries its fallback counts; the member lives outside
   "figures" with its own digest, so "figures" stays byte-identical to runs
   that predate the STM subsystem (likewise load, shard and clock). *)
let fig_hybrid size fmt =
  Report.header fmt
    "Hybrid TM: GIL fallback vs STM fallback (zEC12, store buffer /4)";
  let machine = hybrid_machine in
  let threads_list = thread_counts machine in
  let names = Workloads.Workload.npb_names @ [ "webrick" ] in
  let panels =
    List.map
      (fun name ->
        run_panel ~schemes:schemes_hybrid ~machine ~threads_list ~size name)
      names
  in
  J.List
    (List.map
       (fun p ->
         print_panel fmt p ~schemes:schemes_hybrid ~threads_list;
         let fb name = (Obs.Metrics.counter p.metrics name).Obs.Metrics.count in
         Format.fprintf fmt
           "%s: windows that fell back across the grid: %d to the GIL, %d to \
            the STM@."
           p.workload (fb "fallback.gil") (fb "fallback.stm");
         panel_json p
           ~extra:
             [
               ("fallback_gil", J.Int (fb "fallback.gil"));
               ("fallback_stm", J.Int (fb "fallback.stm"));
             ])
       panels)

(* ---- Throughput vs offered load (open-loop request-latency tier) ------------ *)

let schemes_load =
  [
    Core.Scheme.Gil_only;
    Core.Scheme.Htm_dynamic;
    Core.Scheme.Hybrid;
    Core.Scheme.Stm_only;
  ]

(* Offered loads chosen to straddle each stack's closed-loop capacity
   (roughly 4.5-8.6k req/s for WEBrick on zEC12, 3.5-5k for Rails on the
   Xeon): the lowest rate undersaturates every scheme, the highest
   oversaturates all of them, so the sweep shows both the linear region and
   the saturation knee per scheme. *)
let offered_loads = function
  | "rails" -> [ 1_500.0; 3_000.0; 4_500.0; 6_000.0 ]
  | _ -> [ 2_000.0; 4_000.0; 6_000.0; 9_000.0 ]

(* One arrival seed for the whole family: every scheme at a given rate sees
   the identical arrival schedule, so throughput/latency differences are
   the scheme's alone (paired comparison). *)
let load_seed = 0x10AD

type load_point = {
  lp_scheme : string;
  lp_offered : float;
  lp_stats : Exp.load;
}

type load_panel = {
  lp_workload : string;
  lp_machine : string;
  lp_clients : int;
  lp_arrival : string;  (** "poisson" or "burst-N" *)
  lp_points : load_point list;  (** scheme-major, offered-load-minor *)
}

let run_load_panel ?(schemes = schemes_load) ?(size = Workloads.Size.S)
    ?(clients = 4) ?burst ~machine workload_name =
  let workload = wl workload_name in
  let rates = offered_loads workload_name in
  let arrivals rate =
    match burst with
    | Some bsize -> Netsim.Burst { rate; size = bsize; seed = load_seed }
    | None -> Netsim.Poisson { rate; seed = load_seed }
  in
  let combos =
    List.concat_map
      (fun scheme -> List.map (fun rate -> (scheme, rate)) rates)
      schemes
  in
  let outs =
    pmap
      (fun (scheme, rate) ->
        Exp.run
          (Exp.point ~workload ~machine ~scheme ~threads:clients ~size
             ~arrivals:(arrivals rate) ()))
      combos
  in
  let points =
    List.map2
      (fun (scheme, rate) (o : Exp.outcome) ->
        match o.Exp.load with
        | Some stats ->
            {
              lp_scheme = Core.Scheme.to_string scheme;
              lp_offered = rate;
              lp_stats = stats;
            }
        | None -> invalid_arg "open-loop run without load stats")
      combos outs
  in
  {
    lp_workload = workload_name;
    lp_machine = machine.Machine.name;
    lp_clients = clients;
    lp_arrival =
      (match burst with
      | Some n -> Printf.sprintf "burst-%d" n
      | None -> "poisson");
    lp_points = points;
  }

let load_cell panel scheme rate =
  List.find_opt
    (fun lp -> lp.lp_scheme = scheme && lp.lp_offered = rate)
    panel.lp_points

let print_load_panel fmt panel ~schemes =
  let rates = offered_loads panel.lp_workload in
  let xs = List.map (fun r -> Printf.sprintf "%.0f" r) rates in
  let rows = List.map Core.Scheme.to_string schemes in
  Report.series_table fmt
    ~title:
      (Printf.sprintf "%s on %s, %s arrivals: achieved req/s vs offered"
         panel.lp_workload panel.lp_machine panel.lp_arrival)
    ~xlabel:"scheme \\ offered" ~rows ~xs
    ~cell:(fun row i ->
      Option.map
        (fun lp -> lp.lp_stats.Exp.achieved_rps)
        (load_cell panel row (List.nth rates i)));
  List.iter
    (fun (label, pick) ->
      Report.series_table fmt
        ~title:
          (Printf.sprintf "%s on %s: %s request latency (us)"
             panel.lp_workload panel.lp_machine label)
        ~xlabel:"scheme \\ offered" ~rows ~xs
        ~cell:(fun row i ->
          Option.map
            (fun lp -> float_of_int (pick lp.lp_stats) /. 1_000.0)
            (load_cell panel row (List.nth rates i))))
    [
      ("p50", fun (l : Exp.load) -> l.Exp.p50_cycles);
      ("p95", fun l -> l.Exp.p95_cycles);
      ("p99", fun l -> l.Exp.p99_cycles);
    ];
  List.iter
    (fun lp ->
      let l = lp.lp_stats in
      if l.Exp.dropped > 0 || l.Exp.timed_out > 0 then
        Format.fprintf fmt
          "%s @@ %.0f req/s: %d dropped, %d timed out (queue peak %d)@."
          lp.lp_scheme lp.lp_offered l.Exp.dropped l.Exp.timed_out
          l.Exp.queue_peak)
    panel.lp_points

(* A point is its scheme ahead of [Exp.load_json]'s fields; the stats'
   [offered_rps] is the point's configured rate. *)
let load_json panel =
  let point_json lp =
    match Exp.load_json lp.lp_stats with
    | J.Obj fields -> J.Obj (("scheme", J.Str lp.lp_scheme) :: fields)
    | j -> j
  in
  J.Obj
    [
      ("workload", J.Str panel.lp_workload);
      ("machine", J.Str panel.lp_machine);
      ("clients", J.Int panel.lp_clients);
      ("arrival", J.Str panel.lp_arrival);
      ("points", J.List (List.map point_json panel.lp_points));
    ]

let fig_load size fmt =
  Report.header fmt
    "Load figure: throughput and latency quantiles vs offered load (open loop)";
  let combos =
    [
      ("webrick", Machine.zec12, None);
      ("rails", Machine.xeon_e3, None);
      ("webrick", Machine.zec12, Some 8);
    ]
  in
  J.List
    (List.map
       (fun (name, machine, burst) ->
         let p = run_load_panel ~machine ~size ?burst name in
         print_load_panel fmt p ~schemes:schemes_load;
         load_json p)
       combos)

(* ---- Sharded serving: aggregate throughput vs shard count -------------------- *)

let schemes_shard =
  [ Core.Scheme.Gil_only; Core.Scheme.Htm_dynamic; Core.Scheme.Hybrid ]

let shard_counts = [ 1; 2; 4 ]

(* One strongly oversaturating rate per workload: a single shard is
   queue-bound (arrivals swamp its accept queue), so aggregate served
   req/s tracks how many shards drain the same stream in parallel. *)
let shard_rate = function "rails" -> 300_000.0 | _ -> 400_000.0

type shard_point = {
  sp_scheme : string;
  sp_shards : int;
  sp_result : Shard.result;
}

type shard_panel = {
  sp_workload : string;
  sp_machine : string;
  sp_rate : float;
  sp_requests : int;
  sp_clients : int;
  sp_points : shard_point list;  (** scheme-major, shard-count-minor *)
}

(* The request count amortises the per-shard VM boot cost (which would
   otherwise dominate a 4-shard split of a short stream); capped so the
   size-S sweep stays within the bench budget. *)
let shard_requests workload size =
  min 480 (8 * workload.Workloads.Workload.server_requests size)

(* Cells run sequentially on purpose: each Shard.run fans its shards out
   over the BENCH_JOBS pool (results are placement-invariant), so keeping
   the outer loop off that pool means the family never nests pools — the
   shard member is byte-identical at any BENCH_JOBS. Every cell runs with
   the shared session store on: the replay is a post-hoc pure function of
   the completion logs, so the serving results are exactly the
   shared-nothing ones and the session counters give the
   contended-vs-shared-nothing ablation for free. *)
let run_shard_panel ?(schemes = schemes_shard) ?(size = Workloads.Size.S)
    ?(clients = 8) ~machine workload_name =
  let workload = wl workload_name in
  let rate = shard_rate workload_name in
  let requests = shard_requests workload size in
  let points =
    List.concat_map
      (fun scheme ->
        List.map
          (fun shards ->
            let cfg =
              Shard.of_point ~shared_session:true ~shards ~requests
                (Exp.point ~workload ~machine ~scheme ~threads:clients ~size
                   ~arrivals:(Netsim.Poisson { rate; seed = load_seed })
                   ())
            in
            {
              sp_scheme = Core.Scheme.to_string scheme;
              sp_shards = shards;
              sp_result = Shard.run cfg;
            })
          shard_counts)
      schemes
  in
  {
    sp_workload = workload_name;
    sp_machine = machine.Machine.name;
    sp_rate = rate;
    sp_requests = requests;
    sp_clients = clients;
    sp_points = points;
  }

let shard_cell panel scheme shards =
  List.find_opt
    (fun sp -> sp.sp_scheme = scheme && sp.sp_shards = shards)
    panel.sp_points

let print_shard_panel fmt panel ~schemes =
  let xs = List.map string_of_int shard_counts in
  let rows = List.map Core.Scheme.to_string schemes in
  Report.series_table fmt
    ~title:
      (Printf.sprintf
         "%s on %s, %.0f req/s offered over %d requests: served req/s vs shards"
         panel.sp_workload panel.sp_machine panel.sp_rate panel.sp_requests)
    ~xlabel:"scheme \\ shards" ~rows ~xs
    ~cell:(fun row i ->
      Option.map
        (fun sp -> sp.sp_result.Shard.r_aggregate_rps)
        (shard_cell panel row (List.nth shard_counts i)));
  List.iter
    (fun (label, pick) ->
      Report.series_table fmt
        ~title:
          (Printf.sprintf "%s on %s: %s request latency (us)" panel.sp_workload
             panel.sp_machine label)
        ~xlabel:"scheme \\ shards" ~rows ~xs
        ~cell:(fun row i ->
          Option.map
            (fun sp -> float_of_int (pick sp.sp_result) /. 1_000.0)
            (shard_cell panel row (List.nth shard_counts i))))
    [
      ("p50", fun (r : Shard.result) -> r.Shard.r_p50_cycles);
      ("p95", fun r -> r.Shard.r_p95_cycles);
      ("p99", fun r -> r.Shard.r_p99_cycles);
    ];
  (* the session-store ablation: contention grows with the shard count *)
  List.iter
    (fun sp ->
      match sp.sp_result.Shard.r_session with
      | Some s when sp.sp_scheme = "HTM-dynamic" ->
          Format.fprintf fmt
            "%s x%d shared sessions: %d updates in %d waves — %d HTM commits, \
             %d aborts, %d STM retries committed, %d waves to the GIL@."
            sp.sp_scheme sp.sp_shards s.Shard.sn_updates s.Shard.sn_waves
            s.Shard.sn_htm_commits s.Shard.sn_htm_aborts s.Shard.sn_stm_commits
            s.Shard.sn_gil_falls
      | _ -> ())
    panel.sp_points

(* Deterministic JSON for the "shard" member: plain data, fixed field
   order, merged in shard order — the FNV digest over this is the
   placement/tier acceptance gate. *)
let shard_json panel =
  let slice_json (s : Shard.shard_slice) =
    J.Obj
      [
        ("assigned", J.Int s.Shard.sh_assigned);
        ("completed", J.Int s.Shard.sh_completed);
        ("dropped", J.Int s.Shard.sh_dropped);
        ("timed_out", J.Int s.Shard.sh_timed_out);
        ("wall_cycles", J.Int s.Shard.sh_wall_cycles);
        ("htm_commits", J.Int s.Shard.sh_htm_commits);
        ("htm_aborts", J.Int s.Shard.sh_htm_aborts);
        ("fallback_gil", J.Int s.Shard.sh_fb_gil);
        ("fallback_stm", J.Int s.Shard.sh_fb_stm);
      ]
  in
  let session_json (s : Shard.session_stats) =
    J.Obj
      [
        ("updates", J.Int s.Shard.sn_updates);
        ("waves", J.Int s.Shard.sn_waves);
        ("htm_commits", J.Int s.Shard.sn_htm_commits);
        ("htm_aborts", J.Int s.Shard.sn_htm_aborts);
        ("stm_commits", J.Int s.Shard.sn_stm_commits);
        ("stm_aborts", J.Int s.Shard.sn_stm_aborts);
        ("gil_falls", J.Int s.Shard.sn_gil_falls);
      ]
  in
  let point_json sp =
    let r = sp.sp_result in
    J.Obj
      ([
         ("scheme", J.Str sp.sp_scheme);
         ("shards", J.Int sp.sp_shards);
         ("issued", J.Int r.Shard.r_issued);
         ("completed", J.Int r.Shard.r_completed);
         ("dropped", J.Int r.Shard.r_dropped);
         ("timed_out", J.Int r.Shard.r_timed_out);
         ("churned", J.Int r.Shard.r_churned);
         ("p50_cycles", J.Int r.Shard.r_p50_cycles);
         ("p95_cycles", J.Int r.Shard.r_p95_cycles);
         ("p99_cycles", J.Int r.Shard.r_p99_cycles);
         ("mean_cycles", J.Float r.Shard.r_mean_cycles);
         ("aggregate_rps", J.Float r.Shard.r_aggregate_rps);
         ("wall_cycles", J.Int r.Shard.r_wall_cycles);
         ("htm_commits", J.Int r.Shard.r_htm.Htm_sim.Stats.commits);
         ("htm_aborts", J.Int (Htm_sim.Stats.aborts r.Shard.r_htm));
         ("fallback_gil", J.Int r.Shard.r_fb_gil);
         ("fallback_stm", J.Int r.Shard.r_fb_stm);
         ("per_shard", J.List (List.map slice_json r.Shard.r_per_shard));
       ]
      @
      match r.Shard.r_session with
      | Some s -> [ ("session", session_json s) ]
      | None -> [])
  in
  J.Obj
    [
      ("workload", J.Str panel.sp_workload);
      ("machine", J.Str panel.sp_machine);
      (* the shard split; kept as a key because it is part of the digest *)
      ("policy", J.Str "round-robin");
      ("rate_rps", J.Float panel.sp_rate);
      ("requests", J.Int panel.sp_requests);
      ("clients", J.Int panel.sp_clients);
      ("points", J.List (List.map point_json panel.sp_points));
    ]

let fig_shard size fmt =
  Report.header fmt
    "Shard figure: aggregate served req/s and latency quantiles vs shard count";
  let combos = [ ("webrick", Machine.zec12); ("rails", Machine.xeon_e3) ] in
  J.List
    (List.map
       (fun (name, machine) ->
         let p = run_shard_panel ~machine ~size name in
         print_shard_panel fmt p ~schemes:schemes_shard;
         shard_json p)
       combos)

(* ---- Commit-clock and subscription ablation ---------------------------------- *)

(* The grid: clock schemes under eager subscription (the clock ablation
   proper), then lazy and safe-lazy subscription under GV1 (the safety
   ablation), every cell on [hybrid_machine]. Lazy runs reproduce the
   real hazard — a GC concurrent with unsubscribed zombie windows — so a
   cell is allowed to fail; the failure class is part of the recorded (and
   digested) data. *)
let clock_variants =
  [
    (Tm_clock.Gv1, Subscription.Eager);
    (Tm_clock.Gv5, Subscription.Eager);
    (Tm_clock.Gv6, Subscription.Eager);
    (Tm_clock.Gv1, Subscription.Lazy);
    (Tm_clock.Gv1, Subscription.Lazy_safe);
  ]

type clock_point = {
  cp_clock : string;
  cp_subscription : string;
  cp_outcome : string;  (** "ok", "stuck", "guest-failure" or "error" *)
  cp_wall : int;
  cp_completed : int;  (** requests (servers) — 0 for compute workloads *)
  cp_htm_commits : int;
  cp_htm_aborts : int;
  cp_fb_gil : int;
  cp_fb_stm : int;
  cp_stm_commits : int;
  cp_stm_validation_aborts : int;
  cp_bumps : int;  (** commit-clock cell writes (what hardware sees) *)
  cp_skipped : int;  (** GV5-mode commits that avoided the cell write *)
  cp_switches : int;  (** GV6 regime changes *)
  cp_kill_gil : int;  (** hardware aborts on the GIL word's line *)
  cp_kill_clock : int;  (** hardware aborts on the clock cell's line *)
}

type clock_panel = {
  cl_workload : string;
  cl_machine : string;
  cl_threads : int;
  cl_points : clock_point list;  (** in {!clock_variants} order *)
}

let run_clock_panel ?(size = Workloads.Size.S) ?(threads = 4) workload_name =
  let workload = wl workload_name in
  let machine = hybrid_machine in
  let cell (clock, subscription) =
    let label_c = Tm_clock.scheme_to_string clock
    and label_s = Subscription.to_string subscription in
    let zero outcome =
      {
        cp_clock = label_c;
        cp_subscription = label_s;
        cp_outcome = outcome;
        cp_wall = 0;
        cp_completed = 0;
        cp_htm_commits = 0;
        cp_htm_aborts = 0;
        cp_fb_gil = 0;
        cp_fb_stm = 0;
        cp_stm_commits = 0;
        cp_stm_validation_aborts = 0;
        cp_bumps = 0;
        cp_skipped = 0;
        cp_switches = 0;
        cp_kill_gil = 0;
        cp_kill_clock = 0;
      }
    in
    match
      Exp.run
        (Exp.point ~workload ~machine ~scheme:Core.Scheme.Hybrid ~threads
           ~size ~clock ~subscription ())
    with
    | o ->
        let r = o.Exp.result in
        let c name =
          (Obs.Metrics.counter r.Core.Runner.metrics name).Obs.Metrics.count
        in
        {
          cp_clock = label_c;
          cp_subscription = label_s;
          cp_outcome = "ok";
          cp_wall = r.Core.Runner.wall_cycles;
          cp_completed = r.Core.Runner.requests_completed;
          cp_htm_commits = r.Core.Runner.htm_stats.Stats.commits;
          cp_htm_aborts = Stats.aborts r.Core.Runner.htm_stats;
          cp_fb_gil = c "fallback.gil";
          cp_fb_stm = c "fallback.stm";
          cp_stm_commits = r.Core.Runner.stm_stats.Stm.commits;
          cp_stm_validation_aborts =
            r.Core.Runner.stm_stats.Stm.aborts_validation;
          cp_bumps = c "clock.bumps";
          cp_skipped = c "clock.skipped";
          cp_switches = c "clock.switches";
          cp_kill_gil = c "abort.gil_word";
          cp_kill_clock = c "abort.stm_clock";
        }
    | exception Core.Runner.Stuck _ -> zero "stuck"
    | exception Core.Runner.Guest_failure _ -> zero "guest-failure"
    | exception _ -> zero "error"
  in
  {
    cl_workload = workload_name;
    cl_machine = machine.Machine.name;
    cl_threads = threads;
    cl_points = pmap cell clock_variants;
  }

let print_clock_panel fmt panel =
  Report.header fmt
    (Printf.sprintf
       "%s on %s (hybrid, %d threads): commit-clock schemes x subscription"
       panel.cl_workload panel.cl_machine panel.cl_threads);
  Format.fprintf fmt "%-18s %9s %10s %10s %8s %8s %8s %8s %9s %9s@."
    "clock/subscription" "outcome" "wall(Mcyc)" "hw-aborts" "fb-gil"
    "fb-stm" "bumps" "skipped" "kill-gil" "kill-clk";
  List.iter
    (fun cp ->
      Format.fprintf fmt "%-18s %9s %10.1f %10d %8d %8d %8d %8d %9d %9d@."
        (cp.cp_clock ^ "/" ^ cp.cp_subscription)
        cp.cp_outcome
        (float_of_int cp.cp_wall /. 1e6)
        cp.cp_htm_aborts cp.cp_fb_gil cp.cp_fb_stm cp.cp_bumps cp.cp_skipped
        cp.cp_kill_gil cp.cp_kill_clock)
    panel.cl_points

(* Deterministic JSON for the "clock" member: plain data, fixed field
   order — the FNV digest over this is the ablation's acceptance gate. *)
let clock_json panel =
  let point_json cp =
    J.Obj
      [
        ("clock", J.Str cp.cp_clock);
        ("subscription", J.Str cp.cp_subscription);
        ("outcome", J.Str cp.cp_outcome);
        ("wall_cycles", J.Int cp.cp_wall);
        ("completed", J.Int cp.cp_completed);
        ("htm_commits", J.Int cp.cp_htm_commits);
        ("htm_aborts", J.Int cp.cp_htm_aborts);
        ("fallback_gil", J.Int cp.cp_fb_gil);
        ("fallback_stm", J.Int cp.cp_fb_stm);
        ("stm_commits", J.Int cp.cp_stm_commits);
        ("stm_validation_aborts", J.Int cp.cp_stm_validation_aborts);
        ("clock_bumps", J.Int cp.cp_bumps);
        ("clock_skipped", J.Int cp.cp_skipped);
        ("clock_switches", J.Int cp.cp_switches);
        ("kill_gil_word", J.Int cp.cp_kill_gil);
        ("kill_stm_clock", J.Int cp.cp_kill_clock);
      ]
  in
  J.Obj
    [
      ("workload", J.Str panel.cl_workload);
      ("machine", J.Str panel.cl_machine);
      ("threads", J.Int panel.cl_threads);
      ("points", J.List (List.map point_json panel.cl_points));
    ]

let fig_clock size fmt =
  Report.header fmt
    "Clock figure: adaptive commit clocks and lazy subscription (hybrid TM)";
  (* WEBrick exercises the GC-heavy server path where lazy subscription is
     unsafe; IS is the STM-fallback-heavy compute panel (shared histogram +
     shrunken store buffer) where the clock schemes separate. *)
  J.List
    (List.map
       (fun name ->
         let p = run_clock_panel ~size name in
         print_clock_panel fmt p;
         clock_json p)
       [ "webrick"; "is" ])

(* ---- Section 5.4 ablations -------------------------------------------------- *)

let ablation size fmt =
  let threads = 8 in
  Report.header fmt
    (Printf.sprintf
       "Section 5.4 ablations: HTM-dynamic on zEC12, %d threads (1 = 1-thread GIL)"
       threads);
  let machine = Machine.zec12 in
  Format.fprintf fmt "%-8s %14s %14s %14s %14s@." "bench" "GIL" "HTM-dyn"
    "orig-yields" "no-removal";
  let rows =
    pmap
      (fun name ->
        let workload = wl name in
        let base =
          Exp.run
            (Exp.point ~workload ~machine ~scheme:Core.Scheme.Gil_only
               ~threads:1 ~size ())
        in
        let rel o =
          float_of_int base.Exp.wall_cycles /. float_of_int o.Exp.wall_cycles
        in
        let gil =
          Exp.run
            (Exp.point ~workload ~machine ~scheme:Core.Scheme.Gil_only ~threads
               ~size ())
        in
        let dyn =
          Exp.run
            (Exp.point ~workload ~machine ~scheme:Core.Scheme.Htm_dynamic
               ~threads ~size ())
        in
        let orig_yields =
          Exp.run
            (Exp.point ~workload ~machine ~scheme:Core.Scheme.Htm_dynamic
               ~threads ~size ~yield_points:Core.Yield_points.Original ())
        in
        let no_removal =
          Exp.run
            (Exp.point ~workload ~machine ~scheme:Core.Scheme.Htm_dynamic
               ~threads ~size ~opts:Rvm.Options.cruby_baseline ())
        in
        (name, rel gil, rel dyn, rel orig_yields, rel no_removal))
      Workloads.Workload.npb_names
  in
  List.iter
    (fun (name, gil, dyn, orig_yields, no_removal) ->
      Format.fprintf fmt "%-8s %14.2f %14.2f %14.2f %14.2f@." name gil dyn
        orig_yields no_removal)
    rows;
  J.List
    (List.map
       (fun (bench, gil, dyn, orig_yields, no_removal) ->
         J.Obj
           [
             ("bench", J.Str bench);
             ("gil", J.Float gil);
             ("htm_dynamic", J.Float dyn);
             ("original_yield_points", J.Float orig_yields);
             ("no_conflict_removal", J.Float no_removal);
           ])
       rows)

(* ---- Section 5.6 future work: thread-local lazy sweeping --------------------- *)

(* The paper's conclusion calls for eliminating the global free list by
   sweeping on a thread-local basis. [lib/rvm/heap.ml] implements it behind
   [Options.lazy_sweep]; this ablation measures what it buys. *)
let future_work size fmt =
  let threads = 12 in
  Report.header fmt
    (Printf.sprintf
       "Section 5.6 future work: thread-local lazy sweep, HTM-dynamic, zEC12, %d threads"
       threads);
  Format.fprintf fmt "%-8s %14s %14s %12s %12s@." "bench" "eager sweep"
    "lazy sweep" "abort%(eager)" "abort%(lazy)";
  let rows =
    pmap
      (fun name ->
        let workload = wl name in
        let machine = Machine.zec12 in
        let run opts =
          Exp.run
            (Exp.point ~opts ~workload ~machine ~scheme:Core.Scheme.Htm_dynamic
               ~threads ~size ())
        in
        let eager = run Rvm.Options.default in
        let lzy = run { Rvm.Options.default with lazy_sweep = true } in
        (name, eager, lzy))
      Workloads.Workload.npb_names
  in
  List.iter
    (fun (name, eager, lzy) ->
      Format.fprintf fmt "%-8s %14d %14d %12.2f %12.2f@." name
        eager.Exp.wall_cycles lzy.Exp.wall_cycles
        (100.0 *. eager.Exp.abort_ratio)
        (100.0 *. lzy.Exp.abort_ratio))
    rows;
  pair_series_json ~variant:"lazy_sweep" rows

(* ---- Section 7: would this work for Python? ----------------------------------- *)

(* The paper argues the techniques carry over to Python except that
   CPython's reference-counting GC "will cause many conflicts" (why RETCON
   exists). With refcount writes on every dispatch, every shared object's
   header becomes write-hot. *)
let refcount size fmt =
  let threads = 8 in
  Report.header fmt
    (Printf.sprintf
       "Section 7: CPython-style reference counting, HTM-dynamic, zEC12, %d threads"
       threads);
  Format.fprintf fmt "%-8s %12s %12s %14s %14s@." "bench" "ruby-style"
    "refcounted" "abort%(ruby)" "abort%(rc)";
  let rows =
    pmap
      (fun name ->
        let workload = wl name in
        let machine = Machine.zec12 in
        let run opts =
          Exp.run
            (Exp.point ~opts ~workload ~machine ~scheme:Core.Scheme.Htm_dynamic
               ~threads ~size ())
        in
        let plain = run Rvm.Options.default in
        let rc = run { Rvm.Options.default with refcount_writes = true } in
        (name, plain, rc))
      Workloads.Workload.npb_names
  in
  List.iter
    (fun (name, plain, rc) ->
      Format.fprintf fmt "%-8s %12d %12d %14.2f %14.2f@." name
        plain.Exp.wall_cycles rc.Exp.wall_cycles
        (100.0 *. plain.Exp.abort_ratio)
        (100.0 *. rc.Exp.abort_ratio))
    rows;
  pair_series_json ~variant:"refcounted" rows

(* ---- Section 5.6: single-thread overhead ------------------------------------- *)

let overhead size fmt =
  Report.header fmt
    "Section 5.6: single-thread overhead of HTM-dynamic vs GIL (zEC12)";
  Format.fprintf fmt "%-8s %12s@." "bench" "overhead(%)";
  let rows =
    pmap
      (fun name ->
        let workload = wl name in
        let machine = Machine.zec12 in
        let gil =
          Exp.run
            (Exp.point ~workload ~machine ~scheme:Core.Scheme.Gil_only
               ~threads:1 ~size ())
        in
        let dyn =
          Exp.run
            (Exp.point ~workload ~machine ~scheme:Core.Scheme.Htm_dynamic
               ~threads:1 ~size ())
        in
        let ov =
          100.0
          *. (float_of_int dyn.Exp.wall_cycles
              /. float_of_int gil.Exp.wall_cycles
             -. 1.0)
        in
        (name, ov))
      Workloads.Workload.npb_names
  in
  List.iter (fun (name, ov) -> Format.fprintf fmt "%-8s %12.1f@." name ov) rows;
  J.List
    (List.map
       (fun (bench, pct) ->
         J.Obj [ ("bench", J.Str bench); ("overhead_pct", J.Float pct) ])
       rows)

(* ---- the family table and the results file --------------------------------- *)

type family = {
  name : string;
  member : string;
  key : string;
  run : Workloads.Size.t -> Format.formatter -> J.t;
}

(* In results-file order: the eleven "figures" series, then the four
   families that own a member. *)
let families =
  let series name ?(key = name) run = { name; member = "figures"; key; run } in
  let own name run = { name; member = name; key = name; run } in
  [
    series "fig4" fig4;
    series "fig5" fig5;
    series "fig6a" (fun _ fmt -> fig6a_json (fig6a fmt));
    series "fig6b" fig6b;
    series "fig7" fig7;
    series "fig8" fig8;
    series "fig9" fig9;
    series "ablation" ablation;
    series "overhead" overhead;
    series "future-work" ~key:"future_work" future_work;
    series "refcount" refcount;
    own "hybrid" fig_hybrid;
    own "load" fig_load;
    own "shard" fig_shard;
    own "clock" fig_clock;
  ]

let members =
  "figures"
  :: List.filter_map
       (fun f -> if f.member = "figures" then None else Some f.member)
       families

let results ~size runs =
  let series, own =
    List.partition (fun (f, _, _, _) -> f.member = "figures") runs
  in
  let rss = function Some mb -> J.Int mb | None -> J.Null in
  let host =
    List.map (fun (f, _, secs, _) -> (f.key, J.Float secs)) runs
    @ [
        ( "peak_rss_mb",
          J.Obj (List.map (fun (f, _, _, mb) -> (f.key, rss mb)) runs) );
      ]
  in
  J.Obj
    ([
       ("producer", J.Str "bin/main.exe fig");
       ("size", J.Str (Workloads.Size.to_string size));
       ("jobs", J.Int (Pool.default_jobs ()));
       ("figures", J.Obj (List.map (fun (f, j, _, _) -> (f.key, j)) series));
     ]
    @ List.map (fun (f, j, _, _) -> (f.member, j)) own
    @ [ ("host", J.Obj host) ])

(* FNV-1a 64 over a serialised member. *)
let fnv64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let digests doc =
  let missing_series figs =
    List.filter_map
      (fun f ->
        if f.member = "figures" && J.member f.key figs = None then
          Some (Printf.sprintf "no %S series in \"figures\"" f.key)
        else None)
      families
  in
  let problems =
    List.concat_map
      (fun m ->
        match J.member m doc with
        | None -> [ Printf.sprintf "no %S member" m ]
        | Some figs when m = "figures" -> missing_series figs
        | Some _ -> [])
      members
  in
  if problems <> [] then Error problems
  else
    Ok
      (String.concat " "
         (List.map
            (fun m ->
              Printf.sprintf "%s=%s" m
                (fnv64 (J.to_string (Option.get (J.member m doc)))))
            members))
