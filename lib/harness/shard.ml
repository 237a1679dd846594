(* The shard tier: N complete VM+scheduler instances, each a full
   [Core.Runner] with its own Store/Htm/Stm/Gil and its own session
   interning context, running in parallel OCaml domains behind a netsim
   load balancer.

   One global open-loop arrival schedule is generated up front
   ([Netsim.schedule] — identical to what a single PR 6 socket would
   produce) and split across per-shard [Netsim.Fed] sockets:

   - [Round_robin] assigns arrival i to shard i mod N up front, feeds every
     shard its whole sub-schedule and runs the shards to completion fully
     in parallel — the shared-nothing scaling path.

   - [Least_in_flight] drives the shards in lockstep virtual-time epochs:
     at each barrier the balancer assigns the next epoch's arrivals to the
     shard with the fewest outstanding requests. Outstanding counts are
     computed from virtual-time-stamped observations
     ([Netsim.completed_by] etc. at the barrier time), never raw counters:
     a paused runner may overshoot the horizon by one step's cost, so raw
     counters at a barrier include work stamped past it, while
     stamp-filtered counts are pure functions of virtual time.

   Per-shard results merge deterministically in shard order: metric
   registries via [Obs.Metrics.merge] (latency histogram buckets sum,
   gauges take maxima), HTM stats via [Stats.merge], STM stats by field
   sums. How many worker domains drive the shards is the [SHARDS]
   environment placement knob — results are bit-identical at any value.

   The optional shared session store is the contended-vs-shared-nothing
   ablation: one store + hybrid TM engine (Htm + Stm) shared by all
   shards, replayed from the completion logs after the serving runs. Each
   epoch window in which a shard completed requests contributes one
   hardware transaction updating the completed clients' session slots;
   transactions across shards overlap in virtual time (all begin and
   access before any commits), so conflicting slots produce real
   requester-wins aborts, software-fallback retries and commit-clock
   cascades — deterministic, because the replay order is (epoch window,
   shard, conn id). *)

open Htm_sim

type policy = Round_robin | Least_in_flight

let policy_to_string = function
  | Round_robin -> "round-robin"
  | Least_in_flight -> "least-in-flight"

let policy_of_string s =
  match String.lowercase_ascii s with
  | "round-robin" | "rr" -> Round_robin
  | "least-in-flight" | "lif" -> Least_in_flight
  | _ ->
      invalid_arg
        (Printf.sprintf
           "unknown balancing policy %S (expected round-robin or \
            least-in-flight)"
           s)

(* The SHARDS environment variable: how many worker domains drive the
   shards. A placement knob like BENCH_JOBS — results are identical at any
   value, only host wall time changes. *)
let default_shard_jobs () =
  match Sys.getenv_opt "SHARDS" with
  | None | Some "" -> 1
  | Some s -> (
      match int_of_string_opt s with
      | Some n when n >= 1 -> min n 64
      | _ -> invalid_arg "SHARDS must be a positive integer")

type config = {
  workload : Workloads.Workload.t;
  machine : Machine.t;
  scheme : Core.Scheme.kind;
  shards : int;
  clients : int;  (** keep-alive slots of the global schedule *)
  size : Workloads.Size.t;
  arrivals : Netsim.arrivals;  (** the global schedule: Poisson or Burst *)
  requests : int;  (** total requests, split across the shards *)
  policy : policy;
  mix : Netsim.mix;
  shared_session : bool;
  epoch : int;  (** balancer epoch length, in virtual cycles *)
}

let config ?(policy = Round_robin) ?(mix = []) ?(shared_session = false)
    ?(epoch = 250_000) ~workload ~machine ~scheme ~shards ~clients ~size
    ~arrivals ~requests () =
  if shards < 1 then invalid_arg "Shard.config: shards < 1";
  if epoch < 1 then invalid_arg "Shard.config: epoch < 1";
  (match arrivals with
  | Netsim.Poisson _ | Netsim.Burst _ -> ()
  | _ -> invalid_arg "Shard.config: the global schedule needs open-loop arrivals");
  {
    workload;
    machine;
    scheme;
    shards;
    clients;
    size;
    arrivals;
    requests;
    policy;
    mix;
    shared_session;
    epoch;
  }

(* ---- the shared cross-shard session store ------------------------------- *)

type session_stats = {
  mutable sn_updates : int;  (** session-slot updates attempted *)
  mutable sn_waves : int;  (** replay waves (epoch windows with activity) *)
  mutable sn_htm_commits : int;
  mutable sn_htm_aborts : int;
  mutable sn_stm_commits : int;
  mutable sn_stm_aborts : int;
  mutable sn_gil_falls : int;  (** waves that fell through to direct writes *)
}

let n_session_slots = 16

(* Replay the shards' completion logs against one shared store mediated by
   the hybrid TM engine. [logs] holds each shard's (finish, conn_id,
   client) completions, oldest first. Pure function of the logs and the
   epoch length. *)
let replay_session (machine : Machine.t) ~epoch logs =
  let store = Store.create ~dummy:0 ~line_cells:machine.Machine.line_cells 0 in
  let htm = Htm.create ~mode:Htm.Htm_mode machine store in
  let stm = Stm.create ~mk_clock:(fun c -> c) htm in
  let slots =
    Array.init n_session_slots (fun _ ->
        let a = Store.reserve_aligned store machine.Machine.line_cells in
        Store.set store a 0;
        a)
  in
  let slot client = slots.(client mod n_session_slots) in
  let st =
    {
      sn_updates = 0;
      sn_waves = 0;
      sn_htm_commits = 0;
      sn_htm_aborts = 0;
      sn_stm_commits = 0;
      sn_stm_aborts = 0;
      sn_gil_falls = 0;
    }
  in
  let n = Array.length logs in
  let n_ctx = max 1 (machine.Machine.n_cores * machine.Machine.smt) in
  (* bucket completions by (epoch window, shard) *)
  let windows = Hashtbl.create 64 in
  Array.iteri
    (fun s log ->
      List.iter
        (fun ((fin, _, _) as c) ->
          let w = fin / epoch in
          let key = (w, s) in
          Hashtbl.replace windows key
            (c :: Option.value (Hashtbl.find_opt windows key) ~default:[]))
        log)
    logs;
  let window_ids =
    Hashtbl.fold (fun (w, _) _ acc -> if List.mem w acc then acc else w :: acc)
      windows []
    |> List.sort compare
  in
  let direct_writes ctx comps =
    List.iter
      (fun (_, _, client) ->
        let a = slot client in
        let v = Htm.nontxn_read htm ~ctx a in
        Htm.nontxn_write htm ~ctx a (v + 1))
      comps
  in
  List.iter
    (fun w ->
      (* participants of this wave, ascending shard order, each with its
         completions oldest first (log order) *)
      let parts =
        List.filter_map
          (fun s ->
            match Hashtbl.find_opt windows (w, s) with
            | Some comps -> Some (s, List.rev comps)
            | None -> None)
          (List.init n Fun.id)
      in
      (* sub-waves: at most one live transaction per hardware context *)
      let rec chunks = function
        | [] -> []
        | l ->
            let k = min n_ctx (List.length l) in
            let rec split i acc = function
              | rest when i = k -> (List.rev acc, rest)
              | x :: rest -> split (i + 1) (x :: acc) rest
              | [] -> (List.rev acc, [])
            in
            let head, rest = split 0 [] l in
            head :: chunks rest
      in
      List.iter
        (fun wave ->
          st.sn_waves <- st.sn_waves + 1;
          (* phase 1: every participant opens a hardware transaction and
             touches its clients' slots. Conflicts are requester-wins, so a
             later shard's access can kill an earlier shard's open
             transaction (it finds the pending abort in phase 2) but never
             the accessor's own. *)
          List.iter
            (fun (s, comps) ->
              let ctx = s mod n_ctx in
              Htm.set_cur_ctx htm ctx;
              Htm.tbegin htm ~ctx ~rollback:(fun _ -> ());
              List.iter
                (fun (_, _, client) ->
                  st.sn_updates <- st.sn_updates + 1;
                  let a = slot client in
                  let v = Htm.read htm ~ctx a in
                  Htm.write htm ~ctx a (v + 1))
                comps)
            wave;
          (* phase 2: resolve in shard order. A surviving transaction
             commits; a killed one retries as a software transaction whose
             commit can in turn kill later still-open hardware
             transactions (the commit-clock cascade); failed validation
             falls through to GIL-serialised direct writes. *)
          List.iter
            (fun (s, comps) ->
              let ctx = s mod n_ctx in
              Htm.set_cur_ctx htm ctx;
              match Htm.pending_abort htm ctx with
              | None -> (
                  try
                    Htm.tend htm ~ctx;
                    st.sn_htm_commits <- st.sn_htm_commits + 1
                  with Htm.Abort_now _ ->
                    st.sn_htm_aborts <- st.sn_htm_aborts + 1;
                    Htm.clear_pending_abort htm ctx;
                    st.sn_gil_falls <- st.sn_gil_falls + 1;
                    direct_writes ctx comps)
              | Some _ ->
                  Htm.clear_pending_abort htm ctx;
                  st.sn_htm_aborts <- st.sn_htm_aborts + 1;
                  (* software retry *)
                  Htm.set_software_active htm ctx true;
                  Stm.begin_ stm ~ctx ~rollback:(fun _ -> ());
                  let ok =
                    try
                      List.iter
                        (fun (_, _, client) ->
                          let a = slot client in
                          let v = Htm.read htm ~ctx a in
                          Htm.write htm ~ctx a (v + 1))
                        comps;
                      Stm.validate stm ~ctx < 0
                    with Htm.Abort_now _ -> false
                  in
                  if ok then begin
                    Stm.commit stm ~ctx;
                    st.sn_stm_commits <- st.sn_stm_commits + 1
                  end
                  else begin
                    if Stm.in_txn stm ctx then
                      Stm.abort stm ~ctx Txn.Validation;
                    Stm.clear_pending_abort stm ctx;
                    st.sn_stm_aborts <- st.sn_stm_aborts + 1;
                    st.sn_gil_falls <- st.sn_gil_falls + 1;
                    direct_writes ctx comps
                  end;
                  Htm.set_software_active htm ctx false)
            wave)
        (chunks parts))
    window_ids;
  st

(* ---- running the shard fleet -------------------------------------------- *)

type shard_slice = {
  sh_assigned : int;
  sh_completed : int;
  sh_dropped : int;
  sh_timed_out : int;
  sh_wall_cycles : int;
  sh_htm_commits : int;
  sh_htm_aborts : int;
  sh_fb_gil : int;
  sh_fb_stm : int;
}

type result = {
  r_shards : int;
  r_policy : policy;
  r_issued : int;
  r_completed : int;
  r_dropped : int;
  r_timed_out : int;
  r_churned : int;  (** keep-alive churn of the global schedule *)
  r_p50_cycles : int;
  r_p95_cycles : int;
  r_p99_cycles : int;
  r_mean_cycles : float;
  r_aggregate_rps : float;
      (** total completions over the span to the last completion (virtual
          time), the sharded analogue of [Netsim.achieved_load] *)
  r_wall_cycles : int;  (** max shard wall clock *)
  r_htm : Stats.t;  (** per-shard stats merged in shard order *)
  r_stm : Stm.stats;
  r_fb_gil : int;
  r_fb_stm : int;
  r_metrics : Obs.Metrics.t;  (** merged registries, shard order *)
  r_per_shard : shard_slice list;
  r_session : session_stats option;
}

type shard_state = {
  io : Netsim.t;
  runner : Core.Runner.t;
  mutable assigned : int;
  mutable finished : Core.Runner.result option;
}

let sum_stm (dst : Stm.stats) (src : Stm.stats) =
  dst.Stm.begins <- dst.Stm.begins + src.Stm.begins;
  dst.commits <- dst.commits + src.Stm.commits;
  dst.read_only_commits <- dst.read_only_commits + src.Stm.read_only_commits;
  dst.aborts_validation <- dst.aborts_validation + src.Stm.aborts_validation;
  dst.aborts_conflict <- dst.aborts_conflict + src.Stm.aborts_conflict;
  dst.aborts_explicit <- dst.aborts_explicit + src.Stm.aborts_explicit;
  dst.accesses <- dst.accesses + src.Stm.accesses;
  dst.rs_total <- dst.rs_total + src.Stm.rs_total;
  dst.ws_total <- dst.ws_total + src.Stm.ws_total;
  dst.rs_max <- max dst.rs_max src.Stm.rs_max;
  dst.ws_max <- max dst.ws_max src.Stm.ws_max

let run ?jobs (cfg : config) : result =
  let w = cfg.workload in
  let make_schedule =
    match w.Workloads.Workload.make_schedule with
    | Some f -> f
    | None -> invalid_arg "Shard.run: workload has no schedule generator"
  in
  let make_io_fed =
    match w.Workloads.Workload.make_io_fed with
    | Some f -> f
    | None -> invalid_arg "Shard.run: workload has no fed socket"
  in
  let entries, churned =
    make_schedule ~clients:cfg.clients ~requests:cfg.requests
      ~arrivals:cfg.arrivals ~mix:cfg.mix
  in
  let rcfg =
    Core.Runner.config ~scheme:cfg.scheme
      ~yield_points:Core.Yield_points.Extended cfg.machine
  in
  let source = w.Workloads.Workload.source ~threads:cfg.clients ~size:cfg.size in
  let shards =
    Array.init cfg.shards (fun _ ->
        let io = make_io_fed () in
        let runner = Core.Runner.create ~io rcfg ~source in
        w.Workloads.Workload.setup (Some io) runner.Core.Runner.vm;
        { io; runner; assigned = 0; finished = None })
  in
  let n = cfg.shards in
  let pool = Pool.create (min (match jobs with Some j -> j | None -> default_shard_jobs ()) n) in
  let feed_entry s (e : Netsim.sched_entry) =
    Netsim.feed shards.(s).io ~at:e.Netsim.se_at ~client:e.Netsim.se_client
      ~request:e.Netsim.se_request;
    shards.(s).assigned <- shards.(s).assigned + 1
  in
  let finish_shard s =
    match
      Pool.map pool
        (fun i ->
          let sh = shards.(i) in
          ( i,
            Core.Runner.run
              ~stop:(fun () -> Netsim.done_all sh.io)
              sh.runner ))
        s
    with
    | results -> List.iter (fun (i, r) -> shards.(i).finished <- Some r) results
  in
  (match cfg.policy with
  | Round_robin ->
      (* upfront assignment: arrival i -> shard i mod N. The whole
         sub-schedule is known, so the shards run to completion fully in
         parallel — no barriers at all. *)
      Array.iteri (fun i e -> feed_entry (i mod n) e) entries;
      Array.iter (fun sh -> Netsim.close_feed sh.io) shards;
      finish_shard (List.init n Fun.id)
  | Least_in_flight ->
      (* lockstep epochs: assign the next window's arrivals against
         stamp-based outstanding counts as of the barrier, then advance
         every shard to the next horizon in parallel. *)
      let n_entries = Array.length entries in
      let idx = ref 0 in
      let h = ref 0 in
      let all_done = ref false in
      while not !all_done do
        let h_next = !h + cfg.epoch in
        let est =
          Array.init n (fun s ->
              let sh = shards.(s) in
              sh.assigned
              - (Netsim.completed_by sh.io ~time:!h
                + Netsim.dropped_by sh.io ~time:!h
                + Netsim.timed_out_by sh.io ~time:!h))
        in
        while
          !idx < n_entries && entries.(!idx).Netsim.se_at <= h_next
        do
          (* least outstanding, ties to the lowest shard id *)
          let best = ref 0 in
          for s = 1 to n - 1 do
            if est.(s) < est.(!best) then best := s
          done;
          feed_entry !best entries.(!idx);
          est.(!best) <- est.(!best) + 1;
          incr idx
        done;
        if !idx >= n_entries then
          Array.iter (fun sh -> Netsim.close_feed sh.io) shards;
        let states =
          Pool.map pool
            (fun s ->
              let sh = shards.(s) in
              match sh.finished with
              | Some _ -> (s, None, true)
              | None -> (
                  match
                    Core.Runner.advance
                      ~stop:(fun () -> Netsim.done_all sh.io)
                      sh.runner ~until:h_next
                  with
                  | `Done r -> (s, Some r, true)
                  | `Paused -> (s, None, false)))
            (List.init n Fun.id)
        in
        List.iter
          (fun (s, r, _) ->
            match r with Some r -> shards.(s).finished <- Some r | None -> ())
          states;
        all_done := List.for_all (fun (_, _, d) -> d) states;
        h := h_next
      done);
  Pool.shutdown pool;
  (* ---- deterministic merge, in shard order ---- *)
  let results =
    Array.map
      (fun sh ->
        match sh.finished with Some r -> r | None -> assert false)
      shards
  in
  let metrics = Obs.Metrics.create () in
  Array.iter
    (fun (r : Core.Runner.result) ->
      Obs.Metrics.merge metrics r.Core.Runner.metrics)
    results;
  let htm = Stats.create () in
  Array.iter (fun (r : Core.Runner.result) -> Stats.merge htm r.Core.Runner.htm_stats) results;
  let stm = Stm.stats_create () in
  Array.iter (fun (r : Core.Runner.result) -> sum_stm stm r.Core.Runner.stm_stats) results;
  let total f = Array.fold_left (fun acc sh -> acc + f sh.io) 0 shards in
  let completed = total Netsim.completed in
  let dropped = total Netsim.dropped in
  let timed_out = total Netsim.timed_out in
  let last =
    Array.fold_left (fun acc sh -> max acc (Netsim.last_completion sh.io)) 0 shards
  in
  let aggregate_rps =
    if completed = 0 then 0.0
    else float_of_int completed /. (float_of_int (max 1 last) /. 1e9)
  in
  let lat = Obs.Metrics.histogram metrics "req.latency_cycles" in
  (* completion-weighted mean, folded in fixed shard order *)
  let lat_sum =
    Array.fold_left
      (fun acc sh ->
        acc
        +. (Netsim.mean_latency sh.io *. float_of_int (Netsim.completed sh.io)))
      0.0 shards
  in
  let mean_cycles =
    if completed = 0 then 0.0 else lat_sum /. float_of_int completed
  in
  let counter name = (Obs.Metrics.counter metrics name).Obs.Metrics.count in
  let per_shard =
    Array.to_list
      (Array.mapi
         (fun i sh ->
           let r = results.(i) in
           {
             sh_assigned = sh.assigned;
             sh_completed = Netsim.completed sh.io;
             sh_dropped = Netsim.dropped sh.io;
             sh_timed_out = Netsim.timed_out sh.io;
             sh_wall_cycles = r.Core.Runner.wall_cycles;
             sh_htm_commits = r.Core.Runner.htm_stats.Stats.commits;
             sh_htm_aborts = Stats.aborts r.Core.Runner.htm_stats;
             sh_fb_gil =
               (Obs.Metrics.counter r.Core.Runner.metrics "fallback.gil")
                 .Obs.Metrics.count;
             sh_fb_stm =
               (Obs.Metrics.counter r.Core.Runner.metrics "fallback.stm")
                 .Obs.Metrics.count;
           })
         shards)
  in
  let session =
    if cfg.shared_session then
      Some
        (replay_session cfg.machine ~epoch:cfg.epoch
           (Array.map (fun sh -> Netsim.completion_log sh.io) shards))
    else None
  in
  let wall =
    Array.fold_left
      (fun acc (r : Core.Runner.result) -> max acc r.Core.Runner.wall_cycles)
      0 results
  in
  (* the outcome keeps no reference into the simulated stores *)
  Array.iter (fun sh -> Rvm.Vm.release sh.runner.Core.Runner.vm) shards;
  {
    r_shards = n;
    r_policy = cfg.policy;
    r_issued = total Netsim.issued;
    r_completed = completed;
    r_dropped = dropped;
    r_timed_out = timed_out;
    r_churned = churned;
    r_p50_cycles = Obs.Metrics.quantile lat 0.50;
    r_p95_cycles = Obs.Metrics.quantile lat 0.95;
    r_p99_cycles = Obs.Metrics.quantile lat 0.99;
    r_mean_cycles = mean_cycles;
    r_aggregate_rps = aggregate_rps;
    r_wall_cycles = wall;
    r_htm = htm;
    r_stm = stm;
    r_fb_gil = counter "fallback.gil";
    r_fb_stm = counter "fallback.stm";
    r_metrics = metrics;
    r_per_shard = per_shard;
    r_session = session;
  }
