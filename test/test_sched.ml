(* The event-driven scheduler: unit tests of the indexed min-heap, and
   differential runs pinning the heap + run-ahead scheduler to the
   reference linear scan — same interleaving, same figures. *)

module Sched = Core.Sched
module V = Rvm.Vmthread

let dummy_code = lazy (Rvm.Compiler.compile_string "nil").Rvm.Value.main

let mk_thread tid =
  V.create ~tid ~stack_base:0 ~stack_limit:64 ~struct_base:0 ~obj:0
    ~code:(Lazy.force dummy_code)

let drain t =
  let rec go acc =
    match Sched.pop_min t with
    | Some th -> go (th.V.tid :: acc)
    | None -> acc
  in
  List.rev (go [])

(* The root is [(key, tid)]: [min_key] names the key, and with ties broken
   toward the higher tid the root sorts before [(key, tid - 1)] but not
   before [(key, tid)] exactly when its tid is [tid]. *)
let root_is t (key, tid) =
  Sched.min_key t = key
  && (not (Sched.preempts t ~key ~tid))
  && Sched.preempts t ~key ~tid:(tid - 1)

let test_pop_order () =
  let t = Sched.create ~dummy:(mk_thread 0) in
  Alcotest.(check bool) "fresh heap empty" true (Sched.is_empty t);
  Alcotest.(check bool) "empty root is the sentinel" true
    (root_is t (max_int, max_int));
  (* out-of-order keys, including a (clock, tid) tie at 5 *)
  List.iter
    (fun (k, tid) -> Sched.push t ~key:k (mk_thread tid))
    [ (5, 3); (1, 2); (5, 1); (0, 4); (3, 0) ];
  Alcotest.(check int) "size" 5 (Sched.size t);
  Alcotest.(check bool) "root" true (root_is t (0, 4));
  (* equal keys break toward the HIGHER tid, like the reference scan *)
  Alcotest.(check (list int)) "(key, tid desc) order" [ 4; 2; 0; 3; 1 ] (drain t);
  Alcotest.(check bool) "drained empty" true (Sched.is_empty t);
  Alcotest.check_raises "take_min on empty"
    (Invalid_argument "index out of bounds") (fun () ->
      ignore (Sched.take_min t))

let test_rekey () =
  let t = Sched.create ~dummy:(mk_thread 0) in
  let a = mk_thread 1 and b = mk_thread 2 and c = mk_thread 3 in
  Sched.push t ~key:10 a;
  Sched.push t ~key:20 b;
  Sched.push t ~key:30 c;
  (* re-push = re-key, both directions, without growing the heap *)
  Sched.push t ~key:5 b;
  Sched.push t ~key:40 a;
  Alcotest.(check int) "size unchanged" 3 (Sched.size t);
  Alcotest.(check (list int)) "re-keyed order" [ 2; 3; 1 ] (drain t)

let test_mem_remove () =
  let t = Sched.create ~dummy:(mk_thread 0) in
  List.iter (fun tid -> Sched.push t ~key:tid (mk_thread tid)) [ 1; 2; 3; 4; 5 ];
  Alcotest.(check bool) "mem present" true (Sched.mem t 3);
  Alcotest.(check bool) "mem absent" false (Sched.mem t 9);
  Sched.remove t 3;
  Sched.remove t 1;
  Sched.remove t 42 (* no-op *);
  Alcotest.(check bool) "removed" false (Sched.mem t 3);
  Alcotest.(check int) "size after removes" 3 (Sched.size t);
  Alcotest.(check (list int)) "order after removes" [ 2; 4; 5 ] (drain t);
  Sched.push t ~key:7 (mk_thread 1);
  Alcotest.(check (list int)) "reusable after drain" [ 1 ] (drain t)

(* Random push/re-key/remove/take-min traffic against a sorted-list
   model. The narrow key range makes equal keys (the descending-tid
   tie-break) common, and tids run past the 64 slots the position and
   thread tables start with. After every operation the heap's root must
   match the model's minimum (the (max_int, max_int) sentinel when empty). *)
let test_randomized_vs_model =
  let gen = QCheck.(list (pair (int_bound 50) (int_bound 99))) in
  Tutil.qtest "heap agrees with sorted model" ~count:200 gen (fun ops ->
      let t = Sched.create ~dummy:(mk_thread 0) in
      let threads = Array.init 100 mk_thread in
      let model = Hashtbl.create 16 in
      let model_order () =
        Hashtbl.fold (fun tid key acc -> (key, tid) :: acc) model []
        |> List.sort (fun (k1, t1) (k2, t2) ->
               if k1 <> k2 then compare k1 k2 else compare t2 t1)
      in
      let ok = ref true in
      List.iteri
        (fun i (key, tid) ->
          (match i mod 5 with
          | 4 ->
              Sched.remove t tid;
              Hashtbl.remove model tid
          | 2 -> (
              match model_order () with
              | [] -> ()
              | (_, expect) :: _ ->
                  Hashtbl.remove model expect;
                  if (Sched.take_min t).V.tid <> expect then ok := false)
          | _ ->
              Sched.push t ~key threads.(tid);
              Hashtbl.replace model tid key);
          let root =
            match model_order () with [] -> (max_int, max_int) | r :: _ -> r
          in
          if not (root_is t root) then ok := false)
        ops;
      let expect = List.map snd (model_order ()) in
      !ok && Sched.size t = List.length expect && drain t = expect)

(* ---- differential: heap + run-ahead vs the reference linear scan ---- *)

(* What a run must agree on under both schedulers: its simulated totals and
   output, or the exception it ended in. *)
let fingerprint run =
  match run () with
  | (r : Core.Runner.result) ->
      let b = r.breakdown and h = r.htm_stats and s = r.stm_stats in
      Printf.sprintf
        "wall=%d insns=%d gil=%d htm=%d/%d/%d stm=%d/%d gc=%d allocs=%d \
         req=%d bd=%d/%d/%d/%d/%d/%d\n%s"
        r.wall_cycles r.total_insns r.gil_acquisitions h.Htm_sim.Stats.begins
        h.Htm_sim.Stats.commits (Htm_sim.Stats.aborts h) s.Stm.commits
        (Stm.stats_aborts s) r.gc_runs r.allocs r.requests_completed
        b.bd_txn_overhead b.bd_committed b.bd_aborted b.bd_gil_held
        b.bd_gil_wait b.bd_other r.output
  | exception Core.Runner.Stuck msg -> "Stuck: " ^ msg
  | exception Core.Runner.Guest_failure msg -> "Guest_failure: " ^ msg

let check_same name run =
  let heap = fingerprint (run Core.Runner.Sched_heap)
  and ref_ = fingerprint (run Core.Runner.Sched_ref) in
  Alcotest.(check string) name ref_ heap

let workload name = Option.get (Workloads.Workload.find name)
let size = Workloads.Size.Test

let run_compute ?(machine = Htm_sim.Machine.zec12) ?opts ?clock ~scheme name
    ~threads sched () =
  let w = workload name in
  let cfg = Core.Runner.config ?opts ?clock ~scheme ~sched machine in
  Core.Runner.run_source ~setup:(w.setup None) cfg
    ~source:(w.source ~threads ~size)

let test_diff_compute () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      List.iter
        (fun scheme ->
          List.iter
            (fun threads ->
              check_same
                (Printf.sprintf "%s/%s/%dT" w.name
                   (Core.Scheme.to_string scheme)
                   threads)
                (run_compute ~scheme w.name ~threads))
            [ 1; 2; 4 ])
        [ Core.Scheme.Gil_only; Core.Scheme.Htm_dynamic ])
    (Workloads.Workload.micro
    @ List.filter
        (fun (w : Workloads.Workload.t) -> w.name = "cg" || w.name = "is")
        Workloads.Workload.npb)

(* A server run, closed loop unless [arrivals] says otherwise. *)
let run_server ?(machine = Htm_sim.Machine.zec12) ?opts ?clock ?subscription
    ?(arrivals = Netsim.Closed) ~scheme name ~clients sched () =
  let w = workload name in
  let requests = w.server_requests size in
  let io =
    match arrivals with
    | Netsim.Closed -> Option.get w.make_io ~clients ~requests
    | _ -> Option.get w.make_io_open ~clients ~requests ~arrivals ~mix:[]
  in
  let cfg =
    Core.Runner.config ?opts ?clock ?subscription ~scheme ~sched machine
  in
  let t = Core.Runner.create ~io cfg ~source:(w.source ~threads:clients ~size) in
  w.setup (Some io) t.vm;
  Core.Runner.run ~stop:(fun () -> Netsim.done_all io) t

(* The [Shard.run] runner path: a fed socket that holds the whole schedule
   and a closed feed before the run starts. *)
let run_fed sched () =
  let w = Workloads.Workload.webrick and clients = 4 in
  let entries, _ =
    Option.get w.make_schedule ~clients ~requests:(w.server_requests size)
      ~arrivals:(Netsim.Poisson { rate = 400_000.0; seed = 0x10AD })
      ~mix:[]
  in
  let io = Option.get w.make_io_fed () in
  let cfg =
    Core.Runner.config ~scheme:Core.Scheme.Htm_dynamic ~sched
      Htm_sim.Machine.zec12
  in
  let t = Core.Runner.create ~io cfg ~source:(w.source ~threads:clients ~size) in
  w.setup (Some io) t.vm;
  Array.iter
    (fun (e : Netsim.sched_entry) ->
      Netsim.feed io ~at:e.se_at ~client:e.se_client ~request:e.se_request)
    entries;
  Netsim.close_feed io;
  Core.Runner.run ~stop:(fun () -> Netsim.done_all io) t

(* One cell per runner path the reference scheduler must agree on: every
   scheme, machine, clock and subscription variant, the netsim delivery
   modes (closed loop, open loop, fed), and a run that ends in a guest
   failure. *)
let test_diff_cells () =
  let hybrid = Harness.Figures.hybrid_machine
  and gc_heavy = { Rvm.Options.default with Rvm.Options.heap_slots = 6_000 }
  and poisson rate = Netsim.Poisson { rate; seed = 0x10AD } in
  let open Core.Scheme in
  List.iter
    (fun (name, run) -> check_same name run)
    [
      ( "bt/xeon_e3/htm-dynamic/8T",
        run_compute ~machine:Htm_sim.Machine.xeon_e3 ~scheme:Htm_dynamic "bt"
          ~threads:8 );
      ( "ft/x5670/fine-grained/4T",
        run_compute ~machine:Htm_sim.Machine.xeon_x5670 ~scheme:Fine_grained
          "ft" ~threads:4 );
      ("mg/free-parallel/4T", run_compute ~scheme:Free_parallel "mg" ~threads:4);
      ( "cg/htm-1/4T/cruby-baseline",
        run_compute ~opts:Rvm.Options.cruby_baseline ~scheme:(Htm_fixed 1)
          "cg" ~threads:4 );
      ("lu/htm-16/12T", run_compute ~scheme:(Htm_fixed 16) "lu" ~threads:12);
      ( "sp/hybrid/12T",
        run_compute ~machine:hybrid ~scheme:Hybrid "sp" ~threads:12 );
      ( "is/stm/4T",
        run_compute ~machine:hybrid ~scheme:Stm_only "is" ~threads:4 );
      ( "is/hybrid/4T/gv5",
        run_compute ~machine:hybrid ~clock:Tm_clock.Gv5 ~scheme:Hybrid "is"
          ~threads:4 );
      ( "webrick/hybrid/4c/gv6",
        run_server ~machine:hybrid ~clock:Tm_clock.Gv6 ~scheme:Hybrid "webrick"
          ~clients:4 );
      ( "webrick/hybrid/4c/lazy (guest failure)",
        run_server ~machine:hybrid ~opts:gc_heavy
          ~subscription:Htm_sim.Subscription.Lazy ~scheme:Hybrid "webrick"
          ~clients:4 );
      ( "webrick/hybrid/4c/lazy-safe",
        run_server ~machine:hybrid ~opts:gc_heavy
          ~subscription:Htm_sim.Subscription.Lazy_safe ~scheme:Hybrid
          "webrick" ~clients:4 );
      ( "webrick/gil/6c/poisson-9k",
        run_server ~arrivals:(poisson 9000.0) ~scheme:Gil_only "webrick"
          ~clients:6 );
      ( "rails/xeon_e3/htm-dynamic/4c",
        run_server ~machine:Htm_sim.Machine.xeon_e3 ~scheme:Htm_dynamic
          "rails" ~clients:4 );
      ("webrick/fed/400k", run_fed);
    ]

let suite =
  [
    Alcotest.test_case "pop order" `Quick test_pop_order;
    Alcotest.test_case "re-key" `Quick test_rekey;
    Alcotest.test_case "mem + remove" `Quick test_mem_remove;
    test_randomized_vs_model;
    Alcotest.test_case "heap = ref scan (compute)" `Quick test_diff_compute;
    Alcotest.test_case "heap = ref scan (cell set)" `Quick test_diff_cells;
  ]
