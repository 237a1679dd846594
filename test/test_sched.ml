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

let assert_same_run name (a : Core.Runner.result) (b : Core.Runner.result) =
  Alcotest.(check int) (name ^ ": wall_cycles") a.wall_cycles b.wall_cycles;
  Alcotest.(check int) (name ^ ": total_insns") a.total_insns b.total_insns;
  Alcotest.(check string) (name ^ ": output") a.output b.output;
  Alcotest.(check int)
    (name ^ ": gil acquisitions")
    a.gil_acquisitions b.gil_acquisitions;
  Alcotest.(check int)
    (name ^ ": txn begins")
    a.htm_stats.Htm_sim.Stats.begins b.htm_stats.Htm_sim.Stats.begins;
  Alcotest.(check int)
    (name ^ ": txn commits")
    a.htm_stats.Htm_sim.Stats.commits b.htm_stats.Htm_sim.Stats.commits;
  Alcotest.(check int)
    (name ^ ": requests completed")
    a.requests_completed b.requests_completed

let run_compute ~sched ~scheme (w : Workloads.Workload.t) ~threads =
  let source = w.Workloads.Workload.source ~threads ~size:Workloads.Size.Test in
  let cfg = Core.Runner.config ~scheme ~sched Htm_sim.Machine.zec12 in
  Core.Runner.run_source ~setup:(w.Workloads.Workload.setup None) cfg ~source

let test_diff_compute () =
  let workloads =
    Workloads.Workload.micro
    @ List.filter
        (fun (w : Workloads.Workload.t) -> w.name = "cg" || w.name = "is")
        Workloads.Workload.npb
  in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      List.iter
        (fun scheme ->
          List.iter
            (fun threads ->
              let name =
                Printf.sprintf "%s/%s/%dT" w.name
                  (Core.Scheme.to_string scheme)
                  threads
              in
              let heap =
                run_compute ~sched:Core.Runner.Sched_heap ~scheme w ~threads
              and ref_ =
                run_compute ~sched:Core.Runner.Sched_ref ~scheme w ~threads
              in
              assert_same_run name heap ref_)
            [ 1; 2; 4 ])
        [ Core.Scheme.Gil_only; Core.Scheme.Htm_dynamic ])
    workloads

(* The server path exercises netsim delivery, sleepers and acceptors; the
   scheduler is selected through the BENCH_SCHED environment default, which
   also covers the smoke script's plumbing. *)
let test_diff_server () =
  let w = Option.get (Workloads.Workload.find "webrick") in
  let run kind =
    Tutil.with_env "BENCH_SCHED"
      (match kind with `Heap -> "heap" | `Ref -> "ref")
      (fun () ->
        let o =
          Harness.Exp.run
            (Harness.Exp.point ~workload:w ~machine:Htm_sim.Machine.xeon_e3
               ~scheme:Core.Scheme.Htm_dynamic ~threads:3
               ~size:Workloads.Size.Test ())
        in
        o.Harness.Exp.result)
  in
  let heap = run `Heap and ref_ = run `Ref in
  Alcotest.(check bool) "served requests" true (heap.requests_completed > 0);
  assert_same_run "webrick/htm-dynamic/3c" heap ref_

(* BENCH_SCHED names one of the two schedulers or is unset; anything else
   must fail rather than quietly select the default. *)
let test_env_parse () =
  let kind v = Tutil.with_env "BENCH_SCHED" v Core.Runner.default_sched_kind in
  List.iter
    (fun (v, expect) ->
      Alcotest.(check bool) (Printf.sprintf "BENCH_SCHED=%S" v) true
        (kind v = expect))
    [
      ("", Core.Runner.Sched_heap);
      (" ", Core.Runner.Sched_heap);
      ("heap", Core.Runner.Sched_heap);
      ("HEAP", Core.Runner.Sched_heap);
      ("ref", Core.Runner.Sched_ref);
      ("REF", Core.Runner.Sched_ref);
      ("scan", Core.Runner.Sched_ref);
    ];
  List.iter
    (fun v ->
      match kind v with
      | _ -> Alcotest.failf "BENCH_SCHED=%S accepted" v
      | exception Invalid_argument _ -> ())
    [ "rf"; "heap-ref"; "linear" ]

let suite =
  [
    Alcotest.test_case "pop order" `Quick test_pop_order;
    Alcotest.test_case "re-key" `Quick test_rekey;
    Alcotest.test_case "mem + remove" `Quick test_mem_remove;
    test_randomized_vs_model;
    Alcotest.test_case "heap = ref scan (compute)" `Quick test_diff_compute;
    Alcotest.test_case "heap = ref scan (server)" `Quick test_diff_server;
    Alcotest.test_case "BENCH_SCHED rejects unknown values" `Quick
      test_env_parse;
  ]
