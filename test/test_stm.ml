(* The software-transaction fallback: TL2-style engine unit tests, a
   differential serializability fuzz against a single-global-lock reference
   executor (the shadow store applies each committed transaction atomically),
   guest-level equivalence of the hybrid/stm schemes, and the performance
   property the subsystem exists for: under capacity pressure, retrying as a
   software transaction beats falling back to the GIL. *)

open Htm_sim

let machine = { Machine.zec12 with name = "stm-test"; n_cores = 4; smt = 1 }

let mk () =
  let store = Store.create ~dummy:0 ~line_cells:machine.line_cells 256 in
  let htm = Htm.create machine store in
  for ctx = 0 to 3 do
    Htm.set_occupied htm ctx true
  done;
  let stm = Stm.create ~mk_clock:(fun n -> n) htm in
  let region = Store.reserve_aligned store (8 * machine.line_cells) in
  (store, htm, stm, region)

(* --- engine unit tests ------------------------------------------------- *)

let test_redo_isolation () =
  let store, htm, stm, a = mk () in
  Store.set store a 7;
  Stm.begin_ stm ~ctx:0 ~rollback:(fun _ -> ());
  Htm.write htm ~ctx:0 a 42;
  Alcotest.(check int) "read own redo entry" 42 (Htm.read htm ~ctx:0 a);
  Alcotest.(check int) "store untouched before commit" 7 (Store.get store a);
  Alcotest.(check int) "header peek sees the redo log" 42 (Htm.peek htm a);
  Alcotest.(check int) "validation clean" (-1) (Stm.validate stm ~ctx:0);
  Stm.commit stm ~ctx:0;
  Alcotest.(check int) "published at commit" 42 (Store.get store a);
  Alcotest.(check bool) "transaction closed" false (Stm.in_txn stm 0)

let test_per_read_validation_abort () =
  let _, htm, stm, a = mk () in
  let rolled_back = ref false in
  Stm.begin_ stm ~ctx:0 ~rollback:(fun _ -> rolled_back := true);
  ignore (Htm.read htm ~ctx:0 a);
  (* a committed write from another context invalidates the snapshot *)
  Htm.write htm ~ctx:1 a 9;
  (match Htm.read htm ~ctx:0 (a + 1) with
  | _ -> Alcotest.fail "read after conflicting commit must abort"
  | exception Htm.Abort_now Txn.Validation -> ());
  Alcotest.(check bool) "rollback closure ran" true !rolled_back;
  Alcotest.(check bool) "pending abort recorded" true
    (Stm.pending_abort stm 0 = Some Txn.Validation);
  Stm.clear_pending_abort stm 0

let test_commit_time_validation () =
  let _, htm, stm, a = mk () in
  Stm.begin_ stm ~ctx:0 ~rollback:(fun _ -> ());
  ignore (Htm.read htm ~ctx:0 a);
  Htm.write htm ~ctx:1 a 9;
  let line = Stm.validate stm ~ctx:0 in
  Alcotest.(check bool) "validate names the stale line" true (line >= 0);
  Stm.abort stm ~ctx:0 ~line Txn.Validation;
  Stm.clear_pending_abort stm 0;
  Alcotest.(check bool) "aborted" false (Stm.in_txn stm 0)

let test_sw_read_aborts_hw_writer () =
  let _, htm, stm, a = mk () in
  Store.set (Htm.store htm) a 7;
  Htm.tbegin htm ~ctx:1 ~rollback:(fun _ -> ());
  Htm.write htm ~ctx:1 a 99;
  Stm.begin_ stm ~ctx:0 ~rollback:(fun _ -> ());
  (* requester wins: the software read kills the speculative writer and
     sees the committed value *)
  Alcotest.(check int) "reads committed value" 7 (Htm.read htm ~ctx:0 a);
  Alcotest.(check bool) "hardware writer aborted" false (Htm.in_txn htm 1);
  Alcotest.(check bool) "writer saw a conflict" true
    (Htm.pending_abort htm 1 = Some Txn.Conflict);
  Htm.clear_pending_abort htm 1;
  Stm.abort stm ~ctx:0 Txn.Explicit;
  Stm.clear_pending_abort stm 0

let test_sw_commit_aborts_hw_reader () =
  let _, htm, stm, a = mk () in
  Htm.tbegin htm ~ctx:1 ~rollback:(fun _ -> ());
  ignore (Htm.read htm ~ctx:1 a);
  Stm.begin_ stm ~ctx:0 ~rollback:(fun _ -> ());
  Htm.write htm ~ctx:0 a 5;
  Alcotest.(check int) "validation clean" (-1) (Stm.validate stm ~ctx:0);
  Stm.commit stm ~ctx:0;
  Alcotest.(check bool) "hardware reader aborted by publish" false
    (Htm.in_txn htm 1);
  Htm.clear_pending_abort htm 1

let test_hw_commit_fails_sw_validation () =
  let _, htm, stm, a = mk () in
  Stm.begin_ stm ~ctx:0 ~rollback:(fun _ -> ());
  ignore (Htm.read htm ~ctx:0 a);
  Htm.tbegin htm ~ctx:1 ~rollback:(fun _ -> ());
  Htm.write htm ~ctx:1 a 3;
  Htm.tend htm ~ctx:1;
  (* the hardware commit stamped the line, so the snapshot is stale *)
  Alcotest.(check bool) "hardware commit detected" true
    (Stm.validate stm ~ctx:0 >= 0);
  Stm.abort stm ~ctx:0 Txn.Validation;
  Stm.clear_pending_abort stm 0

let test_commit_bumps_clock () =
  let _, htm, stm, a = mk () in
  let before = Htm.commit_clock htm in
  Stm.begin_ stm ~ctx:0 ~rollback:(fun _ -> ());
  Htm.write htm ~ctx:0 a 1;
  assert (Stm.validate stm ~ctx:0 < 0);
  Stm.commit stm ~ctx:0;
  Alcotest.(check bool) "commit clock advanced" true
    (Htm.commit_clock htm > before);
  let ro_before = (Stm.stats stm).Stm.read_only_commits in
  Stm.begin_ stm ~ctx:0 ~rollback:(fun _ -> ());
  ignore (Htm.read htm ~ctx:0 a);
  assert (Stm.validate stm ~ctx:0 < 0);
  Stm.commit stm ~ctx:0;
  Alcotest.(check int) "read-only commit counted" (ro_before + 1)
    (Stm.stats stm).Stm.read_only_commits

let test_budget () =
  let b = Stm.Budget.create () in
  Alcotest.(check int) "initial allowance" 8
    (Stm.Budget.allowed b ~uid:3 ~pc:14);
  Stm.Budget.punish b ~uid:3 ~pc:14;
  Stm.Budget.punish b ~uid:3 ~pc:14;
  Alcotest.(check int) "halved twice" 2 (Stm.Budget.allowed b ~uid:3 ~pc:14);
  for _ = 1 to 4 do
    Stm.Budget.punish b ~uid:3 ~pc:14
  done;
  Alcotest.(check int) "floored at the minimum" 1
    (Stm.Budget.allowed b ~uid:3 ~pc:14);
  for _ = 1 to 20 do
    Stm.Budget.reward b ~uid:3 ~pc:14
  done;
  Alcotest.(check bool) "recovers, capped at the initial" true
    (Stm.Budget.allowed b ~uid:3 ~pc:14 <= 8
    && Stm.Budget.allowed b ~uid:3 ~pc:14 > 1);
  Alcotest.(check int) "other sites unaffected" 8
    (Stm.Budget.allowed b ~uid:0 ~pc:0)

(* --- scheme name round-trips (satellite 1) ----------------------------- *)

let test_scheme_round_trip () =
  let kinds =
    [
      Core.Scheme.Gil_only;
      Core.Scheme.Htm_fixed 1;
      Core.Scheme.Htm_fixed 16;
      Core.Scheme.Htm_fixed 256;
      Core.Scheme.Htm_dynamic;
      Core.Scheme.Hybrid;
      Core.Scheme.Stm_only;
      Core.Scheme.Fine_grained;
      Core.Scheme.Free_parallel;
    ]
  in
  List.iter
    (fun k ->
      let s = Core.Scheme.to_string k in
      Alcotest.(check bool)
        (Printf.sprintf "%s round-trips" s)
        true
        (Core.Scheme.of_string s = k))
    kinds;
  match Core.Scheme.of_string "bogus" with
  | _ -> Alcotest.fail "bogus scheme name accepted"
  | exception Invalid_argument msg ->
      let contains needle =
        let nl = String.length needle and ml = String.length msg in
        let rec go i = i + nl <= ml && (String.sub msg i nl = needle || go (i + 1)) in
        go 0
      in
      List.iter
        (fun name ->
          Alcotest.(check bool)
            (Printf.sprintf "error message lists %s" name)
            true (contains name))
        [ "gil"; "htm-N"; "htm-dynamic"; "hybrid"; "stm"; "fine-grained";
          "free-parallel" ]

(* --- differential serializability fuzz (satellite 3) -------------------

   Random hardware and software transactions, plus plain committed accesses,
   interleaved one access at a time across four contexts over a small shared
   region. The oracle is a single-global-lock reference executor: a shadow
   array to which each transaction's writes are applied atomically at its
   commit. Serializability of the mix means every successful read returns
   either the reader's own uncommitted write or the reference store's
   current value, and the store equals the reference whenever nothing is
   speculative. *)

type fuzz_ctx = {
  mutable mode : [ `Idle | `Hw | `Sw ];
  pend : (int, int) Hashtbl.t;  (* uncommitted writes, addr -> value *)
}

let test_fuzz_serializable () =
  let n_ctx = 4 in
  let run seed steps =
    let rng = Random.State.make [| seed |] in
    let store = Store.create ~dummy:0 ~line_cells:machine.line_cells 256 in
    let htm = Htm.create machine store in
    for ctx = 0 to n_ctx - 1 do
      Htm.set_occupied htm ctx true
    done;
    let stm = Stm.create ~mk_clock:(fun n -> n) htm in
    let lines = 8 in
    let region = Store.reserve_aligned store (lines * machine.line_cells) in
    let cells = lines * machine.line_cells in
    let shadow = Array.make cells 0 in
    let ctxs =
      Array.init n_ctx (fun _ -> { mode = `Idle; pend = Hashtbl.create 32 })
    in
    let reset c =
      c.mode <- `Idle;
      Hashtbl.reset c.pend
    in
    (* requester-wins kills and capacity aborts land synchronously inside
       another context's access; fold them into the oracle afterwards *)
    let sync () =
      Array.iteri
        (fun i c ->
          let live =
            match c.mode with
            | `Idle -> true
            | `Hw -> Htm.in_txn htm i
            | `Sw -> Stm.in_txn stm i
          in
          if not live then begin
            reset c;
            Htm.clear_pending_abort htm i;
            Stm.clear_pending_abort stm i
          end)
        ctxs
    in
    let expected c addr =
      match Hashtbl.find_opt c.pend addr with
      | Some v -> v
      | None -> shadow.(addr - region)
    in
    let check_store_matches step =
      if Htm.active_count htm = 0 then
        for i = 0 to cells - 1 do
          if Store.get store (region + i) <> shadow.(i) then
            Alcotest.fail
              (Printf.sprintf
                 "seed %d step %d: store[%d] = %d, reference executor has %d"
                 seed step i
                 (Store.get store (region + i))
                 shadow.(i))
        done
    in
    for step = 1 to steps do
      let ctx = Random.State.int rng n_ctx in
      let c = ctxs.(ctx) in
      let addr = region + Random.State.int rng cells in
      let v = Random.State.int rng 1000 in
      (match c.mode with
      | `Idle -> (
          match Random.State.int rng 10 with
          | 0 | 1 ->
              Htm.tbegin htm ~ctx ~rollback:(fun _ -> ());
              c.mode <- `Hw
          | 2 | 3 ->
              Stm.begin_ stm ~ctx ~rollback:(fun _ -> ());
              c.mode <- `Sw
          | 4 | 5 | 6 ->
              (* plain committed access: visible to the reference at once *)
              Htm.write htm ~ctx addr v;
              shadow.(addr - region) <- v
          | _ ->
              let got = Htm.read htm ~ctx addr in
              if got <> shadow.(addr - region) then
                Alcotest.fail
                  (Printf.sprintf
                     "seed %d step %d: committed read %d, reference %d" seed
                     step got
                     shadow.(addr - region)))
      | `Hw | `Sw -> (
          match Random.State.int rng 10 with
          | 0 | 1 | 2 | 3 -> (
              match Htm.read htm ~ctx addr with
              | got ->
                  let want = expected c addr in
                  if got <> want then
                    Alcotest.fail
                      (Printf.sprintf
                         "seed %d step %d ctx %d: transactional read %d, \
                          serial order requires %d"
                         seed step ctx got want)
              | exception Htm.Abort_now _ -> reset c)
          | 4 | 5 | 6 -> (
              match Htm.write htm ~ctx addr v with
              | () -> Hashtbl.replace c.pend addr v
              | exception Htm.Abort_now _ -> reset c)
          | 7 | 8 -> (
              (* try to commit *)
              match c.mode with
              | `Hw -> (
                  match Htm.tend htm ~ctx with
                  | () ->
                      Hashtbl.iter
                        (fun a v -> shadow.(a - region) <- v)
                        c.pend;
                      reset c
                  | exception Htm.Abort_now _ -> reset c)
              | `Sw ->
                  let line = Stm.validate stm ~ctx in
                  if line < 0 then begin
                    Stm.commit stm ~ctx;
                    Hashtbl.iter
                      (fun a v -> shadow.(a - region) <- v)
                      c.pend
                  end
                  else Stm.abort stm ~ctx ~line Txn.Validation;
                  reset c
              | `Idle -> assert false)
          | _ ->
              (match c.mode with
              | `Hw -> (
                  try Htm.tabort htm ~ctx Txn.Explicit
                  with Htm.Abort_now _ -> ())
              | `Sw -> Stm.abort stm ~ctx Txn.Explicit
              | `Idle -> assert false);
              reset c));
      Htm.clear_pending_abort htm ctx;
      Stm.clear_pending_abort stm ctx;
      sync ();
      if step mod 64 = 0 then check_store_matches step
    done;
    (* drain and do the final reference comparison *)
    for ctx = 0 to n_ctx - 1 do
      (match ctxs.(ctx).mode with
      | `Hw when Htm.in_txn htm ctx -> (
          try Htm.tabort htm ~ctx Txn.Explicit with Htm.Abort_now _ -> ())
      | `Sw when Stm.in_txn stm ctx -> Stm.abort stm ~ctx Txn.Explicit
      | _ -> ());
      Htm.clear_pending_abort htm ctx;
      Stm.clear_pending_abort stm ctx
    done;
    check_store_matches steps;
    let s = Stm.stats stm in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d exercised software commits" seed)
      true (s.Stm.commits > 0)
  in
  List.iter (fun seed -> run seed 10_000) [ 7; 21; 42 ]

(* --- guest-level differential checks ----------------------------------- *)

let fallback_schemes = [ Core.Scheme.Stm_only; Core.Scheme.Hybrid ]

let equivalence_for ?opts name threads =
  let w =
    match Workloads.Workload.find name with
    | Some w -> w
    | None -> Alcotest.fail ("no workload " ^ name)
  in
  let source = w.source ~threads ~size:Workloads.Size.Test in
  let reference = Tutil.output ?opts ~scheme:Core.Scheme.Gil_only source in
  Alcotest.(check bool) "reference non-empty" true (String.length reference > 0);
  List.iter
    (fun scheme ->
      let out = Tutil.output ?opts ~scheme source in
      Alcotest.(check string)
        (Printf.sprintf "%s under %s" name (Core.Scheme.to_string scheme))
        reference out)
    fallback_schemes

let test_equiv_cg () = equivalence_for "cg" 6
let test_equiv_is () = equivalence_for "is" 4
let test_equiv_mg () = equivalence_for "mg" 4

let test_equiv_under_gc_pressure () =
  (* a small heap forces collections mid-run, exercising the
     GIL-acquisition path that must kill every live software transaction
     before the collector mutates the store around the engine *)
  let opts = { Rvm.Options.default with Rvm.Options.heap_slots = 6_000 } in
  let w = Option.get (Workloads.Workload.find "webrick") in
  let run scheme =
    let o =
      Harness.Exp.run
        (Harness.Exp.point ~opts ~workload:w ~machine:Machine.zec12 ~scheme
           ~threads:4 ~size:Workloads.Size.Test ())
    in
    Alcotest.(check bool)
      ("gc ran under " ^ Core.Scheme.to_string scheme)
      true
      (o.Harness.Exp.result.Core.Runner.gc_runs > 0);
    ( o.Harness.Exp.result.Core.Runner.requests_completed,
      o.Harness.Exp.result.Core.Runner.output )
  in
  let ((ref_requests, _) as reference) = run Core.Scheme.Gil_only in
  Alcotest.(check bool) "reference served requests" true (ref_requests > 0);
  List.iter
    (fun scheme ->
      Alcotest.(check bool)
        ("webrick under " ^ Core.Scheme.to_string scheme)
        true
        (run scheme = reference))
    fallback_schemes

let test_equiv_capacity_pressure () =
  (* the quarter-store-buffer machine drives everything through the
     fallback path, on both fallback strategies *)
  let w = Option.get (Workloads.Workload.find "mg") in
  let source = w.source ~threads:4 ~size:Workloads.Size.Test in
  let machine = Harness.Figures.hybrid_machine in
  let reference = Tutil.output ~machine ~scheme:Core.Scheme.Gil_only source in
  List.iter
    (fun scheme ->
      Alcotest.(check string)
        (Core.Scheme.to_string scheme ^ " on the capacity-starved machine")
        reference
        (Tutil.output ~machine ~scheme source))
    fallback_schemes

let test_finish_inside_failing_window () =
  (* a thread whose FINAL software window fails validation: the interpreter
     marks it finished before the commit attempt, and the runner must
     revive it to re-run the window (regression: it used to die holding
     its context, deadlocking the joiner). Racy counter increments under
     the CRuby-baseline options make that last-commit failure deterministic
     on the simulator's fixed interleaving. *)
  let source =
    {|counter = [0]
sums = Array.new(4, 0.0)
ths = []
t = 0
while t < 4
  ths << Thread.new(t) do |tid|
    x = 0.0
    i = 0
    while i < 400
      counter[0] += 1
      x += 1.5
      i += 1
    end
    sums[tid] = x
  end
  t += 1
end
ths.each { |th| th.join }
puts sums[0] + sums[1] + sums[2] + sums[3]|}
  in
  List.iter
    (fun scheme ->
      let r =
        Tutil.run_source ~scheme ~opts:Rvm.Options.cruby_baseline source
      in
      Alcotest.(check string)
        ("completes under " ^ Core.Scheme.to_string scheme)
        "2400.0\n" r.Core.Runner.output)
    fallback_schemes

(* --- the property the subsystem exists for ----------------------------- *)

let test_stm_fallback_beats_gil_fallback () =
  let machine = Harness.Figures.hybrid_machine in
  let w = Option.get (Workloads.Workload.find "mg") in
  let source = w.source ~threads:4 ~size:Workloads.Size.Test in
  let dyn =
    Tutil.run_source ~machine ~scheme:Core.Scheme.Htm_dynamic source
  in
  let hyb = Tutil.run_source ~machine ~scheme:Core.Scheme.Hybrid source in
  Alcotest.(check string) "same guest result" dyn.Core.Runner.output
    hyb.Core.Runner.output;
  (* same guest work in fewer cycles = higher committed-instruction
     throughput when capacity aborts retry in software instead of
     serialising on the GIL *)
  Alcotest.(check bool)
    (Printf.sprintf "hybrid %d cycles < GIL-fallback %d cycles"
       hyb.Core.Runner.wall_cycles dyn.Core.Runner.wall_cycles)
    true
    (hyb.Core.Runner.wall_cycles < dyn.Core.Runner.wall_cycles);
  let s = hyb.Core.Runner.stm_stats in
  Alcotest.(check bool) "software transactions committed" true
    (s.Stm.commits > 0);
  (* the abort report attributes the fallback causes *)
  let fbs = Obs.Sites.fallbacks hyb.Core.Runner.abort_sites in
  Alcotest.(check bool) "stm fallbacks attributed" true
    (List.exists (fun (target, _, n) -> target = "stm" && n > 0) fbs);
  let dyn_fbs = Obs.Sites.fallbacks dyn.Core.Runner.abort_sites in
  Alcotest.(check bool) "gil fallbacks attributed" true
    (List.exists (fun (target, _, n) -> target = "gil" && n > 0) dyn_fbs)

let suite =
  [
    Alcotest.test_case "redo log isolation and publish" `Quick
      test_redo_isolation;
    Alcotest.test_case "per-read validation aborts" `Quick
      test_per_read_validation_abort;
    Alcotest.test_case "commit-time validation" `Quick
      test_commit_time_validation;
    Alcotest.test_case "software read aborts hardware writer" `Quick
      test_sw_read_aborts_hw_writer;
    Alcotest.test_case "software commit aborts hardware reader" `Quick
      test_sw_commit_aborts_hw_reader;
    Alcotest.test_case "hardware commit fails software validation" `Quick
      test_hw_commit_fails_sw_validation;
    Alcotest.test_case "commit clock and read-only commits" `Quick
      test_commit_bumps_clock;
    Alcotest.test_case "per-site retry budgets" `Quick test_budget;
    Alcotest.test_case "scheme names round-trip" `Quick
      test_scheme_round_trip;
    Alcotest.test_case "serializability fuzz vs global-lock reference" `Quick
      test_fuzz_serializable;
    Alcotest.test_case "cg equivalence under stm/hybrid" `Slow test_equiv_cg;
    Alcotest.test_case "is equivalence under stm/hybrid" `Slow test_equiv_is;
    Alcotest.test_case "mg equivalence under stm/hybrid" `Slow test_equiv_mg;
    Alcotest.test_case "webrick equivalence under gc pressure" `Slow
      test_equiv_under_gc_pressure;
    Alcotest.test_case "equivalence under capacity pressure" `Slow
      test_equiv_capacity_pressure;
    Alcotest.test_case "thread finishing inside a failing window" `Quick
      test_finish_inside_failing_window;
    Alcotest.test_case "stm fallback beats gil fallback" `Slow
      test_stm_fallback_beats_gil_fallback;
  ]
