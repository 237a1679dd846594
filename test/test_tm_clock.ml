(* The pluggable commit-clock subsystem and the subscription-policy model:
   GV5/GV6 bookkeeping unit tests, engine-level semantics of the delayed
   (GV5) publication protocol, the store-layout invariant that keeps the
   GIL word, the clock cell and its stat mirrors on distinct cache lines,
   the GV5/GV6 serializability fuzz against the same shadow executor the
   GV1 engine is checked with, and the lazy-subscription safety ablation:
   plain [Lazy] must demonstrably corrupt a GC-heavy run, [Lazy_safe] (the
   hardware fix) and [Eager] must not. *)

open Htm_sim

let machine = { Machine.zec12 with name = "clock-test"; n_cores = 4; smt = 1 }

let mk ?clock () =
  let store = Store.create ~dummy:0 ~line_cells:machine.line_cells 256 in
  let htm = Htm.create machine store in
  for ctx = 0 to 3 do
    Htm.set_occupied htm ctx true
  done;
  let clock =
    match clock with Some s -> Tm_clock.create s | None -> Tm_clock.create Tm_clock.Gv1
  in
  let stm = Stm.create ~clock ~mk_clock:(fun n -> n) htm in
  let region = Store.reserve_aligned store (8 * machine.line_cells) in
  (store, htm, stm, region)

(* --- bookkeeping unit tests -------------------------------------------- *)

let test_scheme_names () =
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Tm_clock.scheme_to_string s ^ " round-trips")
        true
        (Tm_clock.scheme_of_string (Tm_clock.scheme_to_string s) = s))
    [ Tm_clock.Gv1; Tm_clock.Gv5; Tm_clock.Gv6 ];
  Alcotest.(check bool) "eager alias" true
    (Tm_clock.scheme_of_string "eager" = Tm_clock.Gv1);
  Alcotest.(check bool) "delayed alias" true
    (Tm_clock.scheme_of_string "delayed" = Tm_clock.Gv5);
  Alcotest.(check bool) "adaptive alias" true
    (Tm_clock.scheme_of_string "ADAPTIVE" = Tm_clock.Gv6);
  (match Tm_clock.scheme_of_string "gv9" with
  | _ -> Alcotest.fail "bogus clock scheme accepted"
  | exception Invalid_argument _ -> ());
  List.iter
    (fun s ->
      Alcotest.(check bool)
        (Subscription.to_string s ^ " round-trips")
        true
        (Subscription.of_string (Subscription.to_string s) = s))
    [ Subscription.Eager; Subscription.Lazy; Subscription.Lazy_safe ];
  match Subscription.of_string "sometimes" with
  | _ -> Alcotest.fail "bogus subscription policy accepted"
  | exception Invalid_argument _ -> ()

let test_fixed_scheme_counters () =
  let gv1 = Tm_clock.create Tm_clock.Gv1 in
  Alcotest.(check bool) "gv1 effective" true
    (Tm_clock.effective gv1 = Tm_clock.Gv1);
  Tm_clock.note_cell_write gv1;
  Tm_clock.note_commit gv1;
  Alcotest.(check int) "gv1 bumps" 1 (Tm_clock.bumps gv1);
  Alcotest.(check bool) "gv1 failure needs no catch-up bump" false
    (Tm_clock.note_validation_failure gv1);
  let gv5 = Tm_clock.create Tm_clock.Gv5 in
  Alcotest.(check bool) "gv5 effective" true
    (Tm_clock.effective gv5 = Tm_clock.Gv5);
  Tm_clock.note_skip gv5;
  Tm_clock.note_commit gv5;
  Alcotest.(check int) "gv5 skipped" 1 (Tm_clock.skipped gv5);
  Alcotest.(check int) "gv5 never bumps the cell" 0 (Tm_clock.bumps gv5);
  Alcotest.(check bool) "gv5 failure demands the catch-up bump" true
    (Tm_clock.note_validation_failure gv5);
  Alcotest.(check int) "fixed schemes never switch" 0
    (Tm_clock.switches gv1 + Tm_clock.switches gv5)

(* Drive one full adaptation window with [fails] failures out of the
   window size, the rest commits. *)
let feed_window c fails =
  let open Tm_clock in
  for _ = 1 to fails do
    ignore (note_validation_failure c)
  done;
  for _ = 1 to 64 - fails do
    note_commit c
  done

let test_gv6_adaptation () =
  let c = Tm_clock.create Tm_clock.Gv6 in
  Alcotest.(check bool) "gv6 starts optimistic (gv5 side)" true
    (Tm_clock.effective c = Tm_clock.Gv5);
  (* half the window failing: flip to the eager protocol *)
  feed_window c 32;
  Alcotest.(check bool) "high failure rate flips to gv1" true
    (Tm_clock.effective c = Tm_clock.Gv1);
  Alcotest.(check int) "one switch counted" 1 (Tm_clock.switches c);
  (* the hysteresis band: a third failing is neither flip threshold *)
  feed_window c 21;
  Alcotest.(check bool) "hysteresis band holds the regime" true
    (Tm_clock.effective c = Tm_clock.Gv1);
  Alcotest.(check int) "no switch inside the band" 1 (Tm_clock.switches c);
  (* a quiet window flips back *)
  feed_window c 4;
  Alcotest.(check bool) "low failure rate flips back to gv5" true
    (Tm_clock.effective c = Tm_clock.Gv5);
  Alcotest.(check int) "second switch counted" 2 (Tm_clock.switches c)

(* --- engine-level GV5 semantics ---------------------------------------- *)

let test_gv1_commit_kills_subscriber () =
  let store, htm, stm, a = mk () in
  let cell = Stm.clock_cell stm in
  let before = Store.get store cell in
  Htm.tbegin htm ~ctx:1 ~rollback:(fun _ -> ());
  ignore (Htm.read htm ~ctx:1 cell);
  Stm.begin_ stm ~ctx:0 ~rollback:(fun _ -> ());
  Htm.write htm ~ctx:0 a 5;
  assert (Stm.validate stm ~ctx:0 < 0);
  Stm.commit stm ~ctx:0;
  Alcotest.(check bool) "gv1 commit rewrote the clock cell" true
    (Store.get store cell <> before);
  Alcotest.(check bool) "subscribed hardware window killed" false
    (Htm.in_txn htm 1);
  Htm.clear_pending_abort htm 1;
  Alcotest.(check int) "cell write counted" 1
    (Tm_clock.bumps (Stm.clock stm))

let test_gv5_commit_spares_subscriber () =
  let store, htm, stm, a = mk ~clock:Tm_clock.Gv5 () in
  let cell = Stm.clock_cell stm in
  let before = Store.get store cell in
  Htm.tbegin htm ~ctx:1 ~rollback:(fun _ -> ());
  ignore (Htm.read htm ~ctx:1 cell);
  (* a concurrent software reader whose snapshot predates the commit *)
  Stm.begin_ stm ~ctx:2 ~rollback:(fun _ -> ());
  Stm.begin_ stm ~ctx:0 ~rollback:(fun _ -> ());
  Htm.write htm ~ctx:0 a 5;
  assert (Stm.validate stm ~ctx:0 < 0);
  Stm.commit stm ~ctx:0;
  Alcotest.(check int) "gv5 commit left the clock cell alone" before
    (Store.get store cell);
  Alcotest.(check bool) "subscribed hardware window survives" true
    (Htm.in_txn htm 1);
  Htm.tend htm ~ctx:1;
  (* ...but the committed line is stamped ahead of the old snapshot, so
     the delayed protocol's tax lands on the software reader *)
  (match Htm.read htm ~ctx:2 a with
  | _ -> Alcotest.fail "stale-snapshot read of a gv5-stamped line must abort"
  | exception Htm.Abort_now Txn.Validation -> ());
  Stm.clear_pending_abort stm 2;
  let c = Stm.clock stm in
  Alcotest.(check int) "skip counted" 1 (Tm_clock.skipped c);
  Alcotest.(check int) "no cell write counted" 0 (Tm_clock.bumps c)

(* --- store layout invariant (satellite 2) ------------------------------ *)

let test_store_line_distinctness () =
  (* engine level: the three reserved cells sit on three distinct lines *)
  let store, _, stm, _ = mk () in
  let lines =
    List.map (Store.line_of store)
      [ Stm.clock_cell stm; Stm.bumps_cell stm; Stm.skipped_cell stm ]
  in
  Alcotest.(check int) "engine cells on distinct lines" 3
    (List.length (List.sort_uniq compare lines));
  (* runner level: the GIL word joins the set, still all distinct — a
     subscription to one word must never alias traffic on another *)
  let cfg =
    Core.Runner.config ~scheme:Core.Scheme.Hybrid Harness.Figures.hybrid_machine
  in
  let r = Core.Runner.create cfg ~source:"puts 1" in
  let store = r.Core.Runner.vm.Rvm.Vm.store in
  let stm =
    match Core.Runner.stm r with
    | Some s -> s
    | None -> Alcotest.fail "hybrid runner has no stm"
  in
  let lines =
    List.map (Store.line_of store)
      [
        r.Core.Runner.vm.Rvm.Vm.g_gil;
        Stm.clock_cell stm;
        Stm.bumps_cell stm;
        Stm.skipped_cell stm;
      ]
  in
  Alcotest.(check int) "gil word, clock cell and stat cells on 4 lines" 4
    (List.length (List.sort_uniq compare lines))

(* --- GV5/GV6 serializability fuzz (satellite 3) ------------------------
   The same differential harness as test_stm's: random hardware and
   software transactions plus plain accesses over a small region, checked
   against a single-global-lock shadow executor. The delayed protocols
   change WHEN software commits publish the clock, so they must not
   change WHAT any reader can observe. *)

type fuzz_ctx = {
  mutable mode : [ `Idle | `Hw | `Sw ];
  pend : (int, int) Hashtbl.t;
}

let fuzz_serializable clock_scheme seed steps =
  let n_ctx = 4 in
  let rng = Random.State.make [| seed |] in
  let store = Store.create ~dummy:0 ~line_cells:machine.line_cells 256 in
  let htm = Htm.create machine store in
  for ctx = 0 to n_ctx - 1 do
    Htm.set_occupied htm ctx true
  done;
  let stm =
    Stm.create ~clock:(Tm_clock.create clock_scheme) ~mk_clock:(fun n -> n) htm
  in
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
               "%s seed %d step %d: store[%d] = %d, reference executor has %d"
               (Tm_clock.scheme_to_string clock_scheme)
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
            Htm.write htm ~ctx addr v;
            shadow.(addr - region) <- v
        | _ ->
            let got = Htm.read htm ~ctx addr in
            if got <> shadow.(addr - region) then
              Alcotest.fail
                (Printf.sprintf
                   "%s seed %d step %d: committed read %d, reference %d"
                   (Tm_clock.scheme_to_string clock_scheme)
                   seed step got
                   (shadow.(addr - region))))
    | `Hw | `Sw -> (
        match Random.State.int rng 10 with
        | 0 | 1 | 2 | 3 -> (
            match Htm.read htm ~ctx addr with
            | got ->
                let want = expected c addr in
                if got <> want then
                  Alcotest.fail
                    (Printf.sprintf
                       "%s seed %d step %d ctx %d: transactional read %d, \
                        serial order requires %d"
                       (Tm_clock.scheme_to_string clock_scheme)
                       seed step ctx got want)
            | exception Htm.Abort_now _ -> reset c)
        | 4 | 5 | 6 -> (
            match Htm.write htm ~ctx addr v with
            | () -> Hashtbl.replace c.pend addr v
            | exception Htm.Abort_now _ -> reset c)
        | 7 | 8 -> (
            match c.mode with
            | `Hw -> (
                match Htm.tend htm ~ctx with
                | () ->
                    Hashtbl.iter (fun a v -> shadow.(a - region) <- v) c.pend;
                    reset c
                | exception Htm.Abort_now _ -> reset c)
            | `Sw ->
                let line = Stm.validate stm ~ctx in
                if line < 0 then begin
                  Stm.commit stm ~ctx;
                  Hashtbl.iter (fun a v -> shadow.(a - region) <- v) c.pend
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
    (Printf.sprintf "%s seed %d exercised software commits"
       (Tm_clock.scheme_to_string clock_scheme)
       seed)
    true (s.Stm.commits > 0);
  let c = Stm.clock stm in
  if clock_scheme = Tm_clock.Gv5 then
    Alcotest.(check int)
      (Printf.sprintf "gv5 seed %d wrote no clock cell" seed)
      0 (Tm_clock.bumps c)

let test_fuzz_gv5 () =
  List.iter (fun seed -> fuzz_serializable Tm_clock.Gv5 seed 10_000) [ 7; 21; 42 ]

let test_fuzz_gv6 () =
  List.iter (fun seed -> fuzz_serializable Tm_clock.Gv6 seed 10_000) [ 7; 21; 42 ]

(* --- guest-level clock-scheme equivalence ------------------------------ *)

let gc_opts = { Rvm.Options.default with Rvm.Options.heap_slots = 6_000 }

let webrick_run ?clock ?subscription () =
  let w = Option.get (Workloads.Workload.find "webrick") in
  let o =
    Harness.Exp.run
      (Harness.Exp.point ?clock ?subscription ~opts:gc_opts ~workload:w
         ~machine:Harness.Figures.hybrid_machine ~scheme:Core.Scheme.Hybrid
         ~threads:4 ~size:Workloads.Size.Test ())
  in
  o.Harness.Exp.result

let test_equiv_clock_schemes () =
  (* the clock scheme changes publication cost, never guest semantics *)
  let reference = webrick_run ~clock:Tm_clock.Gv1 () in
  Alcotest.(check bool) "reference served requests" true
    (reference.Core.Runner.requests_completed > 0);
  Alcotest.(check bool) "reference hit the software fallback" true
    (reference.Core.Runner.stm_stats.Stm.commits > 0);
  List.iter
    (fun clock ->
      let r = webrick_run ~clock () in
      Alcotest.(check string)
        ("webrick output under " ^ Tm_clock.scheme_to_string clock)
        reference.Core.Runner.output r.Core.Runner.output;
      Alcotest.(check int)
        ("webrick requests under " ^ Tm_clock.scheme_to_string clock)
        reference.Core.Runner.requests_completed
        r.Core.Runner.requests_completed)
    [ Tm_clock.Gv5; Tm_clock.Gv6 ]

(* --- the lazy-subscription safety ablation (satellite 3) --------------- *)

let test_lazy_subscription_unsafe () =
  (* plain lazy subscription on stock hardware: GC can run around live
     hardware windows (nothing killed them), and a zombie window's abort
     restores pre-GC values over collector-rebuilt state. The run must
     observably diverge from the eager reference — corrupted guest state,
     a stuck VM or a guest-level failure all count; silent agreement
     means the hazard model is broken, so the test fails CLOSED. *)
  let reference = webrick_run ~subscription:Subscription.Eager () in
  Alcotest.(check bool) "reference ran gc" true
    (reference.Core.Runner.gc_runs > 0);
  match webrick_run ~subscription:Subscription.Lazy () with
  | r ->
      if
        r.Core.Runner.output = reference.Core.Runner.output
        && r.Core.Runner.requests_completed
           = reference.Core.Runner.requests_completed
      then
        Alcotest.fail
          "lazy subscription silently matched the eager reference — the \
           modeled hazard never fired"
  | exception Core.Runner.Stuck _ -> ()
  | exception Core.Runner.Guest_failure _ -> ()

let test_lazy_safe_is_safe () =
  (* the Dice et al. fix: same lazy window, but GC entry aborts every
     hardware transaction first — guest-visible behaviour must match the
     eager reference exactly *)
  let reference = webrick_run ~subscription:Subscription.Eager () in
  let r = webrick_run ~subscription:Subscription.Lazy_safe () in
  Alcotest.(check string) "lazy-safe output matches eager"
    reference.Core.Runner.output r.Core.Runner.output;
  Alcotest.(check int) "lazy-safe requests match eager"
    reference.Core.Runner.requests_completed
    r.Core.Runner.requests_completed

let suite =
  [
    Alcotest.test_case "scheme and policy names round-trip" `Quick
      test_scheme_names;
    Alcotest.test_case "gv1/gv5 counters" `Quick test_fixed_scheme_counters;
    Alcotest.test_case "gv6 adaptation and hysteresis" `Quick
      test_gv6_adaptation;
    Alcotest.test_case "gv1 commit kills the subscribed window" `Quick
      test_gv1_commit_kills_subscriber;
    Alcotest.test_case "gv5 commit spares the subscribed window" `Quick
      test_gv5_commit_spares_subscriber;
    Alcotest.test_case "gil/clock/stat cells on distinct lines" `Quick
      test_store_line_distinctness;
    Alcotest.test_case "gv5 serializability fuzz" `Quick test_fuzz_gv5;
    Alcotest.test_case "gv6 serializability fuzz" `Quick test_fuzz_gv6;
    Alcotest.test_case "webrick equivalence across clock schemes" `Slow
      test_equiv_clock_schemes;
    Alcotest.test_case "lazy subscription corrupts a gc-heavy run" `Slow
      test_lazy_subscription_unsafe;
    Alcotest.test_case "lazy-safe matches the eager reference" `Slow
      test_lazy_safe_is_safe;
  ]
