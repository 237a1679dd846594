(* Dynamic transaction-length adjustment (Figure 3) as a unit. *)

let dummy_code () =
  Rvm.Compiler.make_code ~name:"test" ~kind:Rvm.Value.Method ~arity:0 ~nlocals:0
    [| Rvm.Value.Nop |]

let params =
  {
    Core.Txlen.initial_length = 255;
    profiling_period = 300;
    adjustment_threshold = 3;
    attenuation_rate = 0.75;
  }

let test_constant_mode () =
  let t = Core.Txlen.create ~params (Core.Txlen.Constant 16) in
  let code = dummy_code () in
  Alcotest.(check int) "fixed length" 16
    (Core.Txlen.set_transaction_length t ~code ~pc:0);
  (* adjustments have no effect *)
  for _ = 1 to 50 do
    Core.Txlen.adjust_transaction_length t ~code ~pc:0
  done;
  Alcotest.(check int) "still fixed" 16
    (Core.Txlen.set_transaction_length t ~code ~pc:0)

let test_initial_length () =
  let t = Core.Txlen.create ~params Core.Txlen.Dynamic in
  let code = dummy_code () in
  Alcotest.(check int) "initial" 255
    (Core.Txlen.set_transaction_length t ~code ~pc:3)

let test_shrink_after_threshold () =
  let t = Core.Txlen.create ~params Core.Txlen.Dynamic in
  let code = dummy_code () in
  ignore (Core.Txlen.set_transaction_length t ~code ~pc:0);
  (* Figure 3: the counter may reach ADJUSTMENT_THRESHOLD before a further
     abort shrinks the length, so threshold+2 aborts trigger one shrink *)
  for _ = 1 to params.adjustment_threshold + 1 do
    Core.Txlen.adjust_transaction_length t ~code ~pc:0
  done;
  Alcotest.(check int) "not yet shrunk" 255
    (Core.Txlen.set_transaction_length t ~code ~pc:0);
  Core.Txlen.adjust_transaction_length t ~code ~pc:0;
  Alcotest.(check int) "shrunk once" 191
    (Core.Txlen.set_transaction_length t ~code ~pc:0)

let test_shrink_floor () =
  let t = Core.Txlen.create ~params Core.Txlen.Dynamic in
  let code = dummy_code () in
  ignore (Core.Txlen.set_transaction_length t ~code ~pc:0);
  for _ = 1 to 2000 do
    Core.Txlen.adjust_transaction_length t ~code ~pc:0
  done;
  Alcotest.(check int) "never below 1" 1
    (Core.Txlen.set_transaction_length t ~code ~pc:0)

let test_profiling_period_saturation () =
  (* Figure 3 line 8 saturates the counter at PROFILING_PERIOD, so the
     <= comparison on line 14 keeps the entry adjustable: sustained abort
     bursts can still shorten a hot yield point after warm-up. *)
  let t = Core.Txlen.create ~params Core.Txlen.Dynamic in
  let code = dummy_code () in
  for _ = 1 to params.profiling_period + 10 do
    ignore (Core.Txlen.set_transaction_length t ~code ~pc:0)
  done;
  for _ = 1 to 50 do
    Core.Txlen.adjust_transaction_length t ~code ~pc:0
  done;
  Alcotest.(check bool) "still adjustable at saturation" true
    (Core.Txlen.set_transaction_length t ~code ~pc:0 < 255)

let test_shrink_extends_profiling () =
  let t = Core.Txlen.create ~params Core.Txlen.Dynamic in
  let code = dummy_code () in
  (* interleave begins and aborts: a shrink resets the counters (Figure 3
     lines 20-21), extending the profiling period *)
  for _ = 1 to 250 do
    ignore (Core.Txlen.set_transaction_length t ~code ~pc:0)
  done;
  for _ = 1 to params.adjustment_threshold + 2 do
    Core.Txlen.adjust_transaction_length t ~code ~pc:0
  done;
  (* counters were reset: another shrink round is possible *)
  for _ = 1 to params.adjustment_threshold + 2 do
    Core.Txlen.adjust_transaction_length t ~code ~pc:0
  done;
  Alcotest.(check int) "two shrinks" 143
    (Core.Txlen.set_transaction_length t ~code ~pc:0)

let test_per_point_independence () =
  let t = Core.Txlen.create ~params Core.Txlen.Dynamic in
  let code = dummy_code () in
  let code2 = dummy_code () in
  ignore (Core.Txlen.set_transaction_length t ~code ~pc:0);
  ignore (Core.Txlen.set_transaction_length t ~code ~pc:7);
  ignore (Core.Txlen.set_transaction_length t ~code:code2 ~pc:0);
  for _ = 1 to params.adjustment_threshold + 2 do
    Core.Txlen.adjust_transaction_length t ~code ~pc:0
  done;
  Alcotest.(check int) "pc 0 shrunk" 191
    (Core.Txlen.set_transaction_length t ~code ~pc:0);
  Alcotest.(check int) "pc 7 untouched" 255
    (Core.Txlen.set_transaction_length t ~code ~pc:7);
  Alcotest.(check int) "other code untouched" 255
    (Core.Txlen.set_transaction_length t ~code:code2 ~pc:0)

let test_machine_params () =
  let z = Core.Txlen.params_for Htm_sim.Machine.zec12 in
  let x = Core.Txlen.params_for Htm_sim.Machine.xeon_e3 in
  (* 1% vs 6% target abort ratios (Section 5.1) *)
  Alcotest.(check int) "zEC12 threshold" 3 z.adjustment_threshold;
  Alcotest.(check int) "Xeon threshold" 18 x.adjustment_threshold;
  Alcotest.(check int) "same period" x.profiling_period z.profiling_period

let test_stats () =
  let t = Core.Txlen.create ~params Core.Txlen.Dynamic in
  let code = dummy_code () in
  ignore (Core.Txlen.set_transaction_length t ~code ~pc:0);
  ignore (Core.Txlen.set_transaction_length t ~code ~pc:1);
  for _ = 1 to 500 do
    Core.Txlen.adjust_transaction_length t ~code ~pc:0;
    ignore (Core.Txlen.set_transaction_length t ~code ~pc:0)
  done;
  let at_one, mean = Core.Txlen.stats t in
  Alcotest.(check bool) "half the points at 1" true (abs_float (at_one -. 0.5) < 0.01);
  Alcotest.(check bool) "mean between 1 and 255" true (mean >= 1.0 && mean <= 255.0)

let suite =
  [
    Alcotest.test_case "constant mode" `Quick test_constant_mode;
    Alcotest.test_case "initial length" `Quick test_initial_length;
    Alcotest.test_case "shrink after threshold" `Quick test_shrink_after_threshold;
    Alcotest.test_case "floor at 1" `Quick test_shrink_floor;
    Alcotest.test_case "profiling period saturation" `Quick test_profiling_period_saturation;
    Alcotest.test_case "shrink extends profiling" `Quick test_shrink_extends_profiling;
    Alcotest.test_case "per-yield-point independence" `Quick test_per_point_independence;
    Alcotest.test_case "per-machine parameters" `Quick test_machine_params;
    Alcotest.test_case "length statistics" `Quick test_stats;
  ]
