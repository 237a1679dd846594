(* Shared helpers for the test suites. *)

let run_source ?(machine = Htm_sim.Machine.zec12) ?(scheme = Core.Scheme.Gil_only)
    ?(yield_points = Core.Yield_points.Extended) ?opts source =
  let opts = Option.value opts ~default:Rvm.Options.default in
  let cfg = Core.Runner.config ~scheme ~yield_points ~opts machine in
  Core.Runner.run_source cfg ~source

(* Guest program output under a scheme. *)
let output ?machine ?scheme ?yield_points ?opts source =
  (run_source ?machine ?scheme ?yield_points ?opts source).Core.Runner.output

let check_output ?machine ?scheme name expected source =
  Alcotest.(check string) name expected (output ?machine ?scheme source)

let all_schemes =
  [
    Core.Scheme.Gil_only;
    Core.Scheme.Htm_fixed 1;
    Core.Scheme.Htm_fixed 16;
    Core.Scheme.Htm_fixed 256;
    Core.Scheme.Htm_dynamic;
    Core.Scheme.Fine_grained;
    Core.Scheme.Free_parallel;
  ]

let qtest name ?(count = 100) arb prop =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb prop)
