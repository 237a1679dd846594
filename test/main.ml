(* Test entry point: one alcotest run aggregating all suites.

   Alcotest pads the suite column to the longest suite name and cuts each
   test name to fit the line, so a suite name longer than 12 characters
   shortens the printed name of every long test. Keep new names short. *)

let () =
  Alcotest.run "htm_gil"
    [
      ("store", Test_store.suite);
      ("compiler", Test_compiler.suite);
      ("htm-engine", Test_htm.suite);
      ("htm-diff", Test_htm_diff.suite);
      ("htm-fuzz", Test_htm_fuzz.suite);
      ("pool", Test_pool.suite);
      ("lexer", Test_lexer.suite);
      ("parser", Test_parser.suite);
      ("interp", Test_interp.suite);
      ("inline-cache", Test_inline_cache.suite);
      ("edge-cases", Test_edge_cases.suite);
      ("heap-gc", Test_heap.suite);
      ("removals", Test_conflict_removal.suite);
      ("objects", Test_objects.suite);
      ("threads", Test_threads.suite);
      ("gil", Test_gil.suite);
      ("yield-points", Test_yield_points.suite);
      ("txlen", Test_txlen.suite);
      ("schemes", Test_schemes.suite);
      ("runner", Test_runner.suite);
      ("sched", Test_sched.suite);
      ("lazy-sweep", Test_lazy_sweep.suite);
      ("extensions", Test_extensions.suite);
      ("shapes", Test_shapes.suite);
      ("regexsim", Test_regexsim.suite);
      ("minidb", Test_minidb.suite);
      ("netsim", Test_netsim.suite);
      ("servers", Test_servers.suite);
      ("workloads", Test_workloads.suite);
      ("obs", Test_obs.suite);
      ("load", Test_load.suite);
      ("shard", Test_shard.suite);
      ("domain-audit", Test_domain_audit.suite);
      ("stm", Test_stm.suite);
      ("tm-clock", Test_tm_clock.suite);
      ("alloc-gates", Test_alloc_gates.suite);
    ]
