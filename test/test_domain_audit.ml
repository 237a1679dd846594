(* Domain-local state audit: the shard tier runs whole VM instances in
   other OCaml domains, so every piece of domain-local state the runner
   touches — the Sym/Value interning contexts, the Store.retire recycle
   pool, the per-point metrics registries and trace rings — must be
   private to its domain. A throwaway domain runs a small figure point and
   hands its state handles back; nothing may alias the parent's. *)

let machine = Htm_sim.Machine.zec12

let small_point () =
  Harness.Exp.point
    ~workload:(Harness.Figures.wl "while")
    ~machine ~scheme:Core.Scheme.Htm_dynamic ~threads:2
    ~size:Workloads.Size.Test ()

(* Run one figure point plus one raw VM boot and return every domain-local
   handle the run left active. *)
let run_and_collect () =
  let tracer = Obs.Trace.create () in
  let o = Harness.Exp.run ~tracer (small_point ()) in
  let vm = Rvm.Vm.create machine in
  let pages = Htm_sim.Store.retire vm.Rvm.Vm.store in
  ( o.Harness.Exp.result.Core.Runner.metrics,
    tracer,
    Rvm.Sym.current (),
    Rvm.Value.current_uid_state (),
    pages )

let test_no_aliasing () =
  let parent_syms_before = Rvm.Sym.current () in
  let parent_count_before = Rvm.Sym.count () in
  let child = Domain.spawn run_and_collect in
  let p_metrics, p_tracer, p_syms, p_uids, p_pages = run_and_collect () in
  let c_metrics, c_tracer, c_syms, c_uids, c_pages = Domain.join child in
  (* interning contexts: each session owns its own; the child's never
     becomes the parent's active one *)
  Alcotest.(check bool) "Sym states do not alias" true (p_syms != c_syms);
  Alcotest.(check bool) "uid counters do not alias" true (p_uids != c_uids);
  Alcotest.(check bool) "child run left the parent's active Sym state alone"
    true
    (Rvm.Sym.current () != c_syms && c_syms != parent_syms_before);
  (* both sessions interned the same program into fresh tables, so the
     parent's pre-existing active table never grew *)
  Rvm.Sym.activate parent_syms_before;
  Alcotest.(check int) "parent's interning table untouched"
    parent_count_before (Rvm.Sym.count ());
  (* observability: per-point registries and trace rings are private *)
  Alcotest.(check bool) "metrics registries do not alias" true
    (p_metrics != c_metrics);
  Alcotest.(check bool) "trace rings do not alias" true (p_tracer != c_tracer);
  Alcotest.(check bool) "both rings actually traced" true
    (Obs.Trace.total p_tracer > 0 && Obs.Trace.total c_tracer > 0);
  (* the Store.retire page pool is per-domain: no retired page is in both
     domains' pools *)
  Alcotest.(check bool) "both domains retired pages" true
    (p_pages <> [] && c_pages <> []);
  Alcotest.(check bool) "retired store pages do not alias" true
    (List.for_all (fun p -> not (List.memq p c_pages)) p_pages)

(* The same figure point must produce identical simulated results whether
   it ran on the parent or a throwaway domain — domain placement is
   invisible to the simulation. *)
let test_placement_invisible () =
  let run () =
    let o = Harness.Exp.run (small_point ()) in
    ( o.Harness.Exp.wall_cycles,
      o.Harness.Exp.result.Core.Runner.total_insns,
      o.Harness.Exp.result.Core.Runner.htm_stats.Htm_sim.Stats.commits,
      Htm_sim.Stats.aborts o.Harness.Exp.result.Core.Runner.htm_stats )
  in
  let child = Domain.spawn run in
  let parent = run () in
  Alcotest.(check bool) "domain placement is invisible" true
    (parent = Domain.join child)

let suite =
  [
    Alcotest.test_case "no domain-local aliasing" `Quick test_no_aliasing;
    Alcotest.test_case "placement invisible" `Quick test_placement_invisible;
  ]
