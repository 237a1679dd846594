(* The Section 5.6 abort-cause investigation as a tool: run a workload under
   HTM and report where the aborts happened — the bytecode sites that
   aborted and the memory the conflicts happened on (the GIL word, the
   global free list, inline caches, thread structures or guest data).

     dune exec examples/conflict_analysis.exe [-- bench threads] *)

let () =
  let bench = if Array.length Sys.argv > 1 then Sys.argv.(1) else "ft" in
  let threads =
    if Array.length Sys.argv > 2 then int_of_string Sys.argv.(2) else 12
  in
  let machine = Htm_sim.Machine.zec12 in
  let w = Option.get (Workloads.Workload.find bench) in
  let cfg = Core.Runner.config ~scheme:Core.Scheme.Htm_dynamic machine in
  let r =
    Core.Runner.run_source ~setup:(w.Workloads.Workload.setup None) cfg
      ~source:(w.Workloads.Workload.source ~threads ~size:Workloads.Size.S)
  in
  Printf.printf "%s, %d threads, HTM-dynamic on %s\n" bench threads
    machine.Htm_sim.Machine.name;
  Format.printf "%a@.@." Htm_sim.Stats.pp r.Core.Runner.htm_stats;
  Obs.Sites.report Format.std_formatter r.Core.Runner.abort_sites;
  Printf.printf
    "\nThe paper's finding (Section 5.6): GIL-acquisition cascades and\n\
     object allocation dominate; try --lazy-sweep via bin/main.exe, or\n\
     compare with:  dune exec examples/conflict_analysis.exe -- cg 12\n"
