(* Allocation gates: in steady state the hot paths must not allocate on the
   OCaml minor heap — a transactional access (hardware or software), an
   interpreted instruction, and a scheduler round trip at one instruction
   per slice. Each gate prints its reading; the tiny budgets absorb the
   boxed floats [Gc.minor_words] itself returns. *)

let gate what ~budget reading =
  Printf.printf "%.5f minor words per %s (budget %g)\n" reading what budget;
  if reading > budget then
    Alcotest.failf "%.5f minor words per %s, over the %g budget" reading what
      budget

(* Minor words one [f ()] allocates. *)
let words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

(* A warm engine over a 64-line region, context 0 running. *)
let engine () =
  let machine = Htm_sim.Machine.zec12 in
  let store = Htm_sim.Store.create ~dummy:0 ~line_cells:machine.line_cells 4096 in
  let htm = Htm_sim.Htm.create machine store in
  Htm_sim.Htm.set_occupied htm 0 true;
  (store, htm, Htm_sim.Store.reserve_aligned store 1024)

let txns = 2_000
let writes = 64

(* [txns] windows of [writes] writes then [writes] reads, opened and closed
   by [begin_] and [end_]; per-access minor words once the line tables and
   scratch arrays are warm. *)
let per_access htm region ~begin_ ~end_ =
  let loop () =
    for _ = 1 to txns do
      begin_ ();
      for i = 0 to writes - 1 do
        Htm_sim.Htm.write htm ~ctx:0 (region + (i * 8)) i
      done;
      for i = 0 to writes - 1 do
        ignore (Htm_sim.Htm.read htm ~ctx:0 (region + (i * 8)))
      done;
      end_ ()
    done
  in
  loop ();
  words loop /. float_of_int (txns * writes * 2)

let test_htm_access () =
  let _, htm, region = engine () in
  per_access htm region
    ~begin_:(fun () -> Htm_sim.Htm.tbegin htm ~ctx:0 ~rollback:(fun _ -> ()))
    ~end_:(fun () -> Htm_sim.Htm.tend htm ~ctx:0)
  |> gate "transactional access" ~budget:0.01

(* The STM's generation-stamped redo log, write table and read set; an int
   store so no value boxes. *)
let test_stm_access () =
  let _, htm, region = engine () in
  let stm = Stm.create ~mk_clock:(fun n -> n) htm in
  per_access htm region
    ~begin_:(fun () -> Stm.begin_ stm ~ctx:0 ~rollback:(fun _ -> ()))
    ~end_:(fun () ->
      assert (Stm.validate stm ~ctx:0 < 0);
      Stm.commit stm ~ctx:0)
  |> gate "software-transactional access" ~budget:0.01

(* Minor words per marginal interpreted instruction: the difference of a
   long and a short run of one guest, so boot, compile and spawn allocation
   cancel. Also returns both runs' results. *)
let per_insn ~scheme ~short ~long source =
  let run n =
    let cfg = Core.Runner.config ~scheme Htm_sim.Machine.zec12 in
    let r = ref None in
    let w =
      words (fun () -> r := Some (Core.Runner.run_source cfg ~source:(source n)))
    in
    (w, Option.get !r)
  in
  ignore (run short);
  (* a warm-up run *)
  let w_short, r_short = run short in
  let w_long, r_long = run long in
  let insns (r : Core.Runner.result) = float_of_int r.total_insns in
  ((w_long -. w_short) /. (insns r_long -. insns r_short), r_short, r_long)

let int_loop body n =
  Printf.sprintf "x = 0\ni = 0\nwhile i < %d\n  %s\n  i += 1\nend\nputs x" n body

(* Values past the small-int intern range box as guest allocations; the
   budget allows for them. *)
let test_step () =
  let w, _, _ =
    per_insn ~scheme:Core.Scheme.Gil_only ~short:1_000 ~long:200_000
      (int_loop "x += i")
  in
  gate "instruction" ~budget:0.5 w

(* Inside the intern range the interpreter is exactly allocation-free. *)
let test_step_interned () =
  let w, _, _ =
    per_insn ~scheme:Core.Scheme.Gil_only ~short:1_000 ~long:50_000
      (int_loop "x = (x + i) % 256")
  in
  gate "instruction, intern range" ~budget:0.01 w

(* Twelve HTM-dynamic threads of one loop keep every clock within an
   instruction of the others, so the runner re-picks after nearly every
   instruction: the pick, the disabled context-switch trace site and the
   window begin/commit path must all be allocation-free. *)
let test_slices () =
  let source n =
    Printf.sprintf
      "threads = []\n\
       t = 0\n\
       while t < 12\n\
      \  threads << Thread.new(t) do |tid|\n\
      \    x = 0\n\
      \    i = 0\n\
      \    while i < %d\n\
      \      x = (x + i) %% 256\n\
      \      i += 1\n\
      \    end\n\
      \  end\n\
      \  t += 1\n\
       end\n\
       threads.each { |th| th.join }\n\
       puts 0"
      n
  in
  let w, r_short, r_long =
    per_insn ~scheme:Core.Scheme.Htm_dynamic ~short:500 ~long:5_000 source
  in
  let slices (r : Core.Runner.result) =
    float_of_int (Obs.Metrics.histogram r.metrics "sched.slice_insns").Obs.Metrics.n
  in
  Printf.printf "%.2f instructions per slice\n"
    (float_of_int (r_long.total_insns - r_short.total_insns)
    /. (slices r_long -. slices r_short));
  gate "instruction at 12 threads" ~budget:0.01 w

(* A boot links no heap arena up front: [Runner.create] allocates a bounded
   number of words and owns a handful of store pages, however many slots
   the arena holds. Both readings are exact counts. Linking the default
   200,000-slot arena at boot read 420,769 words and 392 pages here; the
   on-demand boot read 36,196 words, most of them lexing and parsing the
   prelude, and 3 pages. The prelude is now parsed once per process, so a
   boot reads 16,166 words and 3 pages of 1,024 cells. *)
let test_boot () =
  let cfg = Core.Runner.config ~scheme:Core.Scheme.Gil_only Htm_sim.Machine.zec12 in
  let create () = Core.Runner.create cfg ~source:"puts 1" in
  Rvm.Vm.release (create ()).Core.Runner.vm;
  (* warm: intern table, domain pools *)
  let t = ref None in
  let w = words (fun () -> t := Some (create ())) in
  let store = (Option.get !t).Core.Runner.vm.Rvm.Vm.store in
  let pages = Htm_sim.Store.resident_cells store / Htm_sim.Store.page_cells in
  Rvm.Vm.release (Option.get !t).Core.Runner.vm;
  Printf.printf "%d store pages resident after boot (budget 16)\n" pages;
  if pages > 16 then Alcotest.failf "%d store pages resident after boot, over 16" pages;
  gate "boot" ~budget:32_768. w

(* Marking interns the marked header, so the worklist cons is a mark's only
   allocation. *)
let test_mark () =
  let cfg = Core.Runner.config ~scheme:Core.Scheme.Gil_only Htm_sim.Machine.zec12 in
  let t =
    Core.Runner.create cfg
      ~source:"$keep = []\ni = 0\nwhile i < 10000\n  $keep << [i]\n  i += 1\nend"
  in
  ignore (Core.Runner.run t);
  let heap = t.Core.Runner.vm.Rvm.Vm.heap in
  let marked = ref 0 in
  let w = words (fun () -> marked := Rvm.Heap.gc_mark heap heap.Rvm.Heap.gc_roots) in
  Rvm.Vm.release t.Core.Runner.vm;
  if !marked < 10_000 then Alcotest.failf "only %d objects marked" !marked;
  gate "marked object" ~budget:3.5 (w /. float_of_int !marked)

let suite =
  [
    Alcotest.test_case "htm access" `Quick test_htm_access;
    Alcotest.test_case "stm access" `Quick test_stm_access;
    Alcotest.test_case "interpreted instruction" `Quick test_step;
    Alcotest.test_case "instruction, intern range" `Quick test_step_interned;
    Alcotest.test_case "one-instruction slices" `Quick test_slices;
    Alcotest.test_case "boot" `Quick test_boot;
    Alcotest.test_case "gc mark" `Quick test_mark;
  ]
