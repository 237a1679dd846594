(* Heap, free lists and GC: survival of reachable objects, reclamation of
   garbage, heap growth, and the allocation-pressure behaviour that drives
   the paper's conflict analysis. *)

let run ?(opts = Rvm.Options.default) source =
  let cfg = Core.Runner.config ~scheme:Core.Scheme.Gil_only ~opts Htm_sim.Machine.zec12 in
  let t = Core.Runner.create cfg ~source in
  let r = Core.Runner.run t in
  (r, t.Core.Runner.vm)

let small_heap = { Rvm.Options.default with heap_slots = 1_500 }

let test_gc_triggers () =
  (* a small heap plus heavy float traffic forces collections *)
  let r, _ =
    run ~opts:small_heap
      {|x = 0.0
i = 0
while i < 3000
  x += 1.5
  i += 1
end
puts x|}
  in
  Alcotest.(check string) "result survives GC" "4500.0\n" r.output;
  Alcotest.(check bool) "collected at least once" true (r.gc_runs >= 1)

let test_gc_preserves_reachable () =
  let r, _ =
    run ~opts:small_heap
      {|keep = []
i = 0
while i < 40
  keep << [i, i * 2]
  i += 1
end
junk = 0.0
i = 0
while i < 5000
  junk += 0.5
  i += 1
end
s = 0
keep.each { |pair| s += pair[0] + pair[1] }
puts s|}
  in
  (* sum of i + 2i for i in 0..39 = 3 * 780 *)
  Alcotest.(check string) "reachable data intact" "2340\n" r.output;
  Alcotest.(check bool) "GC ran" true (r.gc_runs >= 1)

let test_heap_growth () =
  (* live data exceeding the initial heap forces arena growth, not death *)
  let r, vm =
    run ~opts:{ Rvm.Options.default with heap_slots = 500 }
      {|keep = []
i = 0
while i < 2000
  keep << [i]
  i += 1
end
puts keep.length|}
  in
  Alcotest.(check string) "all live" "2000\n" r.output;
  Alcotest.(check bool) "heap grew" true
    (vm.Rvm.Vm.heap.Rvm.Heap.total_slots > 500)

let test_string_reuse_after_gc () =
  let r, _ =
    run ~opts:small_heap
      {|i = 0
last = ""
while i < 2500
  last = "str" + i.to_s
  i += 1
end
puts last|}
  in
  Alcotest.(check string) "latest string valid" "str2499\n" r.output

let test_free_list_boxes_reclaimed () =
  (* pure float churn must stabilise: allocations >> heap slots *)
  let r, vm = run ~opts:small_heap {|x = 0.0
i = 0
while i < 10000
  x += 0.25
  i += 1
end
puts x|} in
  Alcotest.(check string) "value" "2500.0\n" r.output;
  Alcotest.(check bool) "many allocations" true (r.allocs > 9_000);
  Alcotest.(check bool) "heap did not explode" true
    (vm.Rvm.Vm.heap.Rvm.Heap.total_slots < 40_000)

let test_thread_local_lists () =
  let r, vm =
    run
      {|results = Array.new(4, 0.0)
ths = []
t = 0
while t < 4
  ths << Thread.new(t) do |tid|
    x = 0.0
    i = 0
    while i < 3000
      x += 1.0
      i += 1
    end
    results[tid] = x
  end
  t += 1
end
ths.each { |th| th.join }
puts results.sum|}
  in
  Alcotest.(check string) "threads allocate correctly" "12000.0\n" r.output;
  Alcotest.(check bool) "bulk refills used" true
    (vm.Rvm.Vm.heap.Rvm.Heap.refills > 0)

(* Property: arbitrary object graphs survive GC. *)
let prop_graph_survives =
  Tutil.qtest "random list graphs survive collection" ~count:20
    QCheck.(list_of_size (QCheck.Gen.int_range 1 30) (QCheck.int_bound 100))
    (fun ints ->
      let rb_list =
        "[" ^ String.concat ", " (List.map string_of_int ints) ^ "]"
      in
      let src =
        Printf.sprintf
          {|keep = %s
junk = 0.0
i = 0
while i < 4000
  junk += 1.0
  i += 1
end
puts keep.sum|}
          rb_list
      in
      let r, _ = run ~opts:small_heap src in
      String.trim r.output = string_of_int (List.fold_left ( + ) 0 ints))

(* ---- the boot arena, linked on demand ---------------------------------- *)

module Heap = Rvm.Heap
module Store = Htm_sim.Store

(* A heap over a fresh store, laid out as [Vm.create] lays one out (address
   0 reserved as null), with one object class and one thread whose struct
   cells hold its local free list. [eager] boots with no arena and grows
   the same one through [Heap.add_arena], which links it up front at the
   same base: the reference the on-demand boot must match. *)
type twin = {
  h : Heap.t;
  th : Rvm.Vmthread.t;
  class_id : int;
  base : int;
  stop : int;
}

let boot ~machine ~(opts : Rvm.Options.t) ~eager =
  let store =
    Store.create ~dummy:Rvm.Value.VNil ~line_cells:machine.Htm_sim.Machine.line_cells 0
  in
  ignore (Store.reserve store 1);
  let htm = Htm_sim.Htm.create machine store in
  Htm_sim.Htm.set_occupied htm 0 true;
  let classes = Rvm.Klass.create_table () in
  let k =
    Rvm.Klass.add_class classes ~name:"Object" ~kind:Rvm.Klass.K_object ~super:None
      ~mtbl_base:(Store.reserve_aligned store Rvm.Klass.mtbl_cells)
  in
  let h =
    if eager then begin
      let h = Heap.create store htm { opts with heap_slots = 0 } classes in
      Heap.add_arena h opts.heap_slots;
      h
    end
    else Heap.create store htm opts classes
  in
  let struct_base = Store.reserve_aligned store Rvm.Vmthread.struct_cells in
  for i = 0 to Rvm.Vmthread.struct_cells - 1 do
    Store.set store (struct_base + i) (Rvm.Value.vint 0)
  done;
  let th =
    Rvm.Vmthread.create ~tid:0 ~stack_base:0 ~stack_limit:0 ~struct_base ~obj:(-1)
      ~code:(Rvm.Compiler.compile_string "x = 1").Rvm.Value.main
  in
  th.ctx <- 0;
  (* what the VM installs: a collection starts from empty local lists *)
  h.flush_locals <-
    (fun () ->
      Store.set store (struct_base + Rvm.Vmthread.st_free_head) (Rvm.Value.vint 0);
      Store.set store (struct_base + Rvm.Vmthread.st_free_count) (Rvm.Value.vint 0));
  let base = fst (List.nth h.arenas (List.length h.arenas - 1)) in
  let stop = base + (opts.heap_slots * Rvm.Layout.slot_cells) in
  { h; th; class_id = k.Rvm.Klass.id; base; stop }

let twins ~machine ~opts =
  let lz = boot ~machine ~opts ~eager:false and eg = boot ~machine ~opts ~eager:true in
  Alcotest.(check int) "the twins' arenas share a base" eg.base lz.base;
  (lz, eg)

(* Every cell of [lo, hi) reads the same in both stores. *)
let same_cells what lz eg lo hi =
  let a = lz.h.Heap.store and b = eg.h.Heap.store in
  for addr = lo to hi - 1 do
    let x = Store.get a addr and y = Store.get b addr in
    if x <> y then
      Alcotest.failf "%s: cell %d reads %s on demand, %s eagerly" what addr
        (Rvm.Value.to_string x) (Rvm.Value.to_string y)
  done

(* The whole store, the on-demand twin written out first. *)
let same_store what lz eg =
  Heap.materialise_through lz.h max_int;
  Alcotest.(check int) (what ^ ": same break") (Store.brk eg.h.Heap.store)
    (Store.brk lz.h.Heap.store);
  same_cells what lz eg 0 (Store.brk lz.h.Heap.store)

let alloc t = Heap.alloc_slot t.h t.th ~class_id:t.class_id

(* The cells the allocator keeps its lists in: global head and count, the
   thread's local head and count, the lazy sweeper's cursor. *)
let list_cells t =
  let h = t.h and sb = t.th.struct_base in
  [
    h.Heap.g_free_head;
    h.Heap.g_free_count;
    sb + Rvm.Vmthread.st_free_head;
    sb + Rvm.Vmthread.st_free_count;
    h.Heap.lazy_cursor;
  ]

(* [n] allocations hand out the same slots, and leave the same list cells
   after each one. *)
let same_allocs what lz eg n =
  List.init n (fun i ->
      let a = alloc lz and b = alloc eg in
      if a <> b then
        Alcotest.failf "%s: allocation %d got %d on demand, %d eagerly" what i a b;
      List.iter
        (fun addr ->
          same_cells (Printf.sprintf "%s, allocation %d" what i) lz eg addr (addr + 1))
        (list_cells lz);
      a)

let check_differential ~machine ~opts what () =
  let lz, eg = twins ~machine ~opts in
  Alcotest.(check int) (what ^ ": boot writes no slot") lz.base
    (Heap.unwritten_from lz.h);
  (* ~1,500 slots: several segments of the default 256-slot refill, and
     several 64-slot chunks of the lazy sweeper *)
  ignore (same_allocs what lz eg 1_500);
  let frontier = Heap.unwritten_from lz.h in
  Alcotest.(check bool) (what ^ ": frontier past the handed-out slots") true
    (frontier > lz.base + (1_500 * Rvm.Layout.slot_cells));
  Alcotest.(check bool) (what ^ ": most of the arena still unwritten") true
    (frontier < lz.base + ((lz.stop - lz.base) / 2));
  same_cells what lz eg 0 frontier;
  same_cells what lz eg lz.stop (Store.brk lz.h.Heap.store);
  same_store what lz eg

let zec12 = Htm_sim.Machine.zec12

(* (a) a hardware window detaches a never-written segment and aborts *)
let test_window_abort () =
  let lz, eg = twins ~machine:zec12 ~opts:Rvm.Options.default in
  let in_window t =
    let htm = t.h.Heap.htm in
    Htm_sim.Htm.tbegin htm ~ctx:0 ~rollback:(fun _ -> ());
    let slot = alloc t in
    (try Htm_sim.Htm.tabort htm ~ctx:0 Htm_sim.Txn.Explicit
     with Htm_sim.Htm.Abort_now _ -> ());
    Htm_sim.Htm.clear_pending_abort htm 0;
    slot
  in
  let slot = in_window lz in
  Alcotest.(check int) "the window takes the same slot" (in_window eg) slot;
  Alcotest.(check bool) "the detached segment stays written" true
    (Heap.unwritten_from lz.h > slot);
  List.iter
    (fun addr -> same_cells "free-list cells after the abort" lz eg addr (addr + 1))
    (list_cells lz);
  same_cells "the slot's cells" lz eg slot (slot + Rvm.Layout.slot_cells);
  Alcotest.(check int) "the retry hands out the same slot" slot (alloc lz);
  Alcotest.(check int) "as it does eagerly" slot (alloc eg);
  same_store "after the retry" lz eg

(* (b) a sweep over a mostly unwritten arena *)
let test_sweep_unwritten () =
  let lz, eg = twins ~machine:zec12 ~opts:Rvm.Options.default in
  let slots = same_allocs "before the sweep" lz eg 600 in
  let roots = List.filteri (fun i _ -> i mod 3 = 0) slots in
  let sweep t =
    t.h.flush_locals ();
    ignore (Heap.gc_mark t.h (fun mark -> List.iter mark roots));
    Heap.gc_sweep t.h
  in
  let free = sweep lz in
  Alcotest.(check int) "the eager twin's free count" (sweep eg) free;
  Alcotest.(check int) "the sweep writes the arena out" max_int
    (Heap.unwritten_from lz.h);
  (* the chain runs through every free slot in address order *)
  let store = lz.h.Heap.store in
  let int_at a = match Store.get store a with Rvm.Value.VInt i -> i | _ -> -2 in
  let rec walk slot prev n =
    if slot = 0 then n
    else begin
      if slot <= prev then Alcotest.failf "chain goes back from %d to %d" prev slot;
      walk (int_at (slot + 1)) slot (n + 1)
    end
  in
  Alcotest.(check int) "the chain holds the free count" free
    (walk (int_at lz.h.Heap.g_free_head) 0 0);
  (* same head, chain order and segment overlay: the same cells *)
  same_store "after the sweep" lz eg;
  ignore (same_allocs "after the sweep" lz eg 1_000)

(* (c) growth while the boot arena has an unwritten tail *)
let test_growth_tail () =
  let lz, eg = twins ~machine:zec12 ~opts:Rvm.Options.default in
  ignore (same_allocs "before growth" lz eg 10);
  Alcotest.(check bool) "an unwritten tail" true (Heap.unwritten_from lz.h < lz.stop);
  Heap.add_arena lz.h 1_000;
  Heap.add_arena eg.h 1_000;
  Alcotest.(check int) "growth writes the tail first" max_int (Heap.unwritten_from lz.h);
  same_cells "after growth" lz eg 0 (Store.brk lz.h.Heap.store);
  ignore (same_allocs "after growth" lz eg 1_500);
  same_store "after growth" lz eg

(* The lazy sweeper's slot order is built on the first claim, not at boot,
   and survives mark phases until growth adds slots. *)
let test_lazy_order () =
  let opts = { Rvm.Options.default with lazy_sweep = true; heap_slots = 2_000 } in
  let t = boot ~machine:zec12 ~opts ~eager:false in
  Alcotest.(check int) "boot builds no order" 0 (Array.length t.h.Heap.lazy_slots);
  ignore (alloc t);
  let order = t.h.Heap.lazy_slots in
  Alcotest.(check int) "the first claim builds it" 2_000 (Array.length order);
  t.h.flush_locals ();
  ignore (Heap.run_mark_phase t.h t.th);
  for _ = 1 to 200 do
    ignore (alloc t)
  done;
  Alcotest.(check bool) "a mark phase keeps it" true (t.h.Heap.lazy_slots == order);
  Heap.add_arena t.h 500;
  t.h.flush_locals ();
  ignore (Heap.run_mark_phase t.h t.th);
  ignore (alloc t);
  Alcotest.(check int) "growth rebuilds it" 2_500 (Array.length t.h.Heap.lazy_slots)

let differential =
  List.map
    (fun (name, machine, opts) ->
      Alcotest.test_case ("on-demand arena = eager: " ^ name) `Quick
        (check_differential ~machine ~opts name))
    [
      ("zEC12", zec12, Rvm.Options.default);
      ("Xeon E3", Htm_sim.Machine.xeon_e3, Rvm.Options.default);
      ("cruby baseline", zec12, Rvm.Options.cruby_baseline);
      ("lazy sweep", zec12, { Rvm.Options.default with lazy_sweep = true });
    ]

let suite =
  [
    Alcotest.test_case "GC triggers under pressure" `Quick test_gc_triggers;
    Alcotest.test_case "GC preserves reachable objects" `Quick test_gc_preserves_reachable;
    Alcotest.test_case "heap grows when full of live data" `Quick test_heap_growth;
    Alcotest.test_case "strings valid across GC" `Quick test_string_reuse_after_gc;
    Alcotest.test_case "float boxes are reclaimed" `Quick test_free_list_boxes_reclaimed;
    Alcotest.test_case "thread-local free lists" `Quick test_thread_local_lists;
    prop_graph_survives;
    Alcotest.test_case "window abort on an unwritten segment" `Quick test_window_abort;
    Alcotest.test_case "sweep over an unwritten arena" `Quick test_sweep_unwritten;
    Alcotest.test_case "growth writes the unwritten tail" `Quick test_growth_tail;
    Alcotest.test_case "lazy-sweep order built on demand" `Quick test_lazy_order;
  ]
  @ differential
