(* Store and undo-log / rollback behaviour. *)

open Htm_sim

let machine = Machine.zec12

let mk () =
  let store = Store.create ~dummy:0 ~line_cells:machine.line_cells 256 in
  let htm = Htm.create machine store in
  (store, htm)

let test_reserve () =
  let store, _ = mk () in
  let a = Store.reserve store 10 in
  let b = Store.reserve store 5 in
  Alcotest.(check bool) "disjoint" true (b >= a + 10);
  Store.set store a 42;
  Alcotest.(check int) "roundtrip" 42 (Store.get store a)

let test_alignment () =
  let store, _ = mk () in
  ignore (Store.reserve store 3);
  let a = Store.reserve_aligned store 4 in
  Alcotest.(check int) "aligned" 0 (a mod machine.line_cells)

let test_bounds () =
  let store, _ = mk () in
  let a = Store.reserve store 4 in
  Alcotest.check_raises "oob get" (Invalid_argument "Store.get: address 999 out of bounds")
    (fun () -> ignore (Store.get store 999));
  ignore a

let test_growth () =
  let store, _ = mk () in
  let base = Store.reserve store 100_000 in
  Store.set store (base + 99_999) 7;
  Alcotest.(check int) "grown" 7 (Store.get store (base + 99_999))

(* The page size is private to the store; the first write to a fresh store
   makes exactly one page resident, which reveals it. *)
let page_cells =
  let s = Store.create ~dummy:0 ~line_cells:machine.line_cells 0 in
  Store.set s (Store.reserve s 1) 1;
  Store.resident_cells s

let test_page_straddle () =
  let store = Store.create ~dummy:(-1) ~line_cells:machine.line_cells 0 in
  let base = Store.reserve store (3 * page_cells) in
  let lo = base + page_cells - 3 and hi = base + (2 * page_cells) + 2 in
  for a = lo to hi do
    Store.set store a a
  done;
  for a = lo to hi do
    Alcotest.(check int) "written cell" a (Store.get store a)
  done;
  Alcotest.(check int) "below the run" (-1) (Store.get store (lo - 1));
  Alcotest.(check int) "above the run" (-1) (Store.get store (hi + 1));
  Alcotest.(check int) "three pages resident" (3 * page_cells)
    (Store.resident_cells store)

let all_dummy store ~from =
  let ok = ref true in
  for a = from to Store.brk store - 1 do
    if Store.get store a <> -1 then ok := false
  done;
  !ok

let test_unwritten_reads_dummy () =
  let store = Store.create ~dummy:(-1) ~line_cells:machine.line_cells 0 in
  let base = Store.reserve store (2 * page_cells) in
  Store.set store (base + 5) 5;
  Alcotest.(check bool) "before growth" true (all_dummy store ~from:(base + 6));
  ignore (Store.reserve store (8 * page_cells));
  Alcotest.(check bool) "after growth" true (all_dummy store ~from:(base + 6));
  Alcotest.(check int) "written cell survives growth" 5
    (Store.get store (base + 5));
  Alcotest.(check int) "only the written page is resident" page_cells
    (Store.resident_cells store)

let test_recycled_pages () =
  let store = Store.create ~dummy:(-1) ~line_cells:machine.line_cells 0 in
  let base = Store.reserve store (2 * page_cells) in
  for a = base to base + (2 * page_cells) - 1 do
    Store.set store a 7
  done;
  let retired = Store.retire store in
  Alcotest.(check int) "both written pages retired" 2 (List.length retired);
  Alcotest.check_raises "retired store is neutered"
    (Invalid_argument
       (Printf.sprintf "Store.get: address %d out of bounds" base))
    (fun () -> ignore (Store.get store base));
  let store =
    Store.create ~recycled:retired ~dummy:(-1) ~line_cells:machine.line_cells 0
  in
  let base = Store.reserve store page_cells in
  Store.set store (base + 1) 1;
  Alcotest.(check bool) "reused page reads as dummy" true
    (Store.get store base = -1 && all_dummy store ~from:(base + 2));
  let again = Store.retire store in
  Alcotest.(check bool) "the page was reused, not fresh" true
    (List.for_all (fun p -> List.memq p retired) again);
  Alcotest.(check int) "unused recycled pages are handed back" 2
    (List.length again)

let test_page_table_growth () =
  let store = Store.create ~dummy:0 ~line_cells:machine.line_cells 0 in
  let spans = ref [] in
  Store.set_on_grow store (fun span -> spans := span :: !spans);
  let c0 = Store.capacity store in
  ignore (Store.reserve store (c0 + 1));
  ignore (Store.reserve store c0);
  Alcotest.(check (list int)) "hook sees each new span" [ c0; 2 * c0; 4 * c0 ]
    (List.rev !spans);
  Alcotest.(check int) "capacity is the span" (4 * c0) (Store.capacity store);
  (* the engine's line tables follow the same growth *)
  let store, htm = mk () in
  let c0 = Store.capacity store in
  ignore (Store.reserve store (c0 + 1));
  ignore (Store.reserve store (2 * c0));
  let last = Store.brk store - 1 in
  Alcotest.(check bool) "two doublings" true (Store.capacity store = 4 * c0);
  Htm.write htm ~ctx:0 last 9;
  Alcotest.(check int) "non-transactional roundtrip" 9 (Htm.read htm ~ctx:0 last);
  Htm.set_occupied htm 0 true;
  Htm.set_occupied htm 1 true;
  Htm.tbegin htm ~ctx:0 ~rollback:(fun _ -> ());
  Htm.write htm ~ctx:0 last 10;
  Alcotest.(check int) "transactional read" 10 (Htm.read htm ~ctx:0 last);
  (* a plain read from another context conflicts on the last line *)
  Alcotest.(check int) "conflicting read sees the rolled-back value" 9
    (Htm.read htm ~ctx:1 last);
  Alcotest.(check int) "abort charged to the last line"
    (Store.line_of store last) (Htm.abort_line htm 0)

(* Untouched reservations cost no cells: 64 guest threads reserve a full
   frame stack each but write only its first page or so. *)
let spawn_join_64 =
  {|ths = []
t = 0
while t < 64
  ths << Thread.new do
    i = 0
    s = 0
    while i < 10
      s += i
      i += 1
    end
    s
  end
  t += 1
end
ths.each { |th| th.join }
puts ths.size|}

(* Measured: 66 pages for the 64 threads. Each thread writes the first
   page of its stack; the thread structs share pages, and the blocks'
   objects come from the boot arena, which is resident already. *)
let max_pages_per_thread = 2

let test_thread_stacks_stay_unbacked () =
  let cfg = Core.Runner.config machine in
  let t = Core.Runner.create cfg ~source:spawn_join_64 in
  let store = t.Core.Runner.vm.Rvm.Vm.store in
  let brk0 = Store.brk store and res0 = Store.resident_cells store in
  let r = Core.Runner.run t in
  Alcotest.(check string) "guest ran" "64\n" r.Core.Runner.output;
  let stacks = 64 * Rvm.Vmthread.stack_cells in
  Alcotest.(check bool) "brk grew by 64 stacks" true
    (Store.brk store - brk0 >= stacks);
  let pages = (Store.resident_cells store - res0) / page_cells in
  Alcotest.(check bool)
    (Printf.sprintf "%d resident pages <= %d per thread" pages
       max_pages_per_thread)
    true
    (pages <= 64 * max_pages_per_thread)

(* A transaction's writes are undone exactly on abort. *)
let prop_rollback =
  let open QCheck in
  Tutil.qtest "abort restores all cells" ~count:200
    (list (pair (int_bound 63) small_int))
    (fun writes ->
      let store, htm = mk () in
      let base = Store.reserve store 64 in
      List.iteri (fun i _ -> Store.set store (base + i mod 64) i) writes;
      let before = Array.init 64 (fun i -> Store.get store (base + i)) in
      Htm.set_occupied htm 0 true;
      Htm.tbegin htm ~ctx:0 ~rollback:(fun _ -> ());
      List.iter (fun (off, v) -> Htm.write htm ~ctx:0 (base + off) v) writes;
      (try Htm.tabort htm ~ctx:0 Txn.Explicit with Htm.Abort_now _ -> ());
      Array.to_list before
      = List.init 64 (fun i -> Store.get store (base + i)))

(* Committed writes persist. *)
let prop_commit =
  let open QCheck in
  Tutil.qtest "commit keeps all cells" ~count:200
    (list (pair (int_bound 63) small_int))
    (fun writes ->
      let store, htm = mk () in
      let base = Store.reserve store 64 in
      Htm.set_occupied htm 0 true;
      Htm.tbegin htm ~ctx:0 ~rollback:(fun _ -> ());
      List.iter (fun (off, v) -> Htm.write htm ~ctx:0 (base + off) v) writes;
      Htm.tend htm ~ctx:0;
      List.for_all
        (fun (off, v) ->
          (* the last write to each offset wins *)
          let last =
            List.fold_left
              (fun acc (o, v') -> if o = off then Some v' else acc)
              None writes
          in
          match last with Some l -> Store.get store (base + off) = l || v = l || true | None -> true)
        writes
      &&
      (* spot-check: final value of each touched cell equals the last write *)
      List.for_all
        (fun off ->
          let lasts = List.filter (fun (o, _) -> o = off) writes in
          match List.rev lasts with
          | (_, v) :: _ -> Store.get store (base + off) = v
          | [] -> true)
        (List.map fst writes))

let suite =
  [
    Alcotest.test_case "reserve/set/get" `Quick test_reserve;
    Alcotest.test_case "aligned reservation" `Quick test_alignment;
    Alcotest.test_case "bounds checking" `Quick test_bounds;
    Alcotest.test_case "growth" `Quick test_growth;
    Alcotest.test_case "page-straddling access" `Quick test_page_straddle;
    Alcotest.test_case "unwritten cells read as dummy" `Quick
      test_unwritten_reads_dummy;
    Alcotest.test_case "recycled pages read as dummy" `Quick test_recycled_pages;
    Alcotest.test_case "page-table growth" `Quick test_page_table_growth;
    Alcotest.test_case "thread stacks stay unbacked" `Quick
      test_thread_stacks_stay_unbacked;
    prop_rollback;
    prop_commit;
  ]
