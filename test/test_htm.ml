(* HTM engine: conflict detection, capacity aborts, footprint accounting,
   the Haswell learning predictor, and the SMT capacity halving. *)

open Htm_sim

let mk ?(machine = Machine.zec12) ?recycled () =
  let store = Store.create ~dummy:0 ~line_cells:machine.line_cells 4096 in
  let htm = Htm.create ?recycled machine store in
  (store, htm)

let begin_ htm ctx =
  Htm.set_occupied htm ctx true;
  Htm.tbegin htm ~ctx ~rollback:(fun _ -> ())

let test_write_write_conflict () =
  let store, htm = mk () in
  let a = Store.reserve_aligned store 64 in
  begin_ htm 0;
  Htm.write htm ~ctx:0 a 1;
  begin_ htm 1;
  (* requester wins: ctx 1's write to the same line aborts ctx 0 *)
  Htm.write htm ~ctx:1 a 2;
  Alcotest.(check bool) "victim aborted" false (Htm.in_txn htm 0);
  Alcotest.(check bool) "requester alive" true (Htm.in_txn htm 1);
  Alcotest.(check bool)
    "victim reason" true
    (Htm.pending_abort htm 0 = Some Txn.Conflict);
  (* ctx 0's write was rolled back before ctx 1 wrote *)
  Htm.tend htm ~ctx:1;
  Alcotest.(check int) "final value" 2 (Store.get store a)

let test_read_write_conflict () =
  let store, htm = mk () in
  let a = Store.reserve_aligned store 64 in
  Store.set store a 10;
  begin_ htm 0;
  Alcotest.(check int) "reads initial" 10 (Htm.read htm ~ctx:0 a);
  begin_ htm 1;
  Htm.write htm ~ctx:1 a 11;
  Alcotest.(check bool) "reader aborted" false (Htm.in_txn htm 0)

let test_writer_aborted_by_reader () =
  let store, htm = mk () in
  let a = Store.reserve_aligned store 64 in
  Store.set store a 5;
  begin_ htm 0;
  Htm.write htm ~ctx:0 a 6;
  begin_ htm 1;
  (* the read aborts the writer first, then observes the rolled-back value *)
  let v = Htm.read htm ~ctx:1 a in
  Alcotest.(check int) "sees pre-txn value" 5 v;
  Alcotest.(check bool) "writer aborted" false (Htm.in_txn htm 0)

let test_same_line_no_self_conflict () =
  let store, htm = mk () in
  let a = Store.reserve_aligned store 64 in
  begin_ htm 0;
  Htm.write htm ~ctx:0 a 1;
  Htm.write htm ~ctx:0 (a + 1) 2;
  Alcotest.(check int) "read own write" 1 (Htm.read htm ~ctx:0 a);
  Htm.tend htm ~ctx:0;
  Alcotest.(check int) "committed" 2 (Store.get store (a + 1))

let test_non_txn_write_aborts () =
  let store, htm = mk () in
  let a = Store.reserve_aligned store 64 in
  begin_ htm 0;
  ignore (Htm.read htm ~ctx:0 a);
  (* non-transactional write from another context (e.g. GIL acquisition) *)
  Htm.write htm ~ctx:1 a 9;
  Alcotest.(check bool) "subscriber aborted" false (Htm.in_txn htm 0);
  Alcotest.(check int) "write landed" 9 (Store.get store a)

let test_write_capacity () =
  let store, htm = mk () in
  let machine = Machine.zec12 in
  let region = Store.reserve_aligned store ((machine.ws_lines + 2) * machine.line_cells) in
  begin_ htm 0;
  let aborted = ref false in
  (try
     for i = 0 to machine.ws_lines + 1 do
       Htm.write htm ~ctx:0 (region + (i * machine.line_cells)) i
     done
   with Htm.Abort_now Txn.Overflow_write -> aborted := true);
  Alcotest.(check bool) "write-set overflow" true !aborted

let test_read_capacity_xeon_smt () =
  (* occupying the SMT sibling halves the budget *)
  let machine = Machine.xeon_e3 in
  let store = Store.create ~dummy:0 ~line_cells:machine.line_cells 4096 in
  let htm = Htm.create machine store in
  let region =
    Store.reserve_aligned store ((machine.ws_lines + 2) * machine.line_cells)
  in
  Htm.set_occupied htm 0 true;
  Htm.set_occupied htm 4 true;
  (* sibling of ctx 0 on a 4-core machine *)
  Htm.tbegin htm ~ctx:0 ~rollback:(fun _ -> ());
  let aborted = ref false in
  (try
     (* this fits in the full budget but not in the halved one *)
     for i = 0 to machine.ws_lines - 1 do
       Htm.write htm ~ctx:0 (region + (i * machine.line_cells)) i
     done
   with Htm.Abort_now Txn.Overflow_write -> aborted := true);
  Alcotest.(check bool) "halved budget aborts early" true !aborted;
  Alcotest.(check bool) "aborted" false (Htm.in_txn htm 0)

let test_learning_predictor () =
  let machine = Machine.xeon_e3 in
  let store = Store.create ~dummy:0 ~line_cells:machine.line_cells 4096 in
  let htm = Htm.create machine store in
  Htm.set_occupied htm 0 true;
  let region =
    Store.reserve_aligned store ((machine.ws_lines + 2) * machine.line_cells)
  in
  (* force a capacity abort: suspicion jumps to 1 *)
  Htm.tbegin htm ~ctx:0 ~rollback:(fun _ -> ());
  (try
     for i = 0 to machine.ws_lines + 1 do
       Htm.write htm ~ctx:0 (region + (i * machine.line_cells)) i
     done
   with Htm.Abort_now _ -> ());
  Alcotest.(check bool) "suspicion raised" true (Htm.suspicion_level htm 0 > 0.9);
  Htm.clear_pending_abort htm 0;
  (* suspicion decays per attempt *)
  for _ = 1 to 100 do
    Htm.tbegin htm ~ctx:0 ~rollback:(fun _ -> ());
    (try Htm.tend htm ~ctx:0 with Htm.Abort_now _ -> Htm.clear_pending_abort htm 0)
  done;
  Alcotest.(check bool) "suspicion decays" true (Htm.suspicion_level htm 0 < 1.0)

let test_stats () =
  let store, htm = mk () in
  let a = Store.reserve_aligned store 64 in
  begin_ htm 0;
  Htm.write htm ~ctx:0 a 1;
  Htm.tend htm ~ctx:0;
  let s = Htm.stats htm in
  Alcotest.(check int) "begins" 1 s.Stats.begins;
  Alcotest.(check int) "commits" 1 s.Stats.commits;
  Alcotest.(check int) "ws max" 1 s.Stats.ws_max

(* Undo-once: a window logs each address the first time it writes it, so a
   cell written three times still rolls back to its pre-window value, and
   so does a second cell of the same line written in between (each cell
   has its own logged bit). *)
let test_undo_once_rollback () =
  let store, htm = mk () in
  let a = Store.reserve_aligned store 64 in
  Store.set store a 7;
  Store.set store (a + 1) 8;
  begin_ htm 0;
  Htm.write htm ~ctx:0 a 1;
  Htm.write htm ~ctx:0 (a + 1) 10;
  Htm.write htm ~ctx:0 a 2;
  Htm.write htm ~ctx:0 (a + 1) 20;
  Htm.write htm ~ctx:0 a 3;
  Alcotest.(check int) "reads the last write" 3 (Htm.read htm ~ctx:0 a);
  (try Htm.tabort htm ~ctx:0 Txn.Explicit with Htm.Abort_now _ -> ());
  Alcotest.(check int) "pre-window value" 7 (Store.get store a);
  Alcotest.(check int) "same-line neighbour" 8 (Store.get store (a + 1))

(* The logged-cell bits belong to one window: after a commit, the next
   window on the same context must log the cell again, or its abort would
   leave its own writes behind. *)
let test_logged_cells_cleared_at_commit () =
  let store, htm = mk () in
  let a = Store.reserve_aligned store 64 in
  Store.set store a 7;
  begin_ htm 0;
  Htm.write htm ~ctx:0 a 10;
  Htm.tend htm ~ctx:0;
  begin_ htm 0;
  Htm.write htm ~ctx:0 a 20;
  Htm.write htm ~ctx:0 a 30;
  (try Htm.tabort htm ~ctx:0 Txn.Explicit with Htm.Abort_now _ -> ());
  Alcotest.(check int) "first window's value" 10 (Store.get store a)

(* A writer word carrying logged-cell bits still names its owner: another
   context's read of the line aborts the writer with a conflict on it and
   sees the rolled-back values. *)
let test_owner_decodes_under_logged_cells () =
  let store, htm = mk () in
  let a = Store.reserve_aligned store 64 in
  let line = Store.line_of store a in
  Store.set store (a + 5) 50;
  begin_ htm 0;
  Htm.write htm ~ctx:0 a 1;
  Htm.write htm ~ctx:0 (a + 5) 2;
  Htm.write htm ~ctx:0 (a + 5) 3;
  begin_ htm 1;
  Alcotest.(check int) "reader sees the old value" 50
    (Htm.read htm ~ctx:1 (a + 5));
  Alcotest.(check bool) "writer aborted" false (Htm.in_txn htm 0);
  Alcotest.(check bool)
    "conflict" true
    (Htm.pending_abort htm 0 = Some Txn.Conflict);
  Alcotest.(check int) "on the written line" line (Htm.abort_line htm 0);
  Alcotest.(check bool) "reader alive" true (Htm.in_txn htm 1)

(* The writer word packs the owning context and one logged bit per cell of
   the line, and contexts are bits of the reader bitset: [create] refuses
   machines that do not fit. *)
let test_create_rejects_unpackable () =
  let rejects name machine =
    let store =
      Store.create ~dummy:0 ~line_cells:machine.Machine.line_cells 4096
    in
    match Htm.create machine store with
    | _ -> Alcotest.failf "%s: accepted" name
    | exception Invalid_argument _ -> ()
  in
  rejects "512-byte lines" { Machine.zec12 with Machine.line_cells = 64 };
  rejects "64 contexts" { Machine.zec12 with Machine.n_cores = 64 }

(* Serializability on a shared counter: counters incremented under
   transactions with conflict-driven retries end with the exact total. *)
let prop_counter_serializable =
  Tutil.qtest "transactional counter is serializable" ~count:50
    QCheck.(pair (int_range 1 8) (int_range 1 40))
    (fun (n_ctx, increments) ->
      let machine = Machine.zec12 in
      let store = Store.create ~dummy:0 ~line_cells:machine.line_cells 4096 in
      let htm = Htm.create machine store in
      let cell = Store.reserve_aligned store 1 in
      Store.set store cell 0;
      let remaining = Array.make n_ctx increments in
      for c = 0 to n_ctx - 1 do
        Htm.set_occupied htm c true
      done;
      (* round-robin: each context repeatedly tries one increment *)
      let progress = ref true in
      while !progress do
        progress := false;
        for c = 0 to n_ctx - 1 do
          if remaining.(c) > 0 then begin
            progress := true;
            if Htm.pending_abort htm c <> None then Htm.clear_pending_abort htm c;
            if not (Htm.in_txn htm c) then
              Htm.tbegin htm ~ctx:c ~rollback:(fun _ -> ());
            try
              let v = Htm.read htm ~ctx:c cell in
              Htm.write htm ~ctx:c cell (v + 1);
              if Htm.in_txn htm c then begin
                Htm.tend htm ~ctx:c;
                remaining.(c) <- remaining.(c) - 1
              end
            with Htm.Abort_now _ -> Htm.clear_pending_abort htm c
          end
        done
      done;
      Store.get store cell = n_ctx * increments)

(* Mark pages retired while transactions are still live come back clean,
   whatever the line size of the machine that retires them and of the one
   that reuses them: a new engine marking the same line ids sees no phantom
   reader or writer, so nothing aborts, and no logged-cell bit makes a new
   window skip an undo entry. *)
let recycled_tables_clean ~from ~into =
  let store, htm = mk ~machine:from () in
  let a = Store.reserve_aligned store 64 in
  let b = Store.reserve_aligned store 64 in
  begin_ htm 0;
  Htm.write htm ~ctx:0 a 1;
  Htm.write htm ~ctx:0 (a + 1) 1;
  Htm.write htm ~ctx:0 a 2;
  begin_ htm 1;
  ignore (Htm.read htm ~ctx:1 b);
  let retired = Htm.retire htm in
  let la = Store.line_of store a and lb = Store.line_of store b in
  let store, htm = mk ~machine:into ~recycled:retired () in
  ignore (Store.reserve store ((lb + 1) * into.Machine.line_cells));
  let a = la * into.line_cells and b = lb * into.line_cells in
  (* a stale writer mark on [a]'s line would make ctx 1's read abort ctx 0,
     and a stale reader mark on [b]'s would make ctx 0's write abort ctx 1 *)
  begin_ htm 0;
  begin_ htm 1;
  ignore (Htm.read htm ~ctx:1 a);
  Htm.write htm ~ctx:0 b 2;
  Alcotest.(check int) "no aborts" 0 (Stats.aborts (Htm.stats htm));
  Alcotest.(check bool) "both windows live" true
    (Htm.in_txn htm 0 && Htm.in_txn htm 1);
  Htm.tend htm ~ctx:0;
  Htm.tend htm ~ctx:1;
  Store.set store (a + 1) 7;
  begin_ htm 0;
  Htm.write htm ~ctx:0 (a + 1) 8;
  (try Htm.tabort htm ~ctx:0 Txn.Explicit with Htm.Abort_now _ -> ());
  Alcotest.(check int) "a cell logged before retire is logged again" 7
    (Store.get store (a + 1));
  let retired = Htm.retired_pages retired in
  let again = Htm.retired_pages (Htm.retire htm) in
  Alcotest.(check bool) "the marks went to a retired page, not a fresh one"
    true
    (again <> [] && List.for_all (fun p -> List.memq p retired) again)

let test_recycled_tables_clean () =
  List.iter
    (fun (from, into) -> recycled_tables_clean ~from ~into)
    Machine.[ (zec12, zec12); (zec12, xeon_e3); (xeon_e3, zec12) ]

(* The line tables hold memory for the lines transactions touch, not for
   the store's span: windows that each write one line of one of four
   thread-stack reservations, out of 64, leave one private page per
   touched reservation. *)
let test_tables_follow_touched_lines () =
  let store = Store.create ~dummy:0 ~line_cells:Machine.zec12.line_cells 0 in
  let htm = Htm.create Machine.zec12 store in
  let stacks =
    Array.init 64 (fun _ -> Store.reserve_aligned store Rvm.Vmthread.stack_cells)
  in
  List.iter
    (fun i ->
      begin_ htm 0;
      Htm.write htm ~ctx:0 stacks.(i) i;
      Htm.tend htm ~ctx:0)
    [ 0; 21; 42; 63 ];
  let span_lines = Store.capacity store / Machine.zec12.line_cells in
  let pages = Htm.marked_pages htm in
  Alcotest.(check bool)
    (Printf.sprintf "%d private pages for 4 touched lines of a %d-line span"
       pages span_lines)
    true
    (pages >= 1 && pages <= 4)

let suite =
  [
    Alcotest.test_case "write-write conflict (requester wins)" `Quick
      test_write_write_conflict;
    Alcotest.test_case "read-write conflict" `Quick test_read_write_conflict;
    Alcotest.test_case "reader aborts writer, sees old value" `Quick
      test_writer_aborted_by_reader;
    Alcotest.test_case "own-line accesses don't self-abort" `Quick
      test_same_line_no_self_conflict;
    Alcotest.test_case "non-transactional write aborts subscribers" `Quick
      test_non_txn_write_aborts;
    Alcotest.test_case "write-set capacity abort" `Quick test_write_capacity;
    Alcotest.test_case "SMT halves capacity" `Quick test_read_capacity_xeon_smt;
    Alcotest.test_case "Haswell learning predictor" `Quick test_learning_predictor;
    Alcotest.test_case "stats accounting" `Quick test_stats;
    Alcotest.test_case "recycled mark tables are clean" `Quick
      test_recycled_tables_clean;
    Alcotest.test_case "tables follow touched lines" `Quick
      test_tables_follow_touched_lines;
    Alcotest.test_case "undo once: rollback to pre-window value" `Quick
      test_undo_once_rollback;
    Alcotest.test_case "undo once: logged cells cleared at commit" `Quick
      test_logged_cells_cleared_at_commit;
    Alcotest.test_case "undo once: owner decodes under logged cells" `Quick
      test_owner_decodes_under_logged_cells;
    Alcotest.test_case "create rejects unpackable machines" `Quick
      test_create_rejects_unpackable;
    prop_counter_serializable;
  ]
