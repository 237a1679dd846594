(* Undo-log fuzzing: random interleaved transactional reads, writes and
   aborts checked against a shadow store that only sees committed state.
   Any slip in the scratch-array undo log (ordering, truncation, reuse
   across transactions) shows up as a read returning the wrong value or as
   post-abort memory differing from the shadow. *)

open Htm_sim

let machine = { Machine.zec12 with name = "fuzz"; n_cores = 4; smt = 1 }
let n_ctx = 4
let region_lines = 12
let region_cells = region_lines * machine.Machine.line_cells

type oracle = {
  shadow : int array;  (* committed values, region-relative *)
  pend : (int, int) Hashtbl.t array;  (* ctx -> uncommitted writes *)
  in_txn : bool array;  (* driver's view; synced after every op *)
}

(* Any transaction the engine killed since the last sync loses its
   uncommitted writes. *)
let sync_aborts htm o =
  for c = 0 to n_ctx - 1 do
    if o.in_txn.(c) && not (Htm.in_txn htm c) then begin
      Hashtbl.reset o.pend.(c);
      o.in_txn.(c) <- false;
      Htm.clear_pending_abort htm c
    end
  done

let expected o ctx off =
  match Hashtbl.find_opt o.pend.(ctx) off with
  | Some v -> v
  | None -> o.shadow.(off)

let check_region step store region o =
  for off = 0 to region_cells - 1 do
    if Store.get store (region + off) <> o.shadow.(off) then
      Alcotest.failf
        "step %d: store[%d] = %d but the shadow (committed state) has %d" step
        off
        (Store.get store (region + off))
        o.shadow.(off)
  done

let run_fuzz ~seed ~steps () =
  let prng = Prng.create seed in
  let store = Store.create ~dummy:0 ~line_cells:machine.Machine.line_cells 64 in
  let htm = Htm.create machine store in
  let region = Store.reserve_aligned store region_cells in
  for ctx = 0 to n_ctx - 1 do
    Htm.set_occupied htm ctx true
  done;
  let o =
    {
      shadow = Array.make region_cells 0;
      pend = Array.init n_ctx (fun _ -> Hashtbl.create 64);
      in_txn = Array.make n_ctx false;
    }
  in
  let abort_all () =
    for ctx = 0 to n_ctx - 1 do
      if Htm.in_txn htm ctx then (
        try Htm.tabort htm ~ctx Explicit with Htm.Abort_now _ -> ())
    done;
    sync_aborts htm o
  in
  for step = 1 to steps do
    let ctx = Prng.int prng n_ctx in
    if Htm.pending_abort htm ctx <> None then Htm.clear_pending_abort htm ctx;
    let off = Prng.int prng region_cells in
    let v = Prng.int prng 10_000 in
    let roll = Prng.int prng 100 in
    if o.in_txn.(ctx) then begin
      if roll < 35 then begin
        match Htm.read htm ~ctx (region + off) with
        | got ->
            (* own pending write wins; everyone else's got rolled back
               before the read returned *)
            let want = expected o ctx off in
            sync_aborts htm o;
            if got <> want then
              Alcotest.failf "step %d: ctx %d read %d at %d, expected %d" step
                ctx got off want
        | exception Htm.Abort_now _ -> sync_aborts htm o
      end
      else if roll < 80 then begin
        (match Htm.write htm ~ctx (region + off) v with
        | () -> Hashtbl.replace o.pend.(ctx) off v
        | exception Htm.Abort_now _ -> ());
        sync_aborts htm o
      end
      else if roll < 92 then begin
        Htm.tend htm ~ctx;
        Hashtbl.iter (fun off v -> o.shadow.(off) <- v) o.pend.(ctx);
        Hashtbl.reset o.pend.(ctx);
        o.in_txn.(ctx) <- false;
        sync_aborts htm o
      end
      else begin
        (try Htm.tabort htm ~ctx Explicit with Htm.Abort_now _ -> ());
        sync_aborts htm o
      end
    end
    else if roll < 40 then begin
      Htm.tbegin htm ~ctx ~rollback:(fun _ -> ());
      o.in_txn.(ctx) <- true
    end
    else if roll < 70 then begin
      let got = Htm.read htm ~ctx (region + off) in
      sync_aborts htm o;
      if got <> o.shadow.(off) then
        Alcotest.failf "step %d: non-txn read %d at %d, expected %d" step got
          off o.shadow.(off)
    end
    else begin
      Htm.write htm ~ctx (region + off) v;
      sync_aborts htm o;
      o.shadow.(off) <- v
    end;
    (* periodically stop the world and compare memory exactly *)
    if step mod 1_000 = 0 then begin
      abort_all ();
      check_region step store region o
    end
  done;
  abort_all ();
  check_region steps store region o

let test_fuzz () =
  List.iter (fun seed -> run_fuzz ~seed ~steps:10_000 ()) [ 11; 22; 33 ]

(* Repeated writes to the same address inside one transaction: rollback
   must restore the pre-transaction value, not an intermediate one. *)
let test_multi_write_same_addr () =
  let store = Store.create ~dummy:0 ~line_cells:machine.Machine.line_cells 256 in
  let htm = Htm.create machine store in
  let a = Store.reserve_aligned store 64 in
  Htm.set_occupied htm 0 true;
  Store.set store a 7;
  Htm.tbegin htm ~ctx:0 ~rollback:(fun _ -> ());
  Htm.write htm ~ctx:0 a 100;
  Htm.write htm ~ctx:0 a 200;
  Htm.write htm ~ctx:0 a 300;
  Alcotest.(check int) "reads last write" 300 (Htm.read htm ~ctx:0 a);
  (try Htm.tabort htm ~ctx:0 Explicit with Htm.Abort_now _ -> ());
  Alcotest.(check int) "abort restores the pre-txn value" 7 (Store.get store a)

(* Steady state must not allocate: after a warmup transaction has grown the
   scratch arrays, further transactional accesses touch only preallocated
   int arrays. The budget absorbs the boxed floats Gc.minor_words returns. *)
let test_zero_alloc_steady_state () =
  let store = Store.create ~dummy:0 ~line_cells:machine.Machine.line_cells 4096 in
  let htm = Htm.create machine store in
  let region = Store.reserve_aligned store 1024 in
  Htm.set_occupied htm 0 true;
  let txns = 500 and writes = 64 in
  let loop () =
    for _ = 1 to txns do
      Htm.tbegin htm ~ctx:0 ~rollback:(fun _ -> ());
      for i = 0 to writes - 1 do
        Htm.write htm ~ctx:0 (region + (i * 8)) i
      done;
      for i = 0 to writes - 1 do
        ignore (Htm.read htm ~ctx:0 (region + (i * 8)))
      done;
      Htm.tend htm ~ctx:0
    done
  in
  loop ();
  let w0 = Gc.minor_words () in
  loop ();
  let w1 = Gc.minor_words () in
  let per_access = (w1 -. w0) /. float_of_int (txns * writes * 2) in
  if per_access > 0.01 then
    Alcotest.failf "transactional accesses allocate: %.5f minor words each"
      per_access

let suite =
  [
    Alcotest.test_case "fuzz: shadow-store oracle" `Quick test_fuzz;
    Alcotest.test_case "multi-write same address rollback" `Quick
      test_multi_write_same_addr;
    Alcotest.test_case "zero allocation in steady state" `Quick
      test_zero_alloc_steady_state;
  ]
