(* Differential test of the flat-array HTM engine against a reference
   implementation that keeps per-line metadata in an [(int, line) Hashtbl.t]
   and per-transaction undo/mark association lists — the representation the
   engine used before the flat rewrite. Randomized workloads must produce
   identical read values, abort reasons, statistics and final memory. *)

open Htm_sim

(* Tight limits so overflow aborts fire; smt = 1 and learning off so the
   reference needn't model capacity halving or the abort predictor. *)
let machine =
  {
    Machine.zec12 with
    name = "diff";
    n_cores = 4;
    smt = 1;
    rs_lines = 6;
    ws_lines = 4;
  }

let n_ctx = 4
let region_lines = 16
let region_cells = region_lines * machine.Machine.line_cells

module Reference = struct
  exception Abort_now of Txn.abort_reason

  type line = { mutable readers : int; mutable writer : int }

  type txn = {
    mutable active : bool;
    mutable undo : (int * int) list;  (* newest first *)
    mutable marks : int list;
    mutable rs : int;
    mutable ws : int;
    mutable pending : Txn.abort_reason option;
  }

  type t = {
    mem : int array;  (* region-relative addresses *)
    lines : (int, line) Hashtbl.t;
    txns : txn array;
    stats : Stats.t;
  }

  let create () =
    {
      mem = Array.make region_cells 0;
      lines = Hashtbl.create 64;
      txns =
        Array.init n_ctx (fun _ ->
            {
              active = false;
              undo = [];
              marks = [];
              rs = 0;
              ws = 0;
              pending = None;
            });
      stats = Stats.create ();
    }

  let line t id =
    match Hashtbl.find_opt t.lines id with
    | Some l -> l
    | None ->
        let l = { readers = 0; writer = -1 } in
        Hashtbl.add t.lines id l;
        l

  let line_of addr = addr / machine.Machine.line_cells
  let any_active t = Array.exists (fun x -> x.active) t.txns

  let clear_marks t ctx =
    let txn = t.txns.(ctx) in
    List.iter
      (fun id ->
        let l = line t id in
        l.readers <- l.readers land lnot (1 lsl ctx);
        if l.writer = ctx then l.writer <- -1)
      txn.marks;
    txn.marks <- []

  (* Newest-first replay, like the engine: the oldest value lands last. *)
  let abort_txn t ctx reason =
    let txn = t.txns.(ctx) in
    List.iter (fun (addr, v) -> t.mem.(addr) <- v) txn.undo;
    txn.undo <- [];
    clear_marks t ctx;
    txn.active <- false;
    Stats.record_abort t.stats reason;
    txn.pending <- Some reason

  let tbegin t ctx =
    let txn = t.txns.(ctx) in
    txn.active <- true;
    txn.undo <- [];
    txn.marks <- [];
    txn.rs <- 0;
    txn.ws <- 0;
    txn.pending <- None;
    t.stats.begins <- t.stats.begins + 1

  let tend t ctx =
    let txn = t.txns.(ctx) in
    let s = t.stats in
    s.commits <- s.commits + 1;
    s.rs_total <- s.rs_total + txn.rs;
    s.ws_total <- s.ws_total + txn.ws;
    if txn.rs > s.rs_max then s.rs_max <- txn.rs;
    if txn.ws > s.ws_max then s.ws_max <- txn.ws;
    clear_marks t ctx;
    txn.active <- false;
    txn.undo <- []

  let tabort t ctx reason =
    abort_txn t ctx reason;
    raise (Abort_now reason)

  let abort_conflicting t ctx id =
    let l = line t id in
    if l.writer >= 0 && l.writer <> ctx then abort_txn t l.writer Conflict;
    if l.readers land lnot (1 lsl ctx) <> 0 then
      for i = 0 to n_ctx - 1 do
        if i <> ctx && l.readers land (1 lsl i) <> 0 then
          abort_txn t i Conflict
      done

  let read t ctx addr =
    let txn = t.txns.(ctx) in
    if txn.active then begin
      t.stats.txn_accesses <- t.stats.txn_accesses + 1;
      let id = line_of addr in
      let l = line t id in
      if l.writer <> ctx then begin
        if l.writer >= 0 then abort_txn t l.writer Conflict;
        let bit = 1 lsl ctx in
        if l.readers land bit = 0 then begin
          if txn.rs >= machine.Machine.rs_lines then
            tabort t ctx Overflow_read;
          l.readers <- l.readers lor bit;
          txn.rs <- txn.rs + 1;
          txn.marks <- id :: txn.marks
        end
      end;
      t.mem.(addr)
    end
    else begin
      t.stats.non_txn_accesses <- t.stats.non_txn_accesses + 1;
      if any_active t then begin
        let l = line t (line_of addr) in
        if l.writer >= 0 && l.writer <> ctx then abort_txn t l.writer Conflict
      end;
      t.mem.(addr)
    end

  let write t ctx addr v =
    let txn = t.txns.(ctx) in
    if txn.active then begin
      t.stats.txn_accesses <- t.stats.txn_accesses + 1;
      let id = line_of addr in
      let l = line t id in
      if l.writer <> ctx then begin
        abort_conflicting t ctx id;
        if txn.ws >= machine.Machine.ws_lines then
          tabort t ctx Overflow_write;
        l.writer <- ctx;
        txn.ws <- txn.ws + 1;
        txn.marks <- id :: txn.marks
      end;
      txn.undo <- (addr, t.mem.(addr)) :: txn.undo;
      t.mem.(addr) <- v
    end
    else begin
      t.stats.non_txn_accesses <- t.stats.non_txn_accesses + 1;
      if any_active t then abort_conflicting t ctx (line_of addr);
      t.mem.(addr) <- v
    end
end

type outcome = Value of int | Unit | Aborted of Txn.abort_reason

let run_real htm region op ctx off v =
  try
    match op with
    | `Read -> Value (Htm.read htm ~ctx (region + off))
    | `Write ->
        Htm.write htm ~ctx (region + off) v;
        Unit
    | `Begin ->
        Htm.tbegin htm ~ctx ~rollback:(fun _ -> ());
        Unit
    | `End ->
        Htm.tend htm ~ctx;
        Unit
    | `Abort -> Htm.tabort htm ~ctx Explicit
  with Htm.Abort_now r -> Aborted r

let run_ref r op ctx off v =
  try
    match op with
    | `Read -> Value (Reference.read r ctx off)
    | `Write ->
        Reference.write r ctx off v;
        Unit
    | `Begin ->
        Reference.tbegin r ctx;
        Unit
    | `End ->
        Reference.tend r ctx;
        Unit
    | `Abort -> Reference.tabort r ctx Explicit
  with Reference.Abort_now reason -> Aborted reason

let outcome_str = function
  | Value v -> Printf.sprintf "value %d" v
  | Unit -> "unit"
  | Aborted r -> "aborted " ^ Txn.reason_to_string r

let check_states step htm (r : Reference.t) =
  for c = 0 to n_ctx - 1 do
    if Htm.in_txn htm c <> r.txns.(c).active then
      Alcotest.failf "step %d: ctx %d active mismatch" step c;
    if Htm.pending_abort htm c <> r.txns.(c).pending then
      Alcotest.failf "step %d: ctx %d pending-abort mismatch" step c
  done

let run_differential ~seed ~steps () =
  let prng = Prng.create seed in
  (* A deliberately tiny initial store: reserving the region forces growth,
     exercising the line tables' lockstep [set_on_grow] resizing. *)
  let store = Store.create ~dummy:0 ~line_cells:machine.Machine.line_cells 64 in
  let htm = Htm.create machine store in
  let region = Store.reserve_aligned store region_cells in
  for ctx = 0 to n_ctx - 1 do
    Htm.set_occupied htm ctx true
  done;
  let r = Reference.create () in
  for step = 1 to steps do
    let ctx = Prng.int prng n_ctx in
    (* a scheme would consume the abort before the thread resumes *)
    if Htm.pending_abort htm ctx <> None then begin
      Htm.clear_pending_abort htm ctx;
      r.Reference.txns.(ctx).pending <- None
    end;
    let off = Prng.int prng region_cells in
    let v = Prng.int prng 10_000 in
    let roll = Prng.int prng 100 in
    let op =
      if Htm.in_txn htm ctx then
        if roll < 40 then `Read
        else if roll < 80 then `Write
        else if roll < 94 then `End
        else `Abort
      else if roll < 30 then `Begin
      else if roll < 65 then `Read
      else `Write
    in
    let a = run_real htm region op ctx off v in
    let b = run_ref r op ctx off v in
    if a <> b then
      Alcotest.failf "step %d: ctx %d outcome mismatch: engine %s, reference %s"
        step ctx (outcome_str a) (outcome_str b);
    check_states step htm r
  done;
  (* wind down: abort whatever is still running, then memory must agree *)
  for ctx = 0 to n_ctx - 1 do
    if Htm.in_txn htm ctx then begin
      (try ignore (Htm.tabort htm ~ctx Explicit : outcome)
       with Htm.Abort_now _ -> ());
      try Reference.tabort r ctx Explicit
      with Reference.Abort_now _ -> ()
    end
  done;
  for off = 0 to region_cells - 1 do
    if Store.get store (region + off) <> r.Reference.mem.(off) then
      Alcotest.failf "final memory differs at offset %d" off
  done;
  let s = Htm.stats htm and e = r.Reference.stats in
  let check name a b = Alcotest.(check int) name b a in
  check "begins" s.Stats.begins e.Stats.begins;
  check "commits" s.Stats.commits e.Stats.commits;
  check "aborts_conflict" s.Stats.aborts_conflict e.Stats.aborts_conflict;
  check "aborts_overflow_read" s.Stats.aborts_overflow_read
    e.Stats.aborts_overflow_read;
  check "aborts_overflow_write" s.Stats.aborts_overflow_write
    e.Stats.aborts_overflow_write;
  check "aborts_explicit" s.Stats.aborts_explicit e.Stats.aborts_explicit;
  check "txn_accesses" s.Stats.txn_accesses e.Stats.txn_accesses;
  check "non_txn_accesses" s.Stats.non_txn_accesses e.Stats.non_txn_accesses;
  check "rs_total" s.Stats.rs_total e.Stats.rs_total;
  check "ws_total" s.Stats.ws_total e.Stats.ws_total;
  check "rs_max" s.Stats.rs_max e.Stats.rs_max;
  check "ws_max" s.Stats.ws_max e.Stats.ws_max

(* The engine must match the Hashtbl reference, which logs every write,
   on every per-step outcome, in-transaction state, pending-abort reason,
   final memory and stat. *)
let test_differential () =
  List.iter
    (fun seed -> run_differential ~seed ~steps:4_000 ())
    [ 1; 2; 3; 4; 5 ]

let suite =
  [
    Alcotest.test_case "flat engine matches Hashtbl reference" `Quick
      test_differential;
  ]
