(* A word-based, TL2-style software transactional memory layered over the
   simulated store, the hybrid scheme's fallback for persistent/capacity
   hardware aborts.

   Writes are redo-logged (lazy versioning): an uncommitted software
   transaction never touches the store, so hardware transactions and
   GIL-holding threads can never observe speculative software state. Reads
   are invisible: instead of marking the shared line tables, each read
   validates the line's version stamp against the snapshot clock taken at
   begin ([rv]); a stamp above [rv] means the value was overwritten after
   the snapshot and the transaction aborts (this per-read check is what
   gives TL2 opacity — every value a live transaction has seen was current
   at time [rv]).

   Cross-detection with the hardware engine is two-way and reuses its line
   ids:
   - software reads go through [Htm.nontxn_read], so they abort (requester
     wins) any hardware transaction whose speculative write sits in the
     store line;
   - software commits publish their redo log through [Htm.nontxn_write],
     which aborts every hardware transaction holding the line and stamps
     the version table; they then bump a store-resident commit-clock cell
     that hardware transactions subscribe to like the GIL word;
   - hardware commits and plain (GIL) writes stamp the version table, which
     fails software validation on overlap.

   The interpreter executes whole bytecodes atomically in virtual time, so
   validate-then-apply at commit is atomic by construction: per-line commit
   locks are never observable and are represented only by the versioned
   stamps themselves.

   Everything on the hot path is flat int/value arrays with generation
   stamps (cleared in O(1) at begin), so steady-state transactional
   accesses allocate nothing. *)

open Htm_sim

type stats = {
  mutable begins : int;
  mutable commits : int;
  mutable read_only_commits : int;
  mutable aborts_validation : int;
  mutable aborts_conflict : int;  (** killed by a GIL acquisition *)
  mutable aborts_explicit : int;
  mutable accesses : int;
  mutable rs_total : int;  (** committed read-set lines *)
  mutable ws_total : int;  (** committed redo-log words *)
  mutable rs_max : int;
  mutable ws_max : int;
}

let stats_create () =
  {
    begins = 0;
    commits = 0;
    read_only_commits = 0;
    aborts_validation = 0;
    aborts_conflict = 0;
    aborts_explicit = 0;
    accesses = 0;
    rs_total = 0;
    ws_total = 0;
    rs_max = 0;
    ws_max = 0;
  }

let stats_aborts s = s.aborts_validation + s.aborts_conflict + s.aborts_explicit

let stats_to_assoc s =
  [
    ("begins", s.begins);
    ("commits", s.commits);
    ("read_only_commits", s.read_only_commits);
    ("aborts", stats_aborts s);
    ("aborts_validation", s.aborts_validation);
    ("aborts_conflict", s.aborts_conflict);
    ("aborts_explicit", s.aborts_explicit);
    ("accesses", s.accesses);
    ("rs_total", s.rs_total);
    ("ws_total", s.ws_total);
    ("rs_max", s.rs_max);
    ("ws_max", s.ws_max);
  ]

(* Per-context software transaction. The hash tables are open-addressing
   int arrays with generation stamps: a slot is live only if its gen equals
   the transaction's, so clearing is a single increment. *)
type 'a stx = {
  ctx : int;
  mutable active : bool;
  mutable rv : int;  (** snapshot of the commit clock at begin *)
  (* redo log in program order *)
  mutable w_addrs : int array;
  mutable w_vals : 'a array;
  mutable w_len : int;
  (* write lookup: addr -> redo index *)
  mutable wt_keys : int array;
  mutable wt_idx : int array;
  mutable wt_gen : int array;
  mutable wt_mask : int;
  (* read set: line ids (list for iteration, hash for dedupe) *)
  mutable r_lines : int array;
  mutable r_len : int;
  mutable rt_keys : int array;
  mutable rt_gen : int array;
  mutable rt_mask : int;
  mutable gen : int;
  mutable rollback : Txn.abort_reason -> unit;
  mutable pending_abort : Txn.abort_reason option;
  mutable abort_line : int;
  (* Read memo: the last line validated into this transaction's read set,
     as an address range. A hit is valid only while [memo_gen] equals the
     transaction's generation (same transaction, same [rv], line already
     in the read set) AND [memo_epoch] equals the engine's stamp epoch (no
     line version anywhere has changed, so the per-read validation outcome
     is unchanged) — then the read skips [Store.line_of], the version
     check and the read-set probe. The hardware-writer probe is NOT
     skippable (hardware transactions cannot see invisible reads), so a
     hit still goes through [Htm.nontxn_read_at]. *)
  mutable memo_lo : int;
  mutable memo_hi : int;
  mutable memo_line : int;
  mutable memo_gen : int;
  mutable memo_epoch : int;
}

let table_initial = 64

let stx_create ~dummy ctx =
  {
    ctx;
    active = false;
    rv = 0;
    w_addrs = Array.make table_initial 0;
    w_vals = Array.make table_initial dummy;
    w_len = 0;
    wt_keys = Array.make table_initial 0;
    wt_idx = Array.make table_initial 0;
    wt_gen = Array.make table_initial 0;
    wt_mask = table_initial - 1;
    r_lines = Array.make table_initial 0;
    r_len = 0;
    rt_keys = Array.make table_initial 0;
    rt_gen = Array.make table_initial 0;
    rt_mask = table_initial - 1;
    gen = 0;
    rollback = (fun _ -> ());
    pending_abort = None;
    abort_line = -1;
    memo_lo = max_int;
    memo_hi = -1;
    memo_line = -1;
    memo_gen = -1;
    memo_epoch = -1;
  }

type 'a t = {
  htm : 'a Htm.t;
  store : 'a Store.t;
  costs : Machine.costs;
  sxs : 'a stx array;
  clock_cell : int;
      (** store-resident commit clock: under the GV1 protocol every
          writing commit rewrites it, so hardware transactions subscribe
          to its line exactly as they subscribe to the GIL word; GV5
          commits leave it alone (see [Tm_clock]) *)
  bumps_cell : int;
      (** store-resident mirror of [Tm_clock.bumps], padded to its own
          line so reading the stat never shares a line with the clock
          itself (the stmx global-clock layout). Written with
          [Store.set_unsafe] — engine-invisible, never guest-read *)
  skipped_cell : int;  (** mirror of [Tm_clock.skipped], same padding *)
  clock : Tm_clock.t;
  mk_clock : int -> 'a;
  line_cells : int;  (** cells per store line, for the read-memo ranges *)
  stats : stats;
}

(* ---- hashing ------------------------------------------------------------ *)

let[@inline] slot_of key mask = ((key * 0x2545F4914F6CDD1D) lsr 32) land mask

(* ---- write-set lookup --------------------------------------------------- *)

(* Slot holding [addr], or the first empty slot (gen mismatch). *)
let[@inline] wt_probe (sx : 'a stx) addr =
  let mask = sx.wt_mask and keys = sx.wt_keys and gens = sx.wt_gen in
  let i = ref (slot_of addr mask) in
  while
    Array.unsafe_get gens !i = sx.gen && Array.unsafe_get keys !i <> addr
  do
    i := (!i + 1) land mask
  done;
  !i

let wt_grow (sx : 'a stx) =
  let cap = 2 * (sx.wt_mask + 1) in
  sx.wt_keys <- Array.make cap 0;
  sx.wt_idx <- Array.make cap 0;
  sx.wt_gen <- Array.make cap 0;
  sx.wt_mask <- cap - 1;
  (* re-key every live redo entry under the new mask *)
  for j = 0 to sx.w_len - 1 do
    let a = Array.unsafe_get sx.w_addrs j in
    let i = wt_probe sx a in
    sx.wt_keys.(i) <- a;
    sx.wt_idx.(i) <- j;
    sx.wt_gen.(i) <- sx.gen
  done

let redo_push (sx : 'a stx) addr v =
  let n = sx.w_len in
  if n = Array.length sx.w_addrs then begin
    let m = 2 * n in
    let addrs = Array.make m 0 in
    Array.blit sx.w_addrs 0 addrs 0 n;
    sx.w_addrs <- addrs;
    let vals = Array.make m sx.w_vals.(0) in
    Array.blit sx.w_vals 0 vals 0 n;
    sx.w_vals <- vals
  end;
  Array.unsafe_set sx.w_addrs n addr;
  Array.unsafe_set sx.w_vals n v;
  sx.w_len <- n + 1;
  n

(* ---- read-set tracking -------------------------------------------------- *)

let rt_grow (sx : 'a stx) =
  let cap = 2 * (sx.rt_mask + 1) in
  sx.rt_keys <- Array.make cap 0;
  sx.rt_gen <- Array.make cap 0;
  sx.rt_mask <- cap - 1;
  for j = 0 to sx.r_len - 1 do
    let id = Array.unsafe_get sx.r_lines j in
    let mask = sx.rt_mask in
    let i = ref (slot_of id mask) in
    while sx.rt_gen.(!i) = sx.gen do
      i := (!i + 1) land mask
    done;
    sx.rt_keys.(!i) <- id;
    sx.rt_gen.(!i) <- sx.gen
  done

(* Add a line to the read set; returns false if it was already present. *)
let rset_add (sx : 'a stx) id =
  let mask = sx.rt_mask and keys = sx.rt_keys and gens = sx.rt_gen in
  let i = ref (slot_of id mask) in
  while Array.unsafe_get gens !i = sx.gen && Array.unsafe_get keys !i <> id do
    i := (!i + 1) land mask
  done;
  if Array.unsafe_get gens !i = sx.gen then false
  else begin
    Array.unsafe_set keys !i id;
    Array.unsafe_set gens !i sx.gen;
    let n = sx.r_len in
    if n = Array.length sx.r_lines then begin
      let lines = Array.make (2 * n) 0 in
      Array.blit sx.r_lines 0 lines 0 n;
      sx.r_lines <- lines
    end;
    Array.unsafe_set sx.r_lines n id;
    sx.r_len <- n + 1;
    if 2 * (sx.r_len + 1) > sx.rt_mask + 1 then rt_grow sx;
    true
  end

(* ---- lifecycle ---------------------------------------------------------- *)

let in_txn t ctx = t.sxs.(ctx).active
let pending_abort t ctx = t.sxs.(ctx).pending_abort
let clear_pending_abort t ctx = t.sxs.(ctx).pending_abort <- None
let abort_line t ctx = t.sxs.(ctx).abort_line
let footprint t ctx =
  let sx = t.sxs.(ctx) in
  (sx.r_len, sx.w_len)

let stats t = t.stats
let clock_cell t = t.clock_cell
let bumps_cell t = t.bumps_cell
let skipped_cell t = t.skipped_cell
let clock t = t.clock

(* Abort: discard the redo log (a generation bump at the next begin), leave
   the reason for the owning scheme and restore the thread's registers via
   the rollback closure. Mirrors [Htm.abort_txn]; footprint counters stay
   readable until the next begin. *)
let abort_stx t (sx : 'a stx) ?(line = -1) reason =
  if sx.active then begin
    sx.active <- false;
    Htm.set_software_active t.htm sx.ctx false;
    (match reason with
    | Txn.Validation ->
        t.stats.aborts_validation <- t.stats.aborts_validation + 1;
        (* GV5's failure-driven catch-up: a validation failure may be the
           spurious kind (snapshot = clock, stamp = clock + 1); advancing
           the engine clock lets the retry begin at a snapshot that
           covers the stamp. Harmless when the failure was real — the
           clock is monotonic and no store cell moves. *)
        if Tm_clock.note_validation_failure t.clock then
          Htm.clock_advance t.htm
    | Txn.Explicit -> t.stats.aborts_explicit <- t.stats.aborts_explicit + 1
    | _ -> t.stats.aborts_conflict <- t.stats.aborts_conflict + 1);
    sx.pending_abort <- Some reason;
    sx.abort_line <- line;
    sx.rollback reason
  end

let abort t ~ctx ?line reason = abort_stx t t.sxs.(ctx) ?line reason

(* ---- guest accesses (installed as the engine's software hooks) ---------- *)

let sw_read t ctx addr =
  let sx = t.sxs.(ctx) in
  t.stats.accesses <- t.stats.accesses + 1;
  Htm.add_step_cycles t.htm t.costs.Machine.cyc_stm_access;
  let i = wt_probe sx addr in
  if Array.unsafe_get sx.wt_gen i = sx.gen then
    (* read-your-own-write from the redo log *)
    Array.unsafe_get sx.w_vals (Array.unsafe_get sx.wt_idx i)
  else if
    addr >= sx.memo_lo
    && addr <= sx.memo_hi
    && sx.memo_gen = sx.gen
    && sx.memo_epoch = Htm.stamp_epoch t.htm
  then
    (* memo hit: line already validated into the read set and no version
       stamp anywhere has moved since, so the version check would pass and
       [rset_add] would find the line present — only the hardware-writer
       probe (requester wins) must still run *)
    Htm.nontxn_read_at t.htm ~ctx ~id:sx.memo_line addr
  else begin
    (* requester wins: a hardware writer's speculative value must be rolled
       out of the store before we read it *)
    let v = Htm.nontxn_read t.htm ~ctx addr in
    let id = Store.line_of t.store addr in
    if Htm.line_version t.htm id > sx.rv then begin
      abort_stx t sx ~line:id Txn.Validation;
      raise (Htm.Abort_now Txn.Validation)
    end;
    ignore (rset_add sx id);
    let lo = id * t.line_cells in
    sx.memo_lo <- lo;
    sx.memo_hi <- lo + t.line_cells - 1;
    sx.memo_line <- id;
    sx.memo_gen <- sx.gen;
    sx.memo_epoch <- Htm.stamp_epoch t.htm;
    v
  end

let sw_write t ctx addr v =
  let sx = t.sxs.(ctx) in
  t.stats.accesses <- t.stats.accesses + 1;
  Htm.add_step_cycles t.htm t.costs.Machine.cyc_stm_access;
  let i = wt_probe sx addr in
  if Array.unsafe_get sx.wt_gen i = sx.gen then
    Array.unsafe_set sx.w_vals (Array.unsafe_get sx.wt_idx i) v
  else begin
    let j = redo_push sx addr v in
    (* redo_push may have run before a grow; re-probe after any resize *)
    if 2 * (sx.w_len + 1) > sx.wt_mask + 1 then wt_grow sx
    else begin
      Array.unsafe_set sx.wt_keys i addr;
      Array.unsafe_set sx.wt_idx i j;
      Array.unsafe_set sx.wt_gen i sx.gen
    end
  end

(* Footprint-only read tracking (touch ranges from extension code). *)
let sw_track_read t ctx id =
  let sx = t.sxs.(ctx) in
  if Htm.line_version t.htm id > sx.rv then begin
    abort_stx t sx ~line:id Txn.Validation;
    raise (Htm.Abort_now Txn.Validation)
  end;
  ignore (rset_add sx id)

let create ?(clock = Tm_clock.create Tm_clock.Gv1) ~(mk_clock : int -> 'a)
    htm =
  let store = Htm.store htm in
  let machine = Htm.machine htm in
  let n = max 1 (Machine.n_ctx machine) in
  (* one aligned reservation each: the clock cell and the two stat
     mirrors must never share a store line with each other (or anything
     else), so a stat read can never look like clock traffic *)
  let clock_cell = Store.reserve_aligned store 1 in
  Store.set store clock_cell (mk_clock 0);
  let bumps_cell = Store.reserve_aligned store 1 in
  Store.set store bumps_cell (mk_clock 0);
  let skipped_cell = Store.reserve_aligned store 1 in
  Store.set store skipped_cell (mk_clock 0);
  let t =
    {
      htm;
      store;
      costs = machine.Machine.costs;
      sxs = Array.init n (stx_create ~dummy:(Store.dummy store));
      clock_cell;
      bumps_cell;
      skipped_cell;
      clock;
      mk_clock;
      line_cells = machine.Machine.line_cells;
      stats = stats_create ();
    }
  in
  Htm.set_software_hooks htm ~read:(sw_read t) ~write:(sw_write t)
    ~track_read:(sw_track_read t)
    ~abort:(fun ctx reason -> abort_stx t t.sxs.(ctx) reason);
  t

let begin_ t ~ctx ~rollback =
  let sx = t.sxs.(ctx) in
  if sx.active then invalid_arg "Stm.begin_: nested software transaction";
  if Htm.in_txn t.htm ctx then
    invalid_arg "Stm.begin_: hardware transaction active on context";
  sx.active <- true;
  sx.gen <- sx.gen + 1;
  sx.w_len <- 0;
  sx.r_len <- 0;
  sx.rv <- Htm.commit_clock t.htm;
  sx.rollback <- rollback;
  sx.pending_abort <- None;
  sx.abort_line <- -1;
  Htm.set_software_active t.htm ctx true;
  t.stats.begins <- t.stats.begins + 1

(* Commit-time read-set validation: the failing line id, or -1 when the
   whole snapshot is still current. *)
let validate t ~ctx =
  let sx = t.sxs.(ctx) in
  let bad = ref (-1) in
  let i = ref 0 in
  while !bad < 0 && !i < sx.r_len do
    let id = Array.unsafe_get sx.r_lines !i in
    if Htm.line_version t.htm id > sx.rv then bad := id;
    incr i
  done;
  !bad

(* Publish the redo log. Caller has already validated (and, in the hybrid
   scheme, checked the GIL); the simulator interleaves whole bytecodes, so
   validate-then-apply is atomic in virtual time. Each [Htm.nontxn_write]
   aborts conflicting hardware transactions and stamps the version table;
   the final clock-cell write kills every subscribed hardware transaction,
   exactly like a GIL acquisition does. *)
let commit t ~ctx =
  let sx = t.sxs.(ctx) in
  if not sx.active then invalid_arg "Stm.commit: no software transaction";
  let s = t.stats in
  s.commits <- s.commits + 1;
  s.rs_total <- s.rs_total + sx.r_len;
  s.ws_total <- s.ws_total + sx.w_len;
  if sx.r_len > s.rs_max then s.rs_max <- sx.r_len;
  if sx.w_len > s.ws_max then s.ws_max <- sx.w_len;
  if sx.w_len = 0 then s.read_only_commits <- s.read_only_commits + 1
  else begin
    (match Tm_clock.effective t.clock with
    | Tm_clock.Gv1 ->
        for j = 0 to sx.w_len - 1 do
          Htm.nontxn_write t.htm ~ctx
            (Array.unsafe_get sx.w_addrs j)
            (Array.unsafe_get sx.w_vals j)
        done;
        Htm.nontxn_write t.htm ~ctx t.clock_cell
          (t.mk_clock (Htm.commit_clock t.htm));
        Tm_clock.note_cell_write t.clock;
        Store.set_unsafe t.store t.bumps_cell
          (t.mk_clock (Tm_clock.bumps t.clock))
    | Tm_clock.Gv5 ->
        (* GV5 publication: every line gets the [clock + 1] stamp and the
           clock-cell write is skipped entirely — no hardware window dies
           for a software commit it did not actually conflict with *)
        for j = 0 to sx.w_len - 1 do
          Htm.nontxn_write_lazy_stamp t.htm ~ctx
            (Array.unsafe_get sx.w_addrs j)
            (Array.unsafe_get sx.w_vals j)
        done;
        Tm_clock.note_skip t.clock;
        Store.set_unsafe t.store t.skipped_cell
          (t.mk_clock (Tm_clock.skipped t.clock))
    | Tm_clock.Gv6 -> assert false (* [effective] never answers Gv6 *));
    Tm_clock.note_commit t.clock
  end;
  sx.active <- false;
  Htm.set_software_active t.htm ctx false

(* ---- contention management ---------------------------------------------- *)

(* Per-site retry budgets, keyed like [Core.Txlen] by (code uid, pc) so the
   scheme can stop re-running windows that keep failing validation at the
   same bytecode. [punish] halves the budget (floored), [reward] creeps it
   back up; both are O(1) on flat int rows. *)
module Budget = struct
  let no_entry = min_int

  type t = {
    initial : int;
    min_budget : int;
    mutable entries : int array array;
  }

  let create ?(initial = 8) ?(min_budget = 1) () =
    { initial; min_budget; entries = Array.make 64 [||] }

  let ensure t uid pc =
    if uid >= Array.length t.entries then begin
      let m = max (2 * Array.length t.entries) (uid + 1) in
      let e = Array.make m [||] in
      Array.blit t.entries 0 e 0 (Array.length t.entries);
      t.entries <- e
    end;
    let row = t.entries.(uid) in
    if pc >= Array.length row then begin
      let m = max (2 * Array.length row) (pc + 1) in
      let r = Array.make m no_entry in
      Array.blit row 0 r 0 (Array.length row);
      t.entries.(uid) <- r
    end

  let allowed t ~uid ~pc =
    ensure t uid pc;
    let v = t.entries.(uid).(pc) in
    if v = no_entry then t.initial else v

  let punish t ~uid ~pc =
    ensure t uid pc;
    let v = allowed t ~uid ~pc in
    t.entries.(uid).(pc) <- max t.min_budget (v / 2)

  let reward t ~uid ~pc =
    ensure t uid pc;
    let v = allowed t ~uid ~pc in
    if v < t.initial then t.entries.(uid).(pc) <- v + 1

  (* (fraction of touched sites at the minimum budget, mean budget). *)
  let stats t =
    let n = ref 0 and at_min = ref 0 and total = ref 0 in
    Array.iter
      (fun row ->
        Array.iter
          (fun v ->
            if v <> no_entry then begin
              incr n;
              total := !total + v;
              if v <= t.min_budget then incr at_min
            end)
          row)
      t.entries;
    if !n = 0 then (0.0, float_of_int t.initial)
    else
      ( float_of_int !at_min /. float_of_int !n,
        float_of_int !total /. float_of_int !n )
end
