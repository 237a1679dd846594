(* The HTM engine: all guest memory accesses flow through [read]/[write].
   Conflict detection is eager and requester-wins, at cache-line
   granularity, mirroring how both zEC12 and Haswell piggyback on the cache
   coherence protocol (Section 2.2 of the paper).

   The victim of a conflict is always suspended at a bytecode boundary
   (the simulation interleaves whole bytecodes), so its transaction can be
   rolled back immediately: undo log replayed, its registers restored via the
   rollback closure, and a pending-abort flag left for its scheme to handle
   at its next step.

   Per-line metadata lives in paged tables indexed by line id, paged the
   way the store is: a page table of [line_page_lines]-line pages in which
   every page nothing has marked is one shared clean page, never written,
   and the first mark on a page gives it an array of its own. So, like the
   hardware's read/write-set tracking, the tables hold memory for the
   lines transactions touch, not for the store's whole span, which grows
   with every thread a server spawns (a finished thread keeps its stack
   reservation). The page tables grow in lockstep with the store via its
   [set_on_grow] hook, which keeps the hot path free of bounds checks, hash
   lookups and allocation: a steady-state transactional access touches
   only unboxed int pages and the per-context scratch logs. Marked pages
   are clean again whenever no transaction is live, so [retire] can hand
   them to the next engine without a refill.

   A transaction undo-logs each address once: the line's writer word
   records which of its cells the owning window has already logged, so a
   repeated store to a cell costs the same membership check as the
   hardware's per-line write-set lookup and nothing more. *)

exception Abort_now of Txn.abort_reason
(** Raised when the *current* context's transaction dies mid-instruction
    (capacity, explicit abort, predictor kill). The interpreter unwinds to
    the instruction boundary; guest state has already been rolled back. *)

type mode =
  | Htm_mode  (** transactions enabled *)
  | Plain  (** no transactions, no coherence charges (GIL runs) *)
  | Coherent  (** no transactions; contended lines cost transfer cycles
                  (fine-grained / free-parallel runs for Figure 9) *)

type 'a t = {
  machine : Machine.t;
  store : 'a Store.t;
  mode : mode;
  (* paged per-line metadata: page tables indexed by [id lsr
     line_page_shift], each covering the store's capacity (see
     [grow_line_tables]). [last_writers] and [versions] exist only for the
     engines that read them and are empty otherwise. *)
  mutable marks : int array array;
      (** the mark tables, interleaved so one page fetch answers both
          checks: slot [reader_slot id] of a line's page is its reader
          bitset (ctx ids with the line in a read set), the next slot its
          writer word (-1, or the context with the line in its write set
          plus the cells that context has undo-logged, see [owner]).
          Unmarked pages are [clean_marks]. *)
  mutable free : int array list;
      (** clean mark pages from a retired engine, taken by first marks
          before any page is allocated *)
  mutable last_writers : int array array;
      (** per line, for the coherence cost model: the last writing
          context, or -1; [Coherent] engines only *)
  mutable versions : int array array;
      (** per line: commit-clock stamp of the last committed write, the
          TL2-style versioned-lock table software transactions validate
          against. Allocated by {!set_software_hooks}; stamped only while a
          software transaction is live ([sw_mask <> 0]); earlier writes are
          covered by the snapshot rule (a version below the read version is
          always consistent). *)
  mutable commit_clock : int;
      (** global version clock: bumped by every committed write visible to
          software transactions (non-transactional writes and hardware
          commits) while any software transaction is live *)
  (* software-transaction (STM) dispatch. The STM engine lives a layer above
     this module, so it installs closures; [sw_mask] is a bitset of contexts
     currently inside a software transaction. Accesses from those contexts
     are routed to the hooks instead of the plain non-transactional path. *)
  mutable subscription : Subscription.t;
      (** how hardware windows subscribe to the GIL/clock words; the
          runner sets it from its config at creation. [Eager] (the
          default) is pure bookkeeping here — the subscribing reads are
          issued by the runner — but [Lazy]/[Lazy_safe] gate the GC
          quiesce protocol a layer above, so the policy lives on the
          engine where both layers can see it *)
  mutable sw_mask : int;
  mutable sw_read : int -> int -> 'a;  (** ctx -> addr -> value *)
  mutable sw_write : int -> int -> 'a -> unit;
  mutable sw_track_read : int -> int -> unit;
      (** ctx -> line id: footprint-only read tracking (touch ranges) *)
  mutable sw_abort : int -> Txn.abort_reason -> unit;
      (** roll the context's software transaction back; must leave a pending
          abort for the owning scheme *)
  txns : 'a Txn.t array;
  mutable active : int;  (** number of live transactions *)
  occupied : bool array;  (** ctx hosts a live software thread *)
  suspicion : float array;  (** Haswell learning predictor, per core *)
  prng : Prng.t;
  stats : Stats.t;
  mutable step_extra_cycles : int;
      (** extra cycles accrued during the current instruction (coherence
          transfers); drained by the runner *)
  mutable step_accesses : int;  (** accesses during the current instruction *)
  mutable cur_ctx : int;
      (** context of the instruction currently being interpreted (the
          simulation interleaves whole bytecodes, so there is exactly one);
          lets {!peek} route engine-invisible fast-path reads through the
          executing context's redo log *)
  mutable fast : bool;
      (** cached [mode <> Coherent && active = 0 && sw_mask = 0]: no
          transaction is live anywhere and no coherence charges apply, so
          [read]/[write] reduce to counting the access and touching the
          store. Recomputed at every [active]/[sw_mask] transition. *)
  cell_mask : int;  (** [line_cells - 1]: an address's cell within its line *)
  mutable stamp_epoch : int;
      (** bumped whenever any line's version stamp changes (hardware
          commit stamping, committed writes, GV5 lazy stamps): the STM
          layer's read memo is valid only while this is unchanged *)
}

(* Writer words. A line's word is -1 while no transaction has it in its
   write set. Otherwise the owning context sits in the low [owner_bits]
   bits and, above them, bit [owner_bits + cell] is set once the owner's
   live window has undo-logged that cell of the line. Every release of
   ownership (commit, abort, [retire]) resets the word to -1, so the
   logged cells never outlive their window. *)
let owner_bits = 6
let owner_mask = (1 lsl owner_bits) - 1

(* Logged-cell bits stay below the sign bit, so an owned word is never
   negative and -1 stays the only "no writer" value. *)
let max_logged_cells = Sys.int_size - 1 - owner_bits

(* Contexts are bits of the reader bitset and must decode from a writer
   word: -1 decodes to [owner_mask], which this keeps out of the context
   range, so [owner w = ctx] needs no separate "unowned" test. *)
let max_contexts = min Sys.int_size owner_mask

let[@inline] owner w = w land owner_mask
let[@inline] logged_bit t addr = 1 lsl (owner_bits + (addr land t.cell_mask))

let[@inline] update_fast t =
  t.fast <- t.mode <> Coherent && t.active = 0 && t.sw_mask = 0

(* Line-table pages hold [line_page_lines] consecutive line ids. The shift
   is a constant, not derived from the machine's line size, so a page's
   layout is the same on every machine and a retired engine's pages fit
   the next engine whatever its lines. *)
let line_page_shift = 7
let line_page_lines = 1 lsl line_page_shift
let line_page_mask = line_page_lines - 1

(* The shared clean pages every untouched page-table slot points at.
   Nothing writes them, so every engine on every domain shares them. *)
let clean_marks =
  Array.init (2 * line_page_lines) (fun i -> if i land 1 = 0 then 0 else -1)

let zero_versions = Array.make line_page_lines 0
let no_last_writers = Array.make line_page_lines (-1)

let[@inline] marks_page t id = Array.unsafe_get t.marks (id lsr line_page_shift)

(* A line's reader bitset within its marks page; its writer word follows. *)
let[@inline] reader_slot id = (id land line_page_mask) lsl 1

let[@inline] writer_word t id =
  Array.unsafe_get (marks_page t id) (reader_slot id + 1)

(* First write to page [i] of a table: give it a copy of the clean page.
   Out of line so the mark and stamp sites stay small. *)
let[@inline never] own_page pages clean i =
  let page = Array.copy clean in
  Array.unsafe_set pages i page;
  page

(* First mark on page [i]: a retired engine's clean page when there is
   one, else a fresh copy. *)
let[@inline never] own_marks t i =
  match t.free with
  | page :: rest ->
      t.free <- rest;
      Array.unsafe_set t.marks i page;
      page
  | [] -> own_page t.marks clean_marks i

let grow_line_tables t cap_cells =
  let lines = Store.line_of t.store (max 1 cap_cells - 1) + 1 in
  let n = (lines + line_page_mask) lsr line_page_shift in
  let grow pages clean =
    let len = Array.length pages in
    if len >= n then pages
    else begin
      let b = Array.make n clean in
      Array.blit pages 0 b 0 len;
      b
    end
  in
  t.marks <- grow t.marks clean_marks;
  if t.mode = Coherent then t.last_writers <- grow t.last_writers no_last_writers;
  if Array.length t.versions > 0 then t.versions <- grow t.versions zero_versions

(* Mark pages handed from a retired engine to a new one, all clean. *)
type line_tables = int array list

let retired_pages tables = tables

let create ?(mode = Htm_mode) ?(recycled = []) machine store =
  let n = max 1 (Machine.n_ctx machine) in
  if n > max_contexts then
    invalid_arg
      (Printf.sprintf "Htm.create: %d contexts exceed the %d-bit reader bitset"
         n max_contexts);
  let line_cells = Store.line_cells store in
  if line_cells > max_logged_cells then
    invalid_arg
      (Printf.sprintf
         "Htm.create: a %d-cell line exceeds the %d logged-cell bits of a \
          writer word"
         line_cells max_logged_cells);
  let t =
    {
      machine;
      store;
      mode;
      subscription = Subscription.Eager;
      marks = [||];
      free = recycled;
      last_writers = [||];
      versions = [||];
      commit_clock = 0;
      sw_mask = 0;
      sw_read = (fun _ _ -> invalid_arg "Htm.sw_read: no STM installed");
      sw_write = (fun _ _ _ -> invalid_arg "Htm.sw_write: no STM installed");
      sw_track_read = (fun _ _ -> ());
      sw_abort = (fun _ _ -> ());
      txns = Array.init n (Txn.create ~dummy:(Store.dummy store));
      active = 0;
      occupied = Array.make n false;
      suspicion = Array.make n 0.0;
      prng = Prng.create 42;
      stats = Stats.create ();
      step_extra_cycles = 0;
      step_accesses = 0;
      cur_ctx = 0;
      fast = mode <> Coherent;
      cell_mask = line_cells - 1;
      stamp_epoch = 0;
    }
  in
  Store.set_on_grow store (grow_line_tables t);
  t

let stats t = t.stats
let store t = t.store
let machine t = t.machine
let set_occupied t ctx v = t.occupied.(ctx) <- v
let in_txn t ctx = t.txns.(ctx).active
let active_count t = t.active
let abort_line t ctx = t.txns.(ctx).abort_line
let subscription t = t.subscription
let set_subscription t s = t.subscription <- s

let stamp_epoch t = t.stamp_epoch

(* ---- software-transaction plumbing -------------------------------------- *)

let commit_clock t = t.commit_clock
let line_version t id =
  Array.unsafe_get
    (Array.unsafe_get t.versions (id lsr line_page_shift))
    (id land line_page_mask)

let[@inline] set_version t id v =
  let i = id lsr line_page_shift in
  let page = Array.unsafe_get t.versions i in
  let page =
    if page == zero_versions then own_page t.versions zero_versions i else page
  in
  Array.unsafe_set page (id land line_page_mask) v

(* The GV5 failure-driven catch-up: advance the engine's version clock
   without touching any store cell. Readers whose snapshot lagged behind
   a lazily stamped line re-begin at the caught-up clock and stop
   failing; no hardware window subscribes to a host integer, so nothing
   gets killed. *)
let clock_advance t = t.commit_clock <- t.commit_clock + 1

let set_software_hooks t ~read ~write ~track_read ~abort =
  if Array.length t.versions = 0 then
    t.versions <- Array.make (Array.length t.marks) zero_versions;
  t.sw_read <- read;
  t.sw_write <- write;
  t.sw_track_read <- track_read;
  t.sw_abort <- abort

let set_software_active t ctx v =
  (* every [sw_mask <> 0] path stamps [versions] unchecked *)
  if v && Array.length t.versions = 0 then
    invalid_arg "Htm.set_software_active: no STM installed";
  if v then t.sw_mask <- t.sw_mask lor (1 lsl ctx)
  else t.sw_mask <- t.sw_mask land lnot (1 lsl ctx);
  update_fast t

let software_active t ctx = t.sw_mask land (1 lsl ctx) <> 0
let software_any_active t = t.sw_mask <> 0

(* Software abort request (the STM counterpart of {!tabort}): the installed
   hook rolls the transaction back and leaves a pending abort; raising
   unwinds the interpreter to the instruction boundary either way. *)
let software_abort t ctx reason =
  t.sw_abort ctx reason;
  raise (Abort_now reason)

(* Kill every live software transaction except [except]'s. Called when the
   GIL is acquired: a software transaction live across an acquisition can
   never commit (the scheme's lock-dirty check refuses it), and letting it
   run as a zombie is unsafe because the GIL holder may mutate the store
   *around* the engine (GC's mark/sweep), which per-read validation cannot
   see. The hook clears each context's [sw_mask] bit, so iterate over a
   snapshot of the mask. *)
let abort_all_software ?(except = -1) t reason =
  let mask = t.sw_mask in
  if mask <> 0 then
    for ctx = 0 to Array.length t.txns - 1 do
      if ctx <> except && mask land (1 lsl ctx) <> 0 then t.sw_abort ctx reason
    done

let add_step_cycles t c = t.step_extra_cycles <- t.step_extra_cycles + c
let set_cur_ctx t ctx = t.cur_ctx <- ctx

(* Engine-invisible fast-path read (method-dispatch header peeks). A plain
   load is correct for hardware transactions — their speculative writes sit
   in the store — but a software transaction's writes live only in its redo
   log: an object allocated inside the current software transaction still
   has the free header in the store, so the peek must go through the hook
   (which also validates the read, preserving opacity). *)
let peek t addr =
  if t.sw_mask <> 0 && t.sw_mask land (1 lsl t.cur_ctx) <> 0 then
    t.sw_read t.cur_ctx addr
  else Store.get_unsafe t.store addr

(* Footprint of the context's transaction. rs/ws are reset only at the next
   tbegin, so this is still valid inside the rollback closure of an abort. *)
let txn_rs t ctx = t.txns.(ctx).Txn.rs
let txn_ws t ctx = t.txns.(ctx).Txn.ws

(* Split accessors so the runner's step loop never allocates a pair. *)
let step_extra_cycles t = t.step_extra_cycles
let step_accesses t = t.step_accesses

let reset_step_cost t =
  t.step_extra_cycles <- 0;
  t.step_accesses <- 0

(* Remove every mark this transaction left in the line tables. A marked
   line's page has an array of its own, so the clean page is never
   written. *)
let clear_marks t (txn : 'a Txn.t) =
  let mask = lnot (1 lsl txn.ctx) in
  let lines = txn.lines in
  for i = 0 to txn.lines_len - 1 do
    let id = Array.unsafe_get lines i in
    let page = marks_page t id and o = reader_slot id in
    let r = Array.unsafe_get page o in
    if r land mask <> r then Array.unsafe_set page o (r land mask);
    if owner (Array.unsafe_get page (o + 1)) = txn.ctx then
      Array.unsafe_set page (o + 1) (-1)
  done;
  txn.lines_len <- 0

(* Covers every transaction end — commit, explicit abort, and each
   conflict/capacity abort (all funnel through here). *)
let finish_txn t (txn : 'a Txn.t) =
  txn.active <- false;
  txn.undo_len <- 0;
  t.active <- t.active - 1;
  update_fast t

(* Abort [txn]: restore memory, clear footprint marks, restore the owning
   thread's registers, leave the reason for its scheme. [line] is the cache
   line whose conflict killed the transaction (-1 for capacity / explicit
   aborts); attribution hooks read it from the rollback closure. The undo
   log holds one entry per written address: the state before the
   transaction's first write to it. *)
let abort_txn ?(line = -1) t (txn : 'a Txn.t) reason =
  for i = txn.undo_len - 1 downto 0 do
    Store.set_unsafe t.store
      (Array.unsafe_get txn.undo_addrs i)
      (Array.unsafe_get txn.undo_vals i)
  done;
  clear_marks t txn;
  finish_txn t txn;
  Stats.record_abort t.stats reason;
  if t.machine.learning && Txn.is_persistent reason then
    t.suspicion.(txn.ctx) <- 1.0;
  txn.pending_abort <- Some reason;
  txn.abort_line <- line;
  txn.rollback reason

let pending_abort t ctx = t.txns.(ctx).pending_abort
let clear_pending_abort t ctx = t.txns.(ctx).pending_abort <- None

(* Kill [ctx]'s own live transaction with a line attribution but without
   raising: the lazy-subscription commit-point check runs host-side in
   the runner (not inside a guest instruction), so there is no
   interpreter frame to unwind. No-op when nothing is live. *)
let abort_at t ~ctx ~line reason =
  let txn = t.txns.(ctx) in
  if txn.active then abort_txn ~line t txn reason

(* Kill every live hardware transaction except [except]'s. The
   [Lazy_safe] GC quiesce: Dice et al.'s extension lets software
   explicitly doom every speculative window before the collector mutates
   the store around the engine, replacing the eager-subscription kills
   that Lazy turned off. *)
let abort_all_hardware ?(except = -1) t reason =
  if t.active > 0 then
    for ctx = 0 to Array.length t.txns - 1 do
      if ctx <> except && t.txns.(ctx).active then
        abort_txn t t.txns.(ctx) reason
    done

(* SMT siblings share the L1/store buffers, halving the footprint budget
   when both are occupied (Section 5.4). Mirrors [Machine.sibling_ctx] but
   stays option- and tuple-free: tbegin runs on the hot path, which must
   not allocate. *)
let[@inline] smt_capacity_shared t ctx =
  let m = t.machine in
  m.Machine.smt >= 2
  &&
  let other =
    if ctx < m.Machine.n_cores then ctx + m.Machine.n_cores
    else ctx - m.Machine.n_cores
  in
  other < Array.length t.occupied && t.occupied.(other)

let suspicion_decay_per_attempt = 0.99925

let tbegin t ~ctx ~rollback =
  if t.mode <> Htm_mode then invalid_arg "Htm.tbegin: transactions disabled";
  let txn = t.txns.(ctx) in
  if txn.active then invalid_arg "Htm.tbegin: nested transaction";
  let m = t.machine in
  let shared = smt_capacity_shared t ctx in
  let rs_limit = if shared then m.Machine.rs_lines / 2 else m.Machine.rs_lines in
  let ws_limit = if shared then m.Machine.ws_lines / 2 else m.Machine.ws_lines in
  txn.active <- true;
  txn.undo_len <- 0;
  txn.lines_len <- 0;
  txn.rs <- 0;
  txn.ws <- 0;
  txn.rs_limit <- rs_limit;
  txn.ws_limit <- ws_limit;
  txn.rollback <- rollback;
  txn.pending_abort <- None;
  txn.abort_line <- -1;
  t.active <- t.active + 1;
  update_fast t;
  t.stats.begins <- t.stats.begins + 1;
  if t.machine.learning then
    t.suspicion.(ctx) <- t.suspicion.(ctx) *. suspicion_decay_per_attempt

let tend t ~ctx =
  let txn = t.txns.(ctx) in
  if not txn.active then invalid_arg "Htm.tend: no transaction";
  let s = t.stats in
  s.commits <- s.commits + 1;
  s.rs_total <- s.rs_total + txn.rs;
  s.ws_total <- s.ws_total + txn.ws;
  if txn.rs > s.rs_max then s.rs_max <- txn.rs;
  if txn.ws > s.ws_max then s.ws_max <- txn.ws;
  (* a hardware commit makes its written lines visible: stamp them so live
     software transactions holding those lines in their read sets fail
     validation (one clock tick per commit) *)
  if t.sw_mask <> 0 && txn.ws > 0 then begin
    t.commit_clock <- t.commit_clock + 1;
    t.stamp_epoch <- t.stamp_epoch + 1;
    let c = t.commit_clock in
    for i = 0 to txn.lines_len - 1 do
      let id = Array.unsafe_get txn.lines i in
      if owner (writer_word t id) = txn.ctx then set_version t id c
    done
  end;
  clear_marks t txn;
  finish_txn t txn

let tabort t ~ctx reason =
  let txn = t.txns.(ctx) in
  if not txn.active then invalid_arg "Htm.tabort: no transaction";
  abort_txn t txn reason;
  raise (Abort_now reason)

(* Abort every transaction other than [ctx]'s that has a mark on [l]. The
   reader bitset is re-read after each victim abort because [clear_marks]
   mutates it. *)
let abort_conflicting t ~ctx ~id =
  let page = marks_page t id and o = reader_slot id in
  let w = Array.unsafe_get page (o + 1) in
  if w >= 0 && owner w <> ctx then
    abort_txn ~line:id t t.txns.(owner w) Conflict;
  if Array.unsafe_get page o land lnot (1 lsl ctx) <> 0 then
    for i = 0 to Array.length t.txns - 1 do
      if i <> ctx && Array.unsafe_get page o land (1 lsl i) <> 0 then
        abort_txn ~line:id t t.txns.(i) Conflict
    done

let charge_coherence t ~ctx ~id ~is_write =
  let i = id lsr line_page_shift and o = id land line_page_mask in
  let page = Array.unsafe_get t.last_writers i in
  let lw = Array.unsafe_get page o in
  if lw >= 0 && lw <> ctx then begin
    t.step_extra_cycles <- t.step_extra_cycles + t.machine.costs.cyc_line_transfer;
    t.stats.coherence_transfers <- t.stats.coherence_transfers + 1
  end;
  if is_write then begin
    let page =
      if page == no_last_writers then own_page t.last_writers no_last_writers i
      else page
    in
    Array.unsafe_set page o ctx
  end

(* Non-transactional read: aborts any hardware transaction that wrote the
   line (its speculative value sits in the store and must be rolled back
   before anyone else observes it), then reads. Shared by plain accesses and
   the STM engine's own reads; does not count the access (the public entry
   points do). *)
let nontxn_read_at t ~ctx ~id addr =
  t.stats.non_txn_accesses <- t.stats.non_txn_accesses + 1;
  if t.active > 0 then begin
    let w = writer_word t id in
    if w >= 0 && owner w <> ctx then
      abort_txn ~line:id t t.txns.(owner w) Conflict
  end;
  if t.mode = Coherent then charge_coherence t ~ctx ~id ~is_write:false;
  Store.get_unsafe t.store addr

let nontxn_read t ~ctx addr =
  nontxn_read_at t ~ctx ~id:(Store.line_of t.store addr) addr

(* Non-transactional (committed) write: aborts every conflicting hardware
   transaction and stamps the line's version so live software transactions
   validate against it. Also the path by which an STM commit publishes its
   redo log. *)
let nontxn_write t ~ctx addr v =
  t.stats.non_txn_accesses <- t.stats.non_txn_accesses + 1;
  let id = Store.line_of t.store addr in
  if t.active > 0 then abort_conflicting t ~ctx ~id;
  if t.mode = Coherent then charge_coherence t ~ctx ~id ~is_write:true;
  if t.sw_mask <> 0 then begin
    t.commit_clock <- t.commit_clock + 1;
    t.stamp_epoch <- t.stamp_epoch + 1;
    set_version t id t.commit_clock
  end;
  Store.set_unsafe t.store addr v

(* The GV5 publication path: like {!nontxn_write} but the line is stamped
   [clock + 1] without bumping the clock — the stmx GV5 protocol. The
   stamp is max-guarded so several skip-commits in a row keep the newest
   stamp; monotonicity ([stamp > clock >= any live snapshot]) preserves
   the TL2 invariant that a stale read always fails validation, at the
   price of spurious failures for readers whose snapshot equals the
   current clock (the failure-driven {!clock_advance} catches them up). *)
let nontxn_write_lazy_stamp t ~ctx addr v =
  t.stats.non_txn_accesses <- t.stats.non_txn_accesses + 1;
  let id = Store.line_of t.store addr in
  if t.active > 0 then abort_conflicting t ~ctx ~id;
  if t.mode = Coherent then charge_coherence t ~ctx ~id ~is_write:true;
  if t.sw_mask <> 0 then begin
    let stamp = t.commit_clock + 1 in
    if line_version t id < stamp then begin
      t.stamp_epoch <- t.stamp_epoch + 1;
      set_version t id stamp
    end
  end;
  Store.set_unsafe t.store addr v

(* A transactional read of a line: abort the line's writer (requester
   wins) and enter the line in the read set. A line we already wrote is in
   our store buffer, so reading it is free of coherence interaction. Shared
   by guest reads and footprint-only touches. *)
let[@inline] txn_read_line t (txn : 'a Txn.t) ~ctx ~id =
  let page = marks_page t id and o = reader_slot id in
  let w = Array.unsafe_get page (o + 1) in
  if owner w <> ctx then begin
    if w >= 0 then abort_txn ~line:id t t.txns.(owner w) Conflict;
    let bit = 1 lsl ctx in
    let r = Array.unsafe_get page o in
    if r land bit = 0 then begin
      if txn.rs >= txn.rs_limit then tabort t ~ctx Overflow_read;
      let page =
        if page == clean_marks then own_marks t (id lsr line_page_shift)
        else page
      in
      Array.unsafe_set page o (r lor bit);
      txn.rs <- txn.rs + 1;
      Txn.push_line txn id
    end
  end

let read_slow t ~ctx addr =
  let txn = t.txns.(ctx) in
  if txn.active then begin
    t.stats.txn_accesses <- t.stats.txn_accesses + 1;
    txn_read_line t txn ~ctx ~id:(Store.line_of t.store addr);
    Store.get_unsafe t.store addr
  end
  else if t.sw_mask land (1 lsl ctx) <> 0 then t.sw_read ctx addr
  else nontxn_read t ~ctx addr

let read t ~ctx addr =
  t.step_accesses <- t.step_accesses + 1;
  if t.fast then begin
    (* no transaction live anywhere, no coherence charges: the access is
       exactly a counted committed read ([read_slow] via [nontxn_read]
       with every branch statically false) *)
    t.stats.non_txn_accesses <- t.stats.non_txn_accesses + 1;
    Store.get_unsafe t.store addr
  end
  else read_slow t ~ctx addr

let write_slow t ~ctx addr v =
  let txn = t.txns.(ctx) in
  if txn.active then begin
    t.stats.txn_accesses <- t.stats.txn_accesses + 1;
    let id = Store.line_of t.store addr in
    let page = marks_page t id and o = reader_slot id in
    let w = Array.unsafe_get page (o + 1) in
    let bit = logged_bit t addr in
    if owner w = ctx then begin
      (* the line is in our write set: only a cell's first write this
         window pushes its old value *)
      if w land bit = 0 then begin
        Array.unsafe_set page (o + 1) (w lor bit);
        Txn.push_undo txn addr (Store.get_unsafe t.store addr)
      end
    end
    else begin
      abort_conflicting t ~ctx ~id;
      if txn.ws >= txn.ws_limit then tabort t ~ctx Overflow_write;
      (* Haswell learning predictor: while suspicious after recent
         capacity aborts, transactions that grow past half the budget are
         killed eagerly with probability equal to the current suspicion
         level (empirical behaviour from Figure 6a). *)
      if
        t.machine.learning
        && t.suspicion.(ctx) > 0.001
        && txn.ws >= txn.ws_limit / 2
        && Prng.float t.prng < t.suspicion.(ctx)
      then tabort t ~ctx Eager;
      let page =
        if page == clean_marks then own_marks t (id lsr line_page_shift)
        else page
      in
      Array.unsafe_set page (o + 1) (ctx lor bit);
      txn.ws <- txn.ws + 1;
      Txn.push_line txn id;
      Txn.push_undo txn addr (Store.get_unsafe t.store addr)
    end;
    Store.set_unsafe t.store addr v
  end
  else if t.sw_mask land (1 lsl ctx) <> 0 then t.sw_write ctx addr v
  else nontxn_write t ~ctx addr v

let write t ~ctx addr v =
  t.step_accesses <- t.step_accesses + 1;
  if t.fast then begin
    (* committed write with nothing to conflict with, no version to stamp
       ([write_slow] via [nontxn_write] with every branch statically
       false) *)
    t.stats.non_txn_accesses <- t.stats.non_txn_accesses + 1;
    Store.set_unsafe t.store addr v
  end
  else write_slow t ~ctx addr v

(* Footprint-only touches: used by "C extension" code (regex, database) to
   model scanning large buffers without materialising a value per cell. *)
let touch_read_range t ~ctx base len =
  if len > 0 then begin
    let first = Store.line_of t.store base
    and last = Store.line_of t.store (base + len - 1) in
    for id = first to last do
      let txn = t.txns.(ctx) in
      if txn.active then txn_read_line t txn ~ctx ~id
      else begin
        if t.active > 0 then begin
          let w = writer_word t id in
          if w >= 0 && owner w <> ctx then
            abort_txn ~line:id t t.txns.(owner w) Conflict
        end;
        if t.sw_mask land (1 lsl ctx) <> 0 then t.sw_track_read ctx id
      end
    done;
    t.step_accesses <- t.step_accesses + (1 + last - first)
  end

(* Write-footprint touch: one cell per line across the range. Used by
   extension code that fills large buffers. *)
let touch_write_range t ~ctx base len =
  if len > 0 then begin
    let first = Store.line_of t.store base
    and last = Store.line_of t.store (base + len - 1) in
    let line_cells = t.machine.line_cells in
    for id = first to last do
      let addr = max base (id * line_cells) in
      (* a software transaction must rewrite its own redo-log value, not the
         (older) store value, or the commit would undo its earlier write *)
      let v =
        if t.sw_mask land (1 lsl ctx) <> 0 then t.sw_read ctx addr
        else Store.get_unsafe t.store addr
      in
      write t ~ctx addr v
    done
  end

let suspicion_level t ctx = t.suspicion.(ctx)

let marked_pages t =
  let count pages clean =
    Array.fold_left (fun n p -> if p == clean then n else n + 1) 0 pages
  in
  count t.marks clean_marks
  + count t.versions zero_versions
  + count t.last_writers no_last_writers

(* Clear what live transactions still mark, so every marked page is clean,
   and neuter the engine: its pages, and the recycled ones it never needed,
   now belong to the next owner. *)
let retire t =
  Array.iter (fun (txn : 'a Txn.t) -> if txn.active then clear_marks t txn) t.txns;
  let pages =
    Array.fold_left
      (fun acc p -> if p == clean_marks then acc else p :: acc)
      t.free t.marks
  in
  t.marks <- [||];
  t.free <- [];
  pages
