(** The HTM engine. All guest memory accesses flow through {!read} and
    {!write}; conflict detection is eager and requester-wins at cache-line
    granularity, like the zEC12 and Haswell implementations the paper used.

    A transaction belongs to a hardware context. Aborting restores every
    written cell from the undo log, clears the footprint marks, invokes the
    rollback closure installed at {!tbegin} (the runner uses it to restore
    the owning thread's VM registers and account wasted cycles), and leaves
    a pending-abort flag for the owning scheme. *)

exception Abort_now of Txn.abort_reason
(** Raised when the current context's transaction dies mid-instruction
    (capacity overflow, explicit abort, predictor kill). Guest state has
    already been rolled back when it is raised. *)

type mode =
  | Htm_mode  (** transactions enabled *)
  | Plain  (** no transactions, no coherence charges (pure-GIL runs) *)
  | Coherent
      (** no transactions; contended lines cost transfer cycles (the
          fine-grained / free-parallel baselines of Figure 9) *)

type 'a t

type line_tables
(** The per-line read/write mark tables of a retired engine. *)

val create :
  ?mode:mode ->
  ?seed:int ->
  ?recycled:line_tables ->
  Machine.t ->
  'a Store.t ->
  'a t
(** [?recycled] are mark tables from {!retire}, reused (and grown if the
    store needs more lines) instead of allocated afresh.
    @raise Invalid_argument when the machine has more contexts than the
    per-line reader bitset holds, or the store's lines have more cells than
    a writer word can mark as undo-logged (each address is logged once per
    transaction). *)

val retire : 'a t -> line_tables
(** Hand the mark tables back for a later [create ~recycled], cleared of
    whatever live transactions still mark. The engine must not be used
    afterwards. *)

val stamp_epoch : 'a t -> int
(** Bumped whenever any line's version stamp changes (hardware commit
    stamping, committed writes, GV5 lazy stamps). The STM layer's read
    memo is valid only while this is unchanged. *)

val stats : 'a t -> Stats.t
val store : 'a t -> 'a Store.t
val machine : 'a t -> Machine.t

val set_occupied : 'a t -> int -> bool -> unit
(** Mark a hardware context as hosting a live software thread (SMT siblings
    halve each other's transactional capacity while occupied). *)

val in_txn : 'a t -> int -> bool
val active_count : 'a t -> int

val abort_line : 'a t -> int -> int
(** For conflict aborts: the cache line whose coherence traffic killed the
    context's last transaction, or [-1] when unknown (capacity, explicit and
    predictor aborts). Valid inside the rollback closure and until the next
    {!tbegin} on that context. *)

val txn_rs : 'a t -> int -> int
(** Read-set size, in distinct lines, of the context's current or
    just-aborted transaction (reset only at {!tbegin}, so the rollback
    closure can attribute footprints to abort events). *)

val txn_ws : 'a t -> int -> int
(** Write-set size, likewise. *)

val step_extra_cycles : 'a t -> int
(** Extra cycles accrued since the last reset; the runner charges them and
    {!step_accesses} to the current instruction, then calls
    {!reset_step_cost} (three calls, so the step loop allocates no pair). *)

val step_accesses : 'a t -> int
(** Store accesses accrued since the last reset (allocation-free). *)

val reset_step_cost : 'a t -> unit
(** Zero both step-cost accumulators. *)

val tbegin : 'a t -> ctx:int -> rollback:(Txn.abort_reason -> unit) -> unit
val tend : 'a t -> ctx:int -> unit

val tabort : 'a t -> ctx:int -> Txn.abort_reason -> 'b
(** Software abort (TABORT/XABORT). Always raises {!Abort_now}. *)

val pending_abort : 'a t -> int -> Txn.abort_reason option
val clear_pending_abort : 'a t -> int -> unit

val abort_at : 'a t -> ctx:int -> line:int -> Txn.abort_reason -> unit
(** Kill the context's own live hardware transaction with a line
    attribution, without raising (the lazy-subscription commit-point
    check runs host-side between instructions, so there is no
    interpreter frame to unwind). Counts a conflict against [line] when
    it is [>= 0]; no-op when no transaction is live. *)

val abort_all_hardware : ?except:int -> 'a t -> Txn.abort_reason -> unit
(** Abort every live hardware transaction (other than [except]'s): the
    [Subscription.Lazy_safe] GC quiesce, modeling Dice et al.'s explicit
    abort-speculative-readers extension. *)

val subscription : 'a t -> Subscription.t
val set_subscription : 'a t -> Subscription.t -> unit
(** The lock-word subscription policy for hardware windows. The runner
    issues (or defers) the subscribing reads; the engine records the
    policy so the GC quiesce protocol can consult it. [Eager] at
    creation. *)

val read : 'a t -> ctx:int -> int -> 'a
val write : 'a t -> ctx:int -> int -> 'a -> unit

(** {2 Software-transaction (STM) plumbing}

    The hybrid fallback's software TM lives a layer above this module; these
    entry points let it share the line tables so hardware and software
    transactions conflict-detect against each other. *)

val nontxn_read : 'a t -> ctx:int -> int -> 'a
(** The committed (non-transactional) read path: aborts any hardware writer
    of the line first. Does not count the access — callers that model a
    guest access use {!read}. *)

val nontxn_read_at : 'a t -> ctx:int -> id:int -> int -> 'a
(** {!nontxn_read} with the address's line id already in hand (callers
    holding a validated memo skip the recomputation). [id] must equal
    [Store.line_of store addr]. *)

val nontxn_write : 'a t -> ctx:int -> int -> 'a -> unit
(** The committed write path: aborts conflicting hardware transactions and,
    while any software transaction is live, stamps the line's version with a
    fresh commit-clock tick. STM commits publish their redo logs here. *)

val nontxn_write_lazy_stamp : 'a t -> ctx:int -> int -> 'a -> unit
(** The GV5 publication path: a committed write that stamps the line
    [commit_clock + 1] (max-guarded) {e without} bumping the clock —
    readers with the current snapshot pay a spurious validation failure,
    repaired by {!clock_advance}, in exchange for skipping the clock-cell
    write that kills subscribed hardware windows. *)

val commit_clock : 'a t -> int
(** Current global version clock (software transactions snapshot it). *)

val clock_advance : 'a t -> unit
(** Advance the engine's version clock by one without touching the store:
    the GV5 failure-driven catch-up bump. *)

val line_version : 'a t -> int -> int
(** Commit-clock stamp of the last committed write to a line. *)

val set_software_hooks :
  'a t ->
  read:(int -> int -> 'a) ->
  write:(int -> int -> 'a -> unit) ->
  track_read:(int -> int -> unit) ->
  abort:(int -> Txn.abort_reason -> unit) ->
  unit
(** Install the STM engine's access hooks ([ctx -> addr -> ...]); guest
    accesses from contexts flagged via {!set_software_active} are routed to
    them. [track_read] receives line ids from footprint-only touches;
    [abort] must roll the context's software transaction back and leave a
    pending abort. The first call allocates the per-line version table. *)

val set_software_active : 'a t -> int -> bool -> unit
(** Flag (or unflag) the context as inside a software transaction.
    @raise Invalid_argument when flagging before {!set_software_hooks}. *)

val software_active : 'a t -> int -> bool
val software_any_active : 'a t -> bool

val software_abort : 'a t -> int -> Txn.abort_reason -> 'b
(** Abort the context's software transaction via the installed hook. Always
    raises {!Abort_now}. *)

val abort_all_software : ?except:int -> 'a t -> Txn.abort_reason -> unit
(** Abort every live software transaction (other than [except]'s) via the
    installed hook. Called on GIL acquisition: the lock holder may mutate
    the store around the engine (GC), which software validation cannot
    observe, so no software transaction may stay live across it. *)

val add_step_cycles : 'a t -> int -> unit
(** Accrue extra cycles to the current instruction (STM instrumentation
    surcharges use this, like coherence transfers do internally). *)

val set_cur_ctx : 'a t -> int -> unit
(** Record the context whose instruction is being interpreted (the
    interpreter calls this once per bytecode). *)

val peek : 'a t -> int -> 'a
(** Engine-invisible fast-path read (method-dispatch header peeks): a plain
    store load, except that it routes through the redo log when the
    currently executing context is inside a software transaction. *)

val touch_read_range : 'a t -> ctx:int -> int -> int -> unit
(** Read-footprint touch of [len] cells from a base address, one access per
    line: models extension code scanning large buffers. *)

val touch_write_range : 'a t -> ctx:int -> int -> int -> unit
(** Write-footprint touch (one rewritten cell per line across the range). *)

val suspicion_level : 'a t -> int -> float
(** Current level of the Haswell learning predictor for a context. *)
