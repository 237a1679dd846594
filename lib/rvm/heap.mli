(** The guest heap: a slot arena with a global free list (the paper's second
    conflict source), thread-local free lists with bulk segment refills
    under the Section 4.4 conflict removals, stop-the-world mark-and-sweep
    GC that always runs with the GIL held, and a malloc area for
    array/string/hash payloads. *)

type frontier
(** How far the boot arena has been linked. {!create} reserves the arena
    but writes only the free-list head and count; the arena's free headers,
    chain links and segment overlay are written segment by segment as the
    allocator first reaches them ({!materialise_through}), with exactly the
    values an eager link of the whole arena writes. Host-side state: it
    only moves forward, never lives in the store, and no rollback undoes
    it. *)

type t = {
  store : Value.t Htm_sim.Store.t;
  htm : Value.t Htm_sim.Htm.t;
  opts : Options.t;
  classes : Klass.table;
  g_free_head : int;  (** store address of the free-list head cell *)
  g_free_count : int;
  g_malloc_ptr : int;
  g_malloc_end : int;
  mutable arenas : (int * int) list;
  mutable total_slots : int;
  mutable gc_roots : (int -> unit) -> unit;
  mutable flush_locals : unit -> unit;
  mutable gc_runs : int;
  mutable allocs : int;
  mutable refills : int;
  mutable slot_buf : int array;
      (** reusable scratch for free-slot address runs (growth, sweep) *)
  frontier : frontier;
  lazy_cursor : int;  (** shared sweep-cursor cell (lazy-sweep mode) *)
  mutable lazy_slots : int array;
  mutable tracer : Obs.Trace.t option;
      (** when set, GC pauses emit [Gc_start]/[Gc_end] trace events *)
  mutable gc_pause_hist : Obs.Metrics.histogram option;
      (** when set, every GC pause cost (cycles) is observed here *)
}

val create :
  Value.t Htm_sim.Store.t ->
  Value.t Htm_sim.Htm.t ->
  Options.t ->
  Klass.table ->
  t
(** Reserve the [heap_slots]-slot boot arena and write only the free-list
    head (its first slot) and count; see {!frontier}. *)

val malloc : t -> Vmthread.t -> int -> int
(** Allocate [n] payload cells (array/string/hash data). Under the conflict
    removals, requests smaller than a chunk come from a thread-local chunk
    (4,096 cells, or 256 on a machine without [malloc_thread_local], where
    z/OS HEAPPOOLS still conflicts); otherwise from the single global bump
    pointer, the original allocator's conflict point. *)

val alloc_slot : t -> Vmthread.t -> class_id:int -> int
(** Allocate one object slot (8 cells) with its header initialised. Under
    the conflict removals it pops the thread-local free list, refilling a
    whole segment from the global list in bulk; without them it pops the
    global list. Triggers GC (under the GIL) when the heap is empty,
    aborting to the GIL fallback first if called inside a transaction.
    Under the TLAB models it bump-allocates from malloc instead. *)

val alloc_box : t -> Vmthread.t -> float_class_id:int -> Value.t -> unit
(** Allocation traffic for a boxed float result (CRuby 1.9 allocates a Float
    object per float arithmetic result); the box is immediately garbage.
    JRuby boxes from its TLAB; the Java NPB does not box. *)

val run_gc : t -> Vmthread.t -> int
(** Full mark-and-sweep on behalf of a thread; returns and charges the cycle
    cost. Caller must hold the GIL (no live transactions). *)

val add_arena : t -> int -> unit
(** Grow the heap by [n] slots: the growth path, never the boot path.
    Writes out the rest of the boot arena first, then links the new arena
    eagerly in front of the current free-list head. Plain stores; under the
    GIL. *)

val materialise_through : t -> int -> unit
(** [materialise_through h addr] writes every not-yet-written boot-arena
    segment up to the one holding [addr], with plain boot-time stores. The
    allocator runs it before every engine read of a free-list cell, so each
    read and each undo-log capture sees the eagerly linked content.
    [materialise_through h max_int] writes out the whole arena. *)

val unwritten_from : t -> int
(** Address of the first boot-arena slot not yet written; [max_int] once
    the whole arena is. *)

val gc_mark : t -> ((int -> unit) -> unit) -> int
(** Mark every object reachable from the given roots; returns how many. *)

val gc_sweep : t -> int
(** Rebuild the free list from every unmarked slot; returns the free count.
    Slots past the frontier count as free without being read, and the
    whole arena is written afterwards. *)

val run_mark_phase : t -> Vmthread.t -> int
(** Lazy-sweep mode (Section 5.6's proposed thread-local sweeping): mark
    only; threads then reclaim garbage chunk by chunk via a shared cursor as
    they allocate. Requires the GIL. *)

val lazy_refill : t -> Vmthread.t -> bool
(** Claim and privately sweep the next arena chunk into the thread's local
    free list; false when the arena is fully swept since the last mark. *)
