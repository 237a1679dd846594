(** The guest heap: a slot arena with a global free list (the paper's second
    conflict source), optional thread-local free lists with bulk segment
    refills (Section 4.4), stop-the-world mark-and-sweep GC that always runs
    with the GIL held, and a malloc area for array/string/hash payloads. *)

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
      (** reusable scratch for free-slot address runs (arena linking, sweep) *)
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

val malloc : t -> Vmthread.t -> int -> int
(** Allocate [n] payload cells (array/string/hash data). Thread-local
    chunked or a single global bump pointer per the options — the latter
    models z/OS's conflict-prone allocator. *)

val alloc_slot : t -> Vmthread.t -> class_id:int -> int
(** Allocate one object slot (8 cells) with its header initialised. Pops the
    thread-local free list when enabled, refilling a whole segment from the
    global list in bulk; triggers GC (under the GIL) when the heap is empty,
    aborting to the GIL fallback first if called inside a transaction. *)

val alloc_box : t -> Vmthread.t -> float_class_id:int -> Value.t -> unit
(** Allocation traffic for a boxed float result (CRuby 1.9 allocates a Float
    object per float arithmetic result); the box is immediately garbage. *)

val run_gc : t -> Vmthread.t -> int
(** Full mark-and-sweep on behalf of a thread; returns and charges the cycle
    cost. Caller must hold the GIL (no live transactions). *)

val add_arena : t -> int -> unit
val gc_mark : t -> ((int -> unit) -> unit) -> int
val gc_sweep : t -> int

val run_mark_phase : t -> Vmthread.t -> int
(** Lazy-sweep mode (Section 5.6's proposed thread-local sweeping): mark
    only; threads then reclaim garbage chunk by chunk via a shared cursor as
    they allocate. Requires the GIL. *)

val lazy_refill : t -> Vmthread.t -> bool
(** Claim and privately sweep the next arena chunk into the thread's local
    free list; false when the arena is fully swept since the last mark. *)
