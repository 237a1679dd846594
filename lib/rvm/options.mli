(** Run-time configuration of the VM: one switch for the paper's Section 4.4
    conflict removals (the Section 5.4 ablation turns them off together),
    the heap size, the allocation model and two variants the paper
    argues about (Sections 5.6 and 7). *)

type alloc =
  | Slot_heap
      (** CRuby: objects come off the free lists and the GC reclaims them;
          boxed float results allocate a slot each *)
  | Tlab
      (** Figure 9's Java NPB: JVM-style bump allocation from the thread's
          malloc chunk, never collected; float results stay unboxed *)
  | Tlab_counted
      (** Figure 9's JRuby: [Tlab] plus shared object-space accounting that
          every allocation and every 64th boxed float touches *)

type t = {
  conflict_removal : bool;
      (** The Section 4.4 removals as one package: the running thread is
          published in thread-local storage instead of a global (#1);
          threads allocate from thread-local free lists refilled a segment
          at a time (#2); method inline caches are filled only once and
          instance-variable caches guard on the ivar table, not the class
          (#4); small mallocs come from a thread-local chunk (HEAPPOOLS).
          The enlarged heap (#3) is [heap_slots]. *)
  heap_slots : int;
      (** initial heap size in slots (RUBY_HEAP_MIN_SLOTS analogue) *)
  alloc : alloc;  (** set by the scheme, see [Core.Scheme.adjust_options] *)
  refcount_writes : bool;
      (** CPython-style INCREF/DECREF on every dispatch: reproduces the
          paper's Section 7 point that reference counting defeats HTM GIL
          elision without RETCON-style hardware help *)
  lazy_sweep : bool;
      (** Section 5.6's proposed fix for allocation conflicts: threads claim
          arena chunks through a shared cursor and sweep them privately *)
  seed : int;  (** guest PRNG seed *)
}

val default : t
(** The paper's tuned configuration: the conflict removals on, a
    200,000-slot heap, slot allocation. *)

val cruby_baseline : t
(** Original CRuby 1.9.3: [default] without the conflict removals and with
    a 4,000-slot heap. *)
