(* Run-time configuration of the VM (field docs in options.mli): one switch
   for the conflict removals of Section 4.4, which the §5.4 ablation
   ("without the conflict removals, no acceleration") turns off as a
   package, plus the heap size, the allocation model and the Section 5.6
   and 7 variants. *)

type alloc = Slot_heap | Tlab | Tlab_counted

type t = {
  conflict_removal : bool;
  heap_slots : int;
  alloc : alloc;
  refcount_writes : bool;
  lazy_sweep : bool;
  seed : int;
}

(* The paper's tuned configuration: the conflict removals on, enlarged heap
   (they used 10,000,000 slots; we scale the simulation down 50x). *)
let default =
  {
    conflict_removal = true;
    heap_slots = 200_000;
    alloc = Slot_heap;
    refcount_writes = false;
    lazy_sweep = false;
    seed = 7;
  }

(* Original CRuby 1.9.3: no conflict removals, default small heap
   (10,000 slots in the paper, scaled down to keep GC frequency similar). *)
let cruby_baseline = { default with conflict_removal = false; heap_slots = 4_000 }
