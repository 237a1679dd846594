(** Run-time configuration of the VM: the conflict-removal switches of the
    paper's Section 4.4 plus sizing knobs, each independently toggleable so
    the Section 5.4 ablations can be reproduced. *)

type ivar_guard =
  | Class_equality  (** original CRuby inline-cache guard *)
  | Table_equality  (** the paper's fix: guard on the ivar-table identity *)

type t = {
  float_boxing : bool;
      (** CRuby 1.9 allocates a Float object per float result — the dominant
          allocation traffic in the NPB *)
  thread_local_free_lists : bool;  (** Section 4.4 conflict removal #2 *)
  free_list_refill : int;  (** objects moved from the global list in bulk *)
  tls_current_thread : bool;  (** #1: running-thread globals moved to TLS *)
  cache_fill_once : bool;  (** #4: method inline caches filled only once *)
  ivar_guard : ivar_guard;  (** #4: instance-variable cache guard *)
  padded_thread_structs : bool;  (** #5: thread structs on dedicated lines *)
  heap_slots : int;  (** initial heap size (RUBY_HEAP_MIN_SLOTS analogue) *)
  malloc_thread_local : bool;  (** HEAPPOOLS-style malloc *)
  malloc_chunk : int;  (** cells per thread-local malloc chunk *)
  stack_cells : int;  (** per-thread frame-stack region *)
  ephemeral_alloc : bool;
      (** Figure 9 baselines: TLAB-style allocation, GC never runs *)
  alloc_coherence_counter : bool;
      (** JRuby-style residual bottleneck: shared object-space accounting *)
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
(** The paper's tuned configuration: all conflict removals on, enlarged
    heap. *)

val cruby_baseline : t
(** Original CRuby 1.9.3: no conflict removals, small default heap. *)
