(* Run-time configuration of the VM: the conflict-removal switches of
   Section 4.4 plus sizing knobs. Each switch is independent so the §5.4
   ablations ("without the conflict removals, no acceleration") can be
   reproduced. *)

type ivar_guard =
  | Class_equality  (** original CRuby: cached iff same class *)
  | Table_equality  (** paper's fix: cached iff same ivar table *)

type t = {
  float_boxing : bool;
      (** CRuby 1.9 allocates a Float object for every float result; this is
          the dominant allocation traffic in the NPB *)
  thread_local_free_lists : bool;  (** Section 4.4 conflict removal #2 *)
  free_list_refill : int;  (** objects moved from the global list in bulk *)
  tls_current_thread : bool;
      (** #1: running-thread globals moved to thread-local storage *)
  cache_fill_once : bool;  (** #4: method inline caches filled only once *)
  ivar_guard : ivar_guard;  (** #4: instance-variable cache guard *)
  padded_thread_structs : bool;  (** #5: thread structs on dedicated lines *)
  heap_slots : int;  (** initial heap size (RUBY_HEAP_MIN_SLOTS analogue) *)
  malloc_thread_local : bool;  (** HEAPPOOLS-style malloc *)
  malloc_chunk : int;  (** cells per thread-local malloc chunk *)
  stack_cells : int;  (** per-thread frame-stack region *)
  ephemeral_alloc : bool;
      (** fine-grained / free-parallel modes: allocation charges cycles but
          does not touch the shared heap (JVM-style TLAB) and GC never runs *)
  alloc_coherence_counter : bool;
      (** JRuby-style residual bottleneck: every allocation also bumps a
          shared counter line (object-space accounting), which costs
          cache-line transfers in the Coherent execution mode *)
  refcount_writes : bool;
      (** CPython-style reference counting: every method dispatch also
          writes the receiver's object header (INCREF/DECREF), making every
          shared object write-hot — the paper's Section 7 argument for why
          CPython needs RETCON-style help while Ruby does not *)
  lazy_sweep : bool;
      (** the optimisation Section 5.6 calls for: when a thread-local free
          list runs dry the thread claims a chunk of the arena through a
          single shared cursor and sweeps it privately, so the global free
          list disappears from the allocation path entirely *)
  seed : int;  (** guest PRNG seed *)
}

(* The paper's tuned configuration: all conflict removals on, enlarged heap
   (they used 10,000,000 slots; we scale the simulation down 50x). *)
let default =
  {
    float_boxing = true;
    thread_local_free_lists = true;
    free_list_refill = 256;
    tls_current_thread = true;
    cache_fill_once = true;
    ivar_guard = Table_equality;
    padded_thread_structs = true;
    heap_slots = 200_000;
    malloc_thread_local = true;
    malloc_chunk = 4096;
    stack_cells = 32_768;
    ephemeral_alloc = false;
    alloc_coherence_counter = false;
    refcount_writes = false;
    lazy_sweep = false;
    seed = 7;
  }

(* Original CRuby 1.9.3: no conflict removals, default small heap
   (10,000 slots in the paper, scaled down to keep GC frequency similar). *)
let cruby_baseline =
  {
    default with
    thread_local_free_lists = false;
    tls_current_thread = false;
    cache_fill_once = false;
    ivar_guard = Class_equality;
    padded_thread_structs = false;
    heap_slots = 4_000;
    malloc_thread_local = false;
  }
