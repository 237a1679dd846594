(* The VM instance: simulated store + HTM engine + heap + class table +
   threads + globals. One [Vm.t] corresponds to one CRuby process. *)

open Htm_sim

type wake =
  | Wake_mutex of int  (** mutex slot addr: wake one waiter *)
  | Wake_cond_one of int  (** condvar slot addr *)
  | Wake_cond_all of int

type prim_fn = t -> Vmthread.t -> Value.t -> Value.t array -> Value.t

and t = {
  machine : Machine.t;
  opts : Options.t;
  store : Value.t Store.t;
  htm : Value.t Htm.t;
  heap : Heap.t;
  classes : Klass.table;
  mutable prims : prim_fn array;
  mutable n_prims : int;
  (* builtin classes *)
  c_object : Klass.t;
  c_class : Klass.t;
  c_nil : Klass.t;
  c_true : Klass.t;
  c_false : Klass.t;
  c_integer : Klass.t;
  c_float : Klass.t;
  c_symbol : Klass.t;
  c_string : Klass.t;
  c_array : Klass.t;
  c_hash : Klass.t;
  c_range : Klass.t;
  c_thread : Klass.t;
  c_mutex : Klass.t;
  c_condvar : Klass.t;
  (* globals, each on its own cache line *)
  g_gil : int;  (** GIL.acquired *)
  g_gil_owner : int;
  g_current_thread : int;  (** conflict source #1 when not in TLS *)
  g_live : int;  (** number of live guest threads *)
  consts : (int, int) Hashtbl.t;  (** constant symbol -> cell address *)
  gvars : (int, int) Hashtbl.t;
  cvars : (int * int, int) Hashtbl.t;  (** (class id, symbol) -> cell *)
  mutable cache_base : int;  (** inline-cache region *)
  mutable n_caches : int;
  mutable threads : Vmthread.t list;  (** newest first *)
  mutable thread_index : Vmthread.t option array;
  mutable n_threads : int;
  mutable spawned : Vmthread.t list;  (** new threads awaiting the runner *)
  mutable pending_wakes : wake list;
  mutex_release_clock : (int, int) Hashtbl.t;
      (** mutex slot -> virtual time of its last non-transactional unlock;
          real (non-elided) acquisitions may not begin before it *)
  prng : Prng.t;
  out : Buffer.t;
  (* observability: per-VM metrics registry plus pre-resolved handles for
     the interpreter's hottest counters (no hashtable lookup on hit paths) *)
  metrics : Obs.Metrics.t;
  m_cache_hits : Obs.Metrics.counter;
  m_cache_misses : Obs.Metrics.counter;
}

(* Domain-local pool of a retired VM's store pages and HTM mark-table
   pages. A figure sweep boots a fresh VM per experiment point and per
   shard; handing the previous VM's pages to the next one (points and
   shards run sequentially within a domain) saves allocating them again,
   and with it the major-GC work that allocating them while the guest runs
   would pace. Neither kind of page depends on the machine, so any VM's
   pages fit the next. Purely a host-side optimisation: addresses come from
   the bump pointer either way. *)
type pool = {
  mutable pages : Value.t array list;
  mutable lines : Htm.line_tables option;
}

let pool : pool Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { pages = []; lines = None })

let release vm =
  let p = Domain.DLS.get pool in
  p.pages <- Store.retire vm.store;
  p.lines <- Some (Htm.retire vm.htm)

let create ?(opts = Options.default) ?(htm_mode = Htm.Htm_mode) machine =
  (* span the boot arena (heap_slots * slot_cells cells) plus headroom for
     stacks and one heap growth, so booting never grows the store's page
     table nor, with it, the engine's line page tables *)
  let initial_cells =
    match opts.Options.alloc with
    | Slot_heap -> (1 lsl 16) + (2 * opts.heap_slots * Layout.slot_cells)
    | Tlab | Tlab_counted -> 1 lsl 16
  in
  let p = Domain.DLS.get pool in
  let pages = p.pages and lines = p.lines in
  p.pages <- [];
  p.lines <- None;
  let store =
    Store.create ~recycled:pages ~dummy:Value.VNil
      ~line_cells:machine.Machine.line_cells initial_cells
  in
  (* address 0 is reserved so 0 can mean "null" in free lists *)
  ignore (Store.reserve store 1);
  let htm = Htm.create ~mode:htm_mode ?recycled:lines machine store in
  let classes = Klass.create_table () in
  let mk ?super name kind =
    let mtbl_base = Store.reserve_aligned store Klass.mtbl_cells in
    for i = 0 to Klass.mtbl_cells - 1 do
      Store.set store (mtbl_base + i) (Value.vint 0)
    done;
    Klass.add_class classes ~name ~kind ~super ~mtbl_base
  in
  let c_object = mk "Object" Klass.K_object in
  let sup = Some c_object in
  let c_class = mk ?super:sup "Class" Klass.K_class_obj in
  let c_nil = mk ?super:sup "NilClass" Klass.K_object in
  let c_true = mk ?super:sup "TrueClass" Klass.K_object in
  let c_false = mk ?super:sup "FalseClass" Klass.K_object in
  let c_integer = mk ?super:sup "Integer" Klass.K_object in
  let c_float = mk ?super:sup "Float" Klass.K_object in
  let c_symbol = mk ?super:sup "Symbol" Klass.K_object in
  let c_string = mk ?super:sup "String" Klass.K_string in
  let c_array = mk ?super:sup "Array" Klass.K_array in
  let c_hash = mk ?super:sup "Hash" Klass.K_hash in
  let c_range = mk ?super:sup "Range" Klass.K_range in
  let c_thread = mk ?super:sup "Thread" Klass.K_thread in
  let c_mutex = mk ?super:sup "Mutex" Klass.K_mutex in
  let c_condvar = mk ?super:sup "ConditionVariable" Klass.K_condvar in
  let heap = Heap.create store htm opts classes in
  let metrics = Obs.Metrics.create () in
  heap.Heap.gc_pause_hist <- Some (Obs.Metrics.histogram metrics "gc.pause_cycles");
  let cell init =
    let a = Store.reserve_aligned store 1 in
    Store.set store a init;
    a
  in
  let vm =
    {
      machine;
      opts;
      store;
      htm;
      heap;
      classes;
      prims = Array.make 64 (fun _ _ _ _ -> Value.VNil);
      n_prims = 0;
      c_object;
      c_class;
      c_nil;
      c_true;
      c_false;
      c_integer;
      c_float;
      c_symbol;
      c_string;
      c_array;
      c_hash;
      c_range;
      c_thread;
      c_mutex;
      c_condvar;
      g_gil = cell (Value.vint 0);
      g_gil_owner = cell (Value.vint (-1));
      g_current_thread = cell (Value.vint (-1));
      g_live = cell (Value.vint 0);
      consts = Hashtbl.create 32;
      gvars = Hashtbl.create 8;
      cvars = Hashtbl.create 8;
      cache_base = 0;
      n_caches = 0;
      threads = [];
      thread_index = Array.make 64 None;
      n_threads = 0;
      spawned = [];
      pending_wakes = [];
      mutex_release_clock = Hashtbl.create 16;
      prng = Prng.create opts.seed;
      out = Buffer.create 256;
      metrics;
      m_cache_hits = Obs.Metrics.counter metrics "interp.method_cache_hits";
      m_cache_misses = Obs.Metrics.counter metrics "interp.method_cache_misses";
    }
  in
  vm

let register_prim vm name fn =
  ignore name;
  let id = vm.n_prims in
  vm.n_prims <- id + 1;
  if id >= Array.length vm.prims then begin
    let bigger = Array.make (2 * id) vm.prims.(0) in
    Array.blit vm.prims 0 bigger 0 id;
    vm.prims <- bigger
  end;
  vm.prims.(id) <- fn;
  id

(* Convenience: define an instance method backed by a primitive. *)
let defp vm k name fn =
  Klass.define_method k (Sym.intern name) (Klass.Prim (register_prim vm name fn))

let defsp vm k name fn =
  Klass.define_smethod k (Sym.intern name) (Klass.Prim (register_prim vm name fn))

(* Define a new class at the OCaml level (used by extension libraries). *)
let define_class vm ?super ~kind name =
  let mtbl_base = Store.reserve_aligned vm.store Klass.mtbl_cells in
  for i = 0 to Klass.mtbl_cells - 1 do
    Store.set vm.store (mtbl_base + i) (Value.vint 0)
  done;
  let super = Some (Option.value super ~default:vm.c_object) in
  Klass.add_class vm.classes ~name ~kind ~super ~mtbl_base

let const_cell vm sym =
  match Hashtbl.find_opt vm.consts sym with
  | Some a -> a
  | None ->
      let a = Store.reserve vm.store 1 in
      Store.set vm.store a Value.VNil;
      Hashtbl.add vm.consts sym a;
      a

let gvar_cell vm sym =
  match Hashtbl.find_opt vm.gvars sym with
  | Some a -> a
  | None ->
      let a = Store.reserve vm.store 1 in
      Store.set vm.store a Value.VNil;
      Hashtbl.add vm.gvars sym a;
      a

let cvar_cell vm class_id sym =
  match Hashtbl.find_opt vm.cvars (class_id, sym) with
  | Some a -> a
  | None ->
      let a = Store.reserve vm.store 1 in
      Store.set vm.store a Value.VNil;
      Hashtbl.add vm.cvars (class_id, sym) a;
      a

let class_of vm (v : Value.t) : Klass.t =
  match v with
  | VNil -> vm.c_nil
  | VTrue -> vm.c_true
  | VFalse -> vm.c_false
  | VInt _ -> vm.c_integer
  | VFloat _ -> vm.c_float
  | VSym _ -> vm.c_symbol
  | VRef a -> Klass.get vm.classes (Layout.class_id_of_header (Htm.peek vm.htm a))
  | VCode _ | VStrData _ -> Value.guest_error "class_of: internal value"

(* Reified class object (receiver for Foo.new, Math.sqrt, ...). *)
let class_object vm (k : Klass.t) =
  if k.class_obj >= 0 then k.class_obj
  else begin
    (* boot-time allocation, bypasses the free list *)
    let slot = Store.reserve_aligned vm.store Layout.slot_cells in
    Store.set vm.store slot (Layout.header_of_class vm.c_class.id);
    for f = 1 to Layout.n_fields do
      Store.set vm.store (slot + f) Value.VNil
    done;
    Store.set vm.store (slot + Layout.k_class_id) (Value.vint k.id);
    k.class_obj <- slot;
    slot
  end

(* Bind a class to its constant. *)
let bind_class_const vm (k : Klass.t) =
  let sym = Sym.intern k.name in
  let cell = const_cell vm sym in
  Store.set vm.store cell (Value.VRef (class_object vm k))

(* ---- threads ----------------------------------------------------------- *)

let live_count vm = match Store.get vm.store vm.g_live with Value.VInt n -> n | _ -> 0

(* Create a guest thread. [frame_filler] initialises its first frame. *)
let new_thread vm ~code ~obj =
  let stack_base = Store.reserve_aligned vm.store Vmthread.stack_cells in
  (* the stack ends on a line boundary, so the struct starts a line *)
  let struct_base = Store.reserve_aligned vm.store Vmthread.struct_cells in
  for i = 0 to Vmthread.struct_cells - 1 do
    Store.set vm.store (struct_base + i) (Value.vint 0)
  done;
  let tid = vm.n_threads in
  vm.n_threads <- tid + 1;
  let th =
    Vmthread.create ~tid ~stack_base
      ~stack_limit:(stack_base + Vmthread.stack_cells)
      ~struct_base ~obj ~code
  in
  vm.threads <- th :: vm.threads;
  if tid >= Array.length vm.thread_index then begin
    let bigger = Array.make (2 * tid) None in
    Array.blit vm.thread_index 0 bigger 0 (Array.length vm.thread_index);
    vm.thread_index <- bigger
  end;
  vm.thread_index.(tid) <- Some th;
  vm.spawned <- th :: vm.spawned;
  th

let thread_by_id vm tid =
  match if tid < Array.length vm.thread_index then vm.thread_index.(tid) else None with
  | Some t -> t
  | None -> Value.guest_error "no such thread %d" tid

let threads_oldest_first vm = List.rev vm.threads

(* ---- GC wiring --------------------------------------------------------- *)

(* Conservative root scan: every cell of every live thread's stack up to
   sp (plus a margin for values popped mid-instruction), the thread
   structures, constants, globals and class variables. *)
let install_gc_hooks vm =
  vm.heap.gc_roots <-
    (fun mark ->
      let mark_value = function Value.VRef a -> mark a | _ -> () in
      List.iter
        (fun (th : Vmthread.t) ->
          if th.status <> Vmthread.Finished then begin
            let top = min (th.sp + 16) th.stack_limit in
            for a = th.stack_base to top - 1 do
              mark_value (Store.get vm.store a)
            done;
            if th.obj >= 0 then mark th.obj;
            mark_value th.result
          end)
        vm.threads;
      Hashtbl.iter (fun _ a -> mark_value (Store.get vm.store a)) vm.consts;
      Hashtbl.iter (fun _ a -> mark_value (Store.get vm.store a)) vm.gvars;
      Hashtbl.iter (fun _ a -> mark_value (Store.get vm.store a)) vm.cvars);
  vm.heap.flush_locals <-
    (fun () ->
      List.iter
        (fun (th : Vmthread.t) ->
          Store.set vm.store (th.struct_base + Vmthread.st_free_head) (Value.vint 0);
          Store.set vm.store (th.struct_base + Vmthread.st_free_count) (Value.vint 0))
        vm.threads)

(* Reserve the inline-cache region once the program is known. *)
let load_program vm (prog : Value.program) =
  let n = max 1 prog.n_caches in
  let base = Store.reserve_aligned vm.store (2 * n) in
  for i = 0 to (2 * n) - 1 do
    Store.set vm.store (base + i) (Value.vint (-1))
  done;
  vm.cache_base <- base;
  vm.n_caches <- n

let cache_addr vm slot = vm.cache_base + (2 * slot)

let output vm = Buffer.contents vm.out
