(** The VM instance: simulated store + HTM engine + heap + class table +
    threads + globals. One [Vm.t] corresponds to one CRuby process. *)

type wake =
  | Wake_mutex of int  (** mutex slot addr: wake one waiter *)
  | Wake_cond_one of int
  | Wake_cond_all of int

type prim_fn = t -> Vmthread.t -> Value.t -> Value.t array -> Value.t
(** A primitive ("C") method: [fn vm thread receiver args]. Leaf code: it
    may not yield to guest blocks; it may raise {!Vmthread.Block} to park
    the thread or abort the enclosing transaction via the engine. *)

and t = {
  machine : Htm_sim.Machine.t;
  opts : Options.t;
  store : Value.t Htm_sim.Store.t;
  htm : Value.t Htm_sim.Htm.t;
  heap : Heap.t;
  classes : Klass.table;
  mutable prims : prim_fn array;
  mutable n_prims : int;
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
  g_gil : int;  (** the GIL word (each global sits on its own line) *)
  g_gil_owner : int;
  g_current_thread : int;  (** conflict source #1 when not in TLS *)
  g_live : int;  (** live guest thread count *)
  consts : (int, int) Hashtbl.t;
  gvars : (int, int) Hashtbl.t;
  cvars : (int * int, int) Hashtbl.t;
  mutable cache_base : int;
  mutable n_caches : int;
  mutable threads : Vmthread.t list;
  mutable thread_index : Vmthread.t option array;
  mutable n_threads : int;
  mutable spawned : Vmthread.t list;
  mutable pending_wakes : wake list;
  mutex_release_clock : (int, int) Hashtbl.t;
  prng : Htm_sim.Prng.t;
  out : Buffer.t;
  mutable main_obj : int;
  metrics : Obs.Metrics.t;
      (** per-VM metrics registry; the runner folds it into run results *)
  m_cache_hits : Obs.Metrics.counter;  (** inline method-cache hits *)
  m_cache_misses : Obs.Metrics.counter;
  mutable dcodes : Compiler.Dcode.t array;
      (** pre-decoded code cache indexed by [code.uid]; holes hold
          {!Compiler.dcode_dummy} and entries are guarded by physical
          identity of [src], so stale uids can never alias *)
}

val create :
  ?opts:Options.t -> ?htm_mode:Htm_sim.Htm.mode -> Htm_sim.Machine.t -> t

val release : t -> unit
(** Retire the VM's simulated store pages and HTM mark tables into a
    domain-local pool so the next [create] on this domain reuses them
    instead of allocating fresh ones. Call only when the VM is finished
    with: any later access through it raises. Purely a host-side
    optimisation. *)

val register_prim : t -> string -> prim_fn -> int
val defp : t -> Klass.t -> string -> prim_fn -> unit
val defsp : t -> Klass.t -> string -> prim_fn -> unit
(** Define an instance / singleton method backed by a primitive. *)

val define_class : t -> ?super:Klass.t -> kind:Klass.kind -> string -> Klass.t
(** Define a class at the OCaml level (the extension-library API). *)

val const_cell : t -> int -> int
val gvar_cell : t -> int -> int
val cvar_cell : t -> int -> int -> int

val class_of : t -> Value.t -> Klass.t
val class_object : t -> Klass.t -> int
val bind_class_const : t -> Klass.t -> unit

val live_count : t -> int
val new_thread : t -> code:Value.code -> obj:int -> Vmthread.t
val thread_by_id : t -> int -> Vmthread.t
val threads_oldest_first : t -> Vmthread.t list

val install_gc_hooks : t -> unit
(** Wire the conservative root scan and local-free-list flush into the
    heap. Call once after creating the VM. *)

val load_program : t -> Value.program -> unit
(** Reserve the inline-cache region for a compiled program. *)

val cache_addr : t -> int -> int

val dcode : t -> Value.code -> Compiler.Dcode.t
(** The pre-decoded form of [code], tabulating it on first use. Hot path:
    one bounds check + one physical-equality guard when cached. Entries
    are never flushed: a decoded form depends only on its [code]'s
    instructions, which never change after compilation. *)

val output : t -> string
