(** A guest thread: VM registers, its frame-stack region and its "Ruby
    thread structure" region in the simulated store. The thread structure
    holds the interrupt flag, the yield-point counter of Figure 2, the
    thread-local free list and the TLS cell — written at every transaction
    yield, so without padding adjacent structs false-share cache lines
    (conflict source #5 of Section 4.4). *)

type block_reason =
  | On_mutex of int  (** mutex object slot address *)
  | On_cond of int * int  (** condvar slot, mutex slot *)
  | On_join of int  (** target thread id *)
  | On_accept of int  (** netsim listener id *)
  | On_io of int  (** wake at the given cycle *)
  | On_sleep of int

exception Block of block_reason
(** Raised by a builtin that must suspend the thread; the runner restores
    the thread to the start of the current instruction, parks it, and
    re-executes the instruction on wake-up. *)

type status = Runnable | Waiting_ctx | Blocked of block_reason | Finished

(** Thread-struct cell offsets: *)

val st_interrupt : int
val st_yield_counter : int
val st_free_head : int
val st_free_count : int
val st_malloc_ptr : int
val st_malloc_end : int
val st_tls_current : int
val st_spare : int
val struct_cells : int

type t = {
  tid : int;
  mutable ctx : int;  (** hardware context, -1 while parked *)
  stack_base : int;
  stack_limit : int;
  struct_base : int;
  obj : int;  (** slot address of the guest Thread object, -1 for main *)
  mutable fp : int;
  mutable sp : int;
  mutable pc : int;
  mutable code : Value.code;
  mutable status : status;
  mutable clock : int;  (** virtual cycles *)
  mutable result : Value.t;
  mutable cond_signaled : bool;
  mutable io_done : bool;
  mutable txn_start_clock : int;
  mutable snap_fp : int;
  mutable snap_sp : int;
  mutable snap_pc : int;
  mutable snap_code : Value.code;
}

(** Frame layout: *)

val frame_hdr : int
val f_code : int
val f_self : int
val f_block_code : int
val f_block_fp : int
val f_block_self : int
val f_caller_fp : int
val f_caller_pc : int
val f_caller_sp : int
val f_defining_fp : int
val f_flags : int
val flag_block : int
val flag_constructor : int

val create :
  tid:int ->
  stack_base:int ->
  stack_limit:int ->
  struct_base:int ->
  obj:int ->
  code:Value.code ->
  t

val snapshot : t -> unit
(** Save fp/sp/pc/code — the register checkpoint a TBEGIN takes. *)

val restore : t -> unit
(** Restore the {!snapshot} — what an abort rolls registers back to. *)
