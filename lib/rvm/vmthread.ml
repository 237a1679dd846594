(* A guest thread: VM registers, its frame-stack region and its "Ruby thread
   structure" region in the simulated store. *)

type block_reason =
  | On_mutex of int  (** mutex object slot address *)
  | On_cond of int * int  (** condvar slot address, mutex slot address *)
  | On_join of int  (** target thread id *)
  | On_accept of int  (** netsim listener id *)
  | On_io of int  (** wake at given cycle *)
  | On_sleep of int  (** wake at given cycle *)

exception Block of block_reason
(** Raised by a builtin that must suspend the thread; the runner restores the
    thread to the start of the current instruction, parks it, and re-executes
    the instruction on wake-up. *)

type status =
  | Runnable
  | Waiting_ctx  (** spawned, waiting for a free hardware context *)
  | Blocked of block_reason
  | Finished

(* Thread-struct cell offsets. The struct is written at every transaction
   yield (the yield-point counter); each one follows its thread's
   line-aligned stack, so adjacent structs never false-share a line
   (conflict source #5 in Section 4.4). *)
let st_interrupt = 0
let st_yield_counter = 1
let st_free_head = 2
let st_free_count = 3
let st_malloc_ptr = 4
let st_malloc_end = 5
let st_tls_current = 6
let st_spare = 7
let struct_cells = 8
let stack_cells = 32_768

type t = {
  tid : int;
  mutable ctx : int;  (** hardware context, -1 while waiting *)
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
  (* tokens for re-executed blocking builtins *)
  mutable cond_signaled : bool;
  mutable io_done : bool;
  (* bookkeeping for the runner/schemes *)
  mutable txn_start_clock : int;
  mutable snap_fp : int;
  mutable snap_sp : int;
  mutable snap_pc : int;
  mutable snap_code : Value.code;
}

let frame_hdr = 10

(* Frame header offsets relative to fp. *)
let f_code = 0
let f_self = 1
let f_block_code = 2
let f_block_fp = 3
let f_block_self = 4
let f_caller_fp = 5
let f_caller_pc = 6
let f_caller_sp = 7
let f_defining_fp = 8
let f_flags = 9

let flag_block = 1
let flag_constructor = 2

let create ~tid ~stack_base ~stack_limit ~struct_base ~obj ~code =
  {
    tid;
    ctx = -1;
    stack_base;
    stack_limit;
    struct_base;
    obj;
    fp = stack_base;
    sp = stack_base;
    pc = 0;
    code;
    status = Waiting_ctx;
    clock = 0;
    result = Value.VNil;
    cond_signaled = false;
    io_done = false;
    txn_start_clock = 0;
    snap_fp = 0;
    snap_sp = 0;
    snap_pc = 0;
    snap_code = code;
  }

let snapshot t =
  t.snap_fp <- t.fp;
  t.snap_sp <- t.sp;
  t.snap_pc <- t.pc;
  t.snap_code <- t.code

let restore t =
  t.fp <- t.snap_fp;
  t.sp <- t.snap_sp;
  t.pc <- t.snap_pc;
  t.code <- t.snap_code
